"""Tests for design-space modules: linking, content, few-shot, prompts, post."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.dbengine.database import Database
from repro.errors import DesignSpaceError
from repro.llm.model import GenerationCandidate
from repro.modules import db_content
from repro.modules.base import PipelineConfig
from repro.modules.db_content import match_db_content
from repro.modules.fewshot import MANUAL_QUALITY, question_similarity, select_examples
from repro.modules.post_processing import (
    execution_guided_select,
    needs_correction,
    rerank_candidates,
    self_consistency_vote,
)
from repro.modules.prompts import build_prompt
from repro.modules.schema_linking import link_schema
from repro.schema.model import Column, ColumnType, DatabaseSchema, Table
from repro.utils.cache import caches_disabled
from repro.utils.text import length_bound, normalized_similarity


class TestPipelineConfig:
    def test_valid_defaults(self):
        config = PipelineConfig(name="x", backbone="gpt-4")
        assert config.decoding == "greedy"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"schema_linking": "bogus"},
            {"db_content": "bogus"},
            {"prompting": "bogus"},
            {"multi_step": "bogus"},
            {"intermediate": "bogus"},
            {"decoding": "bogus"},
            {"post_processing": "bogus"},
            {"prompting": "similarity_fewshot", "few_shot_k": 0},
        ],
    )
    def test_invalid_choices_rejected(self, kwargs):
        with pytest.raises(DesignSpaceError):
            PipelineConfig(name="x", backbone="gpt-4", **kwargs)

    def test_style_divergence_ordering(self):
        finetuned = PipelineConfig(name="a", backbone="t5-3b", finetuned=True)
        similarity = PipelineConfig(
            name="b", backbone="gpt-4", prompting="similarity_fewshot", few_shot_k=5
        )
        manual = PipelineConfig(
            name="c", backbone="gpt-4", prompting="manual_fewshot", few_shot_k=5
        )
        zero = PipelineConfig(name="d", backbone="gpt-4")
        assert (
            finetuned.style_divergence
            < similarity.style_divergence
            < manual.style_divergence
            < zero.style_divergence
        )

    def test_with_copies(self):
        config = PipelineConfig(name="x", backbone="gpt-4")
        changed = config.with_(name="y", schema_linking="resdsql")
        assert changed.name == "y" and config.schema_linking is None

    def test_layer_values_keys(self):
        config = PipelineConfig(name="x", backbone="gpt-4")
        assert set(config.layer_values()) == {
            "schema_linking", "db_content", "prompting", "multi_step",
            "intermediate", "decoding", "post_processing", "repair",
        }


class TestSchemaLinking:
    def test_resdsql_links_relevant_tables(self, toy_schema):
        tables = link_schema(
            "resdsql", toy_schema, "What is the average price of all flights?"
        )
        assert "flights" in tables

    def test_c3_more_aggressive(self, toy_schema):
        question = "How many airports are there?"
        c3 = link_schema("c3", toy_schema, question)
        resdsql = link_schema("resdsql", toy_schema, question)
        assert len(c3) <= len(resdsql) + 1  # c3 keeps fewer (plus FK closure)

    def test_fk_parents_kept(self, toy_schema):
        tables = link_schema(
            "resdsql", toy_schema, "Show the price of all flights."
        )
        assert "airports" in tables  # FK target retained for joinability

    def test_unknown_strategy(self, toy_schema):
        with pytest.raises(DesignSpaceError):
            link_schema("bogus", toy_schema, "q")


class TestDbContent:
    def test_quoted_value_matched(self, toy_db):
        matches = match_db_content(
            "bridge", toy_db, "Show airports whose city is 'Boston'."
        )
        assert "Boston" in matches["airports"]["city"]

    def test_no_spans_no_matches(self, toy_db):
        assert match_db_content("bridge", toy_db, "Show all airports.") == {}

    def test_fuzzy_matching_bridge_only(self, toy_db):
        question = "whose city is 'Bostan'."  # typo
        bridge = match_db_content("bridge", toy_db, question)
        codes = match_db_content("codes", toy_db, question)
        assert "airports" in bridge
        assert "airports" not in codes

    def test_max_values_respected(self, toy_db):
        matches = match_db_content(
            "bridge", toy_db, "whose destination is 'Boston' or 'Denver' or 'Aberdeen'.",
            max_values_per_column=2,
        )
        for columns in matches.values():
            for values in columns.values():
                assert len(values) <= 2


def _near_values(span: str, rng: random.Random, count: int) -> list[str]:
    """Random edits of ``span``: similarities straddle the fuzzy threshold."""
    alphabet = "aeiorstİ🙂 "
    values = []
    for _ in range(count):
        chars = list(span)
        for _ in range(rng.randrange(5)):
            position = rng.randrange(len(chars))
            operation = rng.randrange(3)
            if operation == 0:
                chars.insert(position, rng.choice(alphabet))
            elif operation == 1 and len(chars) > 1:
                del chars[position]
            else:
                chars[position] = rng.choice(alphabet)
        values.append("".join(chars))
    return values


class TestDbContentPrefilter:
    SPANS = ("Brightwater", "Oak Island", "Reno")
    QUESTION = "Which places are 'Brightwater', 'Oak Island' or 'Reno'?"

    @pytest.fixture()
    def near_db(self):
        rng = random.Random(12)
        values = [value for span in self.SPANS for value in _near_values(span, rng, 150)]
        schema = DatabaseSchema(db_id="near", tables=[Table(name="places", columns=[
            Column("place_id", ColumnType.INTEGER, is_primary_key=True),
            Column("city", ColumnType.TEXT),
            Column("label", ColumnType.TEXT),
        ])])
        database = Database(schema)
        database.insert_rows(
            "places", [(i, value, values[-1 - i]) for i, value in enumerate(values)]
        )
        yield database
        database.close()

    @pytest.mark.parametrize("strategy", ["bridge", "codes"])
    def test_prefilter_matches_reference(self, near_db, strategy, monkeypatch):
        compared: list[tuple[str, str]] = []

        def counting(a: str, b: str) -> float:
            compared.append((a, b))
            return normalized_similarity(a, b)

        monkeypatch.setattr(db_content, "normalized_similarity", counting)
        fast = match_db_content(strategy, near_db, self.QUESTION, max_values_per_column=10_000)
        filtered = len(compared)
        # The reference: no pair is ever skipped by its lengths.
        monkeypatch.setattr(db_content, "length_bound", lambda len_a, len_b: 1.0)
        reference = match_db_content(
            strategy, near_db, self.QUESTION, max_values_per_column=10_000
        )
        assert fast == reference
        if strategy == "bridge":
            assert 0 < filtered < len(compared) - filtered
            fuzzy_only = [
                value
                for columns in reference.values()
                for values in columns.values()
                for value in values
                if not any(span.lower() in value.lower() for span in self.SPANS)
            ]
            assert fuzzy_only

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_length_bound_is_an_upper_bound(self, a, b):
        bound = length_bound(len(a.lower()), len(b.lower()))
        assert normalized_similarity(a, b) <= bound


class TestFewShot:
    TRAIN = [
        ("How many airports are there?", "SELECT COUNT(*) FROM airports"),
        ("Show the name of all movies.", "SELECT name FROM movies"),
        ("What is the average price of all flights?", "SELECT AVG(price) FROM flights"),
    ]

    def test_similarity_selects_closest(self):
        examples, quality = select_examples(
            "similarity_fewshot", "How many flights are there?", self.TRAIN, k=1
        )
        assert examples[0].question == "How many airports are there?"
        assert quality > MANUAL_QUALITY

    def test_manual_fixed_set(self):
        examples, quality = select_examples("manual_fewshot", "anything", self.TRAIN, k=3)
        assert len(examples) == 3
        assert quality == MANUAL_QUALITY

    def test_similarity_empty_train_falls_back(self):
        examples, quality = select_examples("similarity_fewshot", "q", [], k=2)
        assert quality == MANUAL_QUALITY

    def test_question_similarity_bounds(self):
        assert question_similarity("a b c", "a b c") == 1.0
        assert question_similarity("xxx", "yyy") == 0.0


class TestBuildPrompt:
    def test_zero_shot_contains_schema_and_question(self, toy_db):
        config = PipelineConfig(name="x", backbone="gpt-4")
        prompt = build_prompt(config, toy_db, "How many airports are there?")
        assert "CREATE TABLE airports" in prompt.text
        assert "How many airports are there?" in prompt.text
        assert prompt.features.few_shot_count == 0

    def test_schema_linking_prunes_prompt(self, toy_db):
        config = PipelineConfig(name="x", backbone="gpt-4", schema_linking="c3")
        prompt = build_prompt(config, toy_db, "How many airports are there?")
        assert prompt.features.schema_tables is not None

    def test_db_content_comments(self, toy_db):
        config = PipelineConfig(name="x", backbone="gpt-4", db_content="bridge")
        prompt = build_prompt(
            config, toy_db, "Show airports whose city is 'Boston'."
        )
        assert "-- values:" in prompt.text
        assert prompt.features.db_content is not None

    def test_fewshot_examples_included(self, toy_db):
        config = PipelineConfig(
            name="x", backbone="gpt-4", prompting="similarity_fewshot", few_shot_k=2
        )
        prompt = build_prompt(
            config, toy_db, "How many airports are there?",
            train_pairs=[("How many dogs are there?", "SELECT COUNT(*) FROM dogs")],
        )
        assert "SELECT COUNT(*) FROM dogs;" in prompt.text
        assert prompt.features.few_shot_count == 1

    def test_overhead_tokens_inflate_prompt(self, toy_db):
        from repro.llm.tokens import count_tokens
        lean = build_prompt(PipelineConfig(name="x", backbone="gpt-4"), toy_db, "q of airports")
        fat = build_prompt(
            PipelineConfig(name="x", backbone="gpt-4", prompt_overhead_tokens=4000),
            toy_db, "q of airports",
        )
        assert count_tokens(fat.text) - count_tokens(lean.text) > 3000

    def test_databases_sharing_a_db_id_get_their_own_schema(self, toy_schema):
        # Datasets built from different seeds reuse db_ids; the process-wide
        # prompt cache must not hand one database's DDL to the other.
        wider = DatabaseSchema(
            db_id=toy_schema.db_id,
            tables=[
                Table(
                    name="airports",
                    columns=[*toy_schema.tables[0].columns, Column("runway_count")],
                ),
                toy_schema.tables[1],
            ],
            foreign_keys=toy_schema.foreign_keys,
        )
        config = PipelineConfig(name="x", backbone="gpt-4")
        question = "How many airports are there?"
        first, second = Database(toy_schema), Database(wider)
        try:
            assert "runway_count" not in build_prompt(config, first, question).text
            prompt = build_prompt(config, second, question)
            assert "runway_count" in prompt.text
            with caches_disabled():
                assert prompt.text == build_prompt(config, second, question).text
        finally:
            first.close()
            second.close()


class TestPostProcessing:
    def _candidate(self, sql):
        return GenerationCandidate(sql=sql, output_tokens=5)

    def test_self_consistency_majority_wins(self, toy_db):
        good = self._candidate("SELECT name FROM airports WHERE city = 'Boston'")
        bad = self._candidate("SELECT name FROM airports WHERE city = 'Denver'")
        chosen = self_consistency_vote([bad, good, good, good, bad], toy_db)
        assert chosen.sql == good.sql

    def test_self_consistency_prefers_executable(self, toy_db):
        broken = self._candidate("SELECT bogus FROM airports")
        good = self._candidate("SELECT name FROM airports")
        chosen = self_consistency_vote([broken, broken, broken, good], toy_db)
        assert chosen.sql == good.sql

    def test_self_consistency_empty_raises(self, toy_db):
        with pytest.raises(ValueError):
            self_consistency_vote([], toy_db)

    def test_execution_guided_picks_first_executable(self, toy_db):
        broken = self._candidate("SELECT bogus FROM airports")
        good = self._candidate("SELECT name FROM airports")
        assert execution_guided_select([broken, good], toy_db).sql == good.sql

    def test_execution_guided_all_broken_returns_first(self, toy_db):
        broken = self._candidate("SELECT bogus FROM airports")
        assert execution_guided_select([broken], toy_db).sql == broken.sql

    def test_rerank_prefers_valid_nonempty(self, toy_db):
        from repro.sqlkit.picard import PicardChecker
        checker = PicardChecker(toy_db.schema)
        empty = self._candidate("SELECT name FROM airports WHERE city = 'Nowhere'")
        nonempty = self._candidate("SELECT name FROM airports WHERE city = 'Boston'")
        best = rerank_candidates([empty, nonempty], toy_db, checker)
        assert best.sql == nonempty.sql

    def test_needs_correction(self, toy_db):
        assert needs_correction(self._candidate("SELECT bogus FROM airports"), toy_db)
        assert not needs_correction(self._candidate("SELECT name FROM airports"), toy_db)
