"""Tests for schema linking."""

import copy
import gc
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.datagen.benchmark import build_benchmark
from repro.llm.model import _pruned_schema
from repro.nlu import linker as linker_module
from repro.nlu.linker import SchemaLinker, phrase_similarity
from tests.conftest import small_benchmark_config


class TestPhraseSimilarity:
    def test_identical(self):
        assert phrase_similarity("airport name", "airport name") == 1.0

    def test_plural_tolerant(self):
        assert phrase_similarity("airports", "airport") > 0.9

    def test_underscore_tolerant(self):
        assert phrase_similarity("airport_name", "airport name") == 1.0

    def test_unrelated_low(self):
        assert phrase_similarity("elevation", "price") < 0.4


class TestTableLinking:
    def test_exact(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_table("airports")
        assert linked.table.name == "airports"

    def test_singular_phrase(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_table("airport")
        assert linked.table.name == "airports"

    def test_below_threshold_none(self, toy_schema):
        assert SchemaLinker(toy_schema).link_table("customers", threshold=0.6) is None

    def test_rank_tables_ordering(self, toy_schema):
        ranked = SchemaLinker(toy_schema).rank_tables("flight")
        assert ranked[0].table.name == "flights"
        assert ranked[0].score > ranked[1].score


class TestColumnLinking:
    def test_direct_match(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_column("elevation")
        assert linked.column.name == "elevation"
        assert linked.table.name == "airports"

    def test_natural_name_match(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_column("airport name")
        assert linked.column.name == "name"

    def test_restricted_to_tables(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_column("price", tables=["flights"])
        assert linked.table.name == "flights"

    def test_restriction_excludes(self, toy_schema):
        linked = SchemaLinker(toy_schema).link_column(
            "elevation", tables=["flights"], threshold=0.6
        )
        assert linked is None

    def test_contextual_table_prefix(self, toy_schema):
        # "flight price" should match flights.price via table context.
        linked = SchemaLinker(toy_schema).link_column("flight price")
        assert linked.table.name == "flights"
        assert linked.column.name == "price"


class TestRelevantTables:
    def test_question_mentions_both(self, toy_schema):
        tables = SchemaLinker(toy_schema).relevant_tables(
            "Show the airport name together with the price of its flights"
        )
        assert "airports" in tables and "flights" in tables

    def test_single_table_question(self, toy_schema):
        tables = SchemaLinker(toy_schema).relevant_tables(
            "How many airports are there?", top_k=1
        )
        assert tables == ["airports"]

    def test_always_returns_at_least_one(self, toy_schema):
        tables = SchemaLinker(toy_schema).relevant_tables("completely unrelated words")
        assert len(tables) >= 1

    def test_column_evidence_counts(self, toy_schema):
        tables = SchemaLinker(toy_schema).relevant_tables(
            "What is the average elevation?"
        )
        assert "airports" in tables


PHRASES = (
    "airport name", "flight price", "Cities", "studentID", "number of movies",
    "average elevation of the airports", "", "title_year",
)


def _ranking(schema, phrase):
    return [
        (linked.table.name, linked.column.name, linked.score)
        for linked in SchemaLinker(schema).rank_columns(phrase)
    ]


def _link_every_schema(dataset):
    for database in dataset.databases.values():
        linker = SchemaLinker(database.schema)
        linker.rank_columns("name")
        linker.relevant_tables("How many flights are there?")


class TestTokenIndex:
    def test_scores_equal_phrase_similarity(self, small_dataset):
        for database in small_dataset.databases.values():
            schema = database.schema
            linker = SchemaLinker(schema)
            phrases = PHRASES + tuple(table.display_name for table in schema.tables)
            for phrase in phrases:
                for linked in linker.rank_tables(phrase):
                    assert linked.score == phrase_similarity(phrase, linked.table.display_name)
                ranked = linker.rank_columns(phrase)
                assert len(ranked) == sum(len(table.columns) for table in schema.tables)
                for linked in ranked:
                    direct = phrase_similarity(phrase, linked.column.display_name)
                    contextual = phrase_similarity(
                        phrase, f"{linked.table.display_name} {linked.column.display_name}"
                    )
                    assert linked.score == max(direct, 0.92 * contextual)

    def test_pruned_schema_adds_no_entries(self, toy_schema):
        linker = SchemaLinker(toy_schema)
        linker.rank_columns("price")
        linker.relevant_tables("Show the price of flights")
        before = set(linker_module._TOKEN_INDEX)
        for tables in (("flights",), ("airports",), ("airports", "flights")):
            pruned_linker = SchemaLinker(_pruned_schema(toy_schema, tables))
            pruned_linker.rank_tables("flight")
            pruned_linker.rank_columns("price")
            pruned_linker.relevant_tables("Show the price of flights")
        assert set(linker_module._TOKEN_INDEX) <= before

    def test_entries_dropped_with_dataset(self):
        gc.collect()
        baseline = set(linker_module._TOKEN_INDEX)
        for seed in (1, 2, 3):
            dataset = build_benchmark(small_benchmark_config(seed))
            _link_every_schema(dataset)
            assert len(linker_module._TOKEN_INDEX) > len(baseline)
            dataset.close()
            del dataset
            gc.collect()
            assert set(linker_module._TOKEN_INDEX) <= baseline

    def test_concurrent_rank_columns_identical(self, small_dataset):
        schemas = [database.schema for database in small_dataset.databases.values()]
        expected = [[_ranking(schema, phrase) for phrase in PHRASES] for schema in schemas]
        # Fresh Table objects, so the threads race to build their entries.
        fresh = copy.deepcopy(schemas)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda _: [[_ranking(schema, phrase) for phrase in PHRASES]
                               for schema in fresh],
                    range(16),
                    timeout=120,
                ))
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)
