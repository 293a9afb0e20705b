"""Tests for the inference engine layer (repro.llm.engine) and decoding.

The load-bearing property is bit-exactness: the prompt-prefix cache must
assemble byte-identical prompts with exact summed token counts (cold,
warm, and with caches disabled), and the model's one generation body
(``generate`` / ``generate_many`` / ``BoundSampler.many``) must produce
candidate streams identical to :func:`reference_generate` — the
straight-line per-draw generation kept here as an oracle — for every
profile, decoder and execution mode.
"""

from __future__ import annotations

import pytest

from repro.core.evaluator import Evaluator
from repro.core.parallel import ParallelEvaluator
from repro.llm.corruption import CorruptionContext, CorruptionSampler, error_rates
from repro.llm.decoding import (
    BeamDecoder,
    GreedyDecoder,
    PicardDecoder,
    SamplingDecoder,
    make_sampler,
)
from repro.llm.engine import (
    PromptPrefixCache,
    PromptSegment,
    clear_prefix_cache,
    prefix_cache,
)
from repro.llm.model import (
    _SYSTEMATIC_FRACTION,
    GenerationCandidate,
    SimulatedLanguageModel,
    _break_syntax,
)
from repro.llm.prompt import Prompt
from repro.llm.registry import MODEL_REGISTRY, get_profile
from repro.llm.styles import StyleChoices, sample_style
from repro.llm.tokens import count_tokens
from repro.methods.zoo import build_method
from repro.modules.base import PipelineConfig
from repro.modules.prompts import build_prompt
from repro.obs.trace import Tracer, get_tracer, tracing
from repro.schema.model import Column, ColumnType, DatabaseSchema, Table
from repro.serve import ServeConfig, ServingEngine, WorkloadSpec, build_workload
from repro.sqlkit.picard import PicardChecker
from repro.utils.cache import caches_disabled, caches_enabled
from repro.utils.rng import derive_rng

# Methods covering all four decode paths: greedy (DAILSQL), sampling
# (DAILSQL(SC) self-consistency), beam (BRIDGE v2), picard (T5-3B).
METHODS = ["DAILSQL", "DAILSQL(SC)", "BRIDGE v2", "T5-3B + PICARD"]

PROMPT_CONFIGS = [
    PipelineConfig(
        name="plain", backbone="gpt-4",
        prompting="similarity_fewshot", few_shot_k=3,
    ),
    PipelineConfig(
        name="linked", backbone="gpt-3.5-turbo", schema_linking="resdsql",
        db_content="bridge", prompting="manual_fewshot", few_shot_k=2,
        prompt_overhead_tokens=120,
    ),
    PipelineConfig(
        name="open", backbone="llama2-7b", db_content="codes",
        prompting="zero_shot",
    ),
]

# (draw, temperature) pairs exercising every decoder's draw pattern plus
# the repair engine's high-draw re-draws.
DRAWS = [(0, 0.0), (1, 0.15), (2, 0.15), (3, 0.5), (4, 0.5), (101, 0.0)]


def reference_generate(
    model: SimulatedLanguageModel,
    prompt: Prompt,
    database,
    temperature: float = 0.0,
    draw: int = 0,
    uses_natsql: bool = False,
    decomposed: bool = False,
    overdecompose: bool = False,
    style_divergence: float = 0.0,
) -> GenerationCandidate:
    """Oracle: one draw generated straight through, nothing shared.

    Every step is redone for the one draw — context, honest parse,
    systematic and stochastic corruption on one shared context, style,
    render — with no per-temperature or render memo.  The model's
    generation body must match it draw for draw.
    """
    schema = database.schema
    effective_schema = model._effective_schema(database, prompt)
    context = CorruptionContext(
        schema=effective_schema,
        database=database,
        profile=model.profile,
        features=prompt.features,
        finetune=model.finetune,
        domain=schema.domain,
        temperature=temperature,
        uses_natsql=uses_natsql,
        decomposed=decomposed,
        overdecompose=overdecompose,
    )
    question_key = model._question_key(prompt)
    systematic_rng = derive_rng(model.seed, "sys", *question_key)
    draw_rng = derive_rng(
        model.seed, "draw", *question_key, draw, round(temperature, 3)
    )

    if caches_enabled():
        intent_key = (prompt.db_id, prompt.question, prompt.features.schema_tables)
        hit, intent = model._intent_cache.lookup(intent_key)
        if hit:
            get_tracer().annotate_stage(memo_hits=1)
        else:
            intent = model._parse_intent(effective_schema, prompt.question)
            model._intent_cache.put(intent_key, intent)
    else:
        intent = model._parse_intent(effective_schema, prompt.question)

    if intent is None:
        sql = model._fallback_sql(prompt.question, effective_schema)
        tokens = count_tokens(sql)
        get_tracer().annotate_stage(llm_calls=1, output_tokens=tokens)
        return GenerationCandidate(
            sql=sql,
            output_tokens=tokens,
            parse_failed=True,
            errors=("parse_failure",),
            draw=draw,
        )

    rates = error_rates(context, intent)
    systematic_rates = {k: v * _SYSTEMATIC_FRACTION for k, v in rates.items()}
    stochastic_scale = (1.0 - _SYSTEMATIC_FRACTION) * (1.0 + 0.8 * temperature)
    stochastic_rates = {k: v * stochastic_scale for k, v in rates.items()}
    intent = CorruptionSampler(context, systematic_rng).apply(intent, systematic_rates)
    intent = CorruptionSampler(context, draw_rng).apply(intent, stochastic_rates)

    style = StyleChoices()
    if style_divergence > 0:
        style_rng = derive_rng(model.seed, "style", *question_key)
        style = sample_style(style_rng, style_divergence)
    sql = model._render(intent, schema, style, uses_natsql)
    if draw_rng.random() < rates["syntax_error"] * stochastic_scale * 1.8:
        sql = _break_syntax(sql, draw_rng)
        context.errors.append("syntax_error")

    tokens = count_tokens(sql)
    get_tracer().annotate_stage(llm_calls=1, output_tokens=tokens)
    return GenerationCandidate(
        sql=sql,
        output_tokens=tokens,
        parse_failed=False,
        errors=tuple(context.errors),
        intent=intent,
        draw=draw,
    )


def reference_generate_many(model, prompt, database, draws, **options):
    """Oracle for ``generate_many``: one :func:`reference_generate` per draw."""
    return [
        reference_generate(
            model, prompt, database, temperature=temperature, draw=draw, **options
        )
        for draw, temperature in draws
    ]


def oracle_sampler(model, prompt, database):
    """A plain-function sampler over the oracle (no ``many`` attribute)."""

    def sample(draw, temperature):
        return reference_generate(
            model, prompt, database, temperature=temperature, draw=draw
        )

    return sample


def build_dev_prompts(dataset, config, limit=8):
    train_pairs = [(e.question, e.gold_sql) for e in dataset.train_examples[:20]]
    return [
        (build_prompt(config, dataset.databases[e.db_id], e.question, train_pairs),
         dataset.databases[e.db_id])
        for e in dataset.dev_examples[:limit]
    ]


class TestPromptPrefixCache:
    def test_segment_hit_after_miss(self):
        cache = PromptPrefixCache()
        segment, hit = cache.segment("schema", ("db", 0), lambda: "CREATE\n\n")
        assert not hit
        assert segment == PromptSegment(text="CREATE\n\n", tokens=count_tokens("CREATE\n\n"))
        again, hit = cache.segment("schema", ("db", 0), lambda: "CREATE\n\n")
        assert hit
        assert again is segment
        stats = cache.stats()
        assert stats["schema"]["hits"] == 1
        assert stats["schema"]["misses"] == 1

    def test_caches_disabled_renders_fresh(self):
        cache = PromptPrefixCache()
        cache.segment("schema", ("db", 0), lambda: "A\n")
        with caches_disabled():
            segment, hit = cache.segment("schema", ("db", 0), lambda: "A\n")
            assert not hit
        assert segment.text == "A\n"

    def test_unknown_kind_rejected(self):
        cache = PromptPrefixCache()
        with pytest.raises(KeyError):
            cache.segment("nope", ("k",), lambda: "x")

    def test_build_prompt_byte_identical_cold_warm_disabled(self, small_dataset):
        clear_prefix_cache()
        cold = {}
        for config in PROMPT_CONFIGS:
            for prompt, _ in build_dev_prompts(small_dataset, config):
                cold[(config.name, prompt.question)] = prompt.text
        for config in PROMPT_CONFIGS:  # warm pass
            for prompt, _ in build_dev_prompts(small_dataset, config):
                assert prompt.text == cold[(config.name, prompt.question)]
        with caches_disabled():
            for config in PROMPT_CONFIGS:
                for prompt, _ in build_dev_prompts(small_dataset, config):
                    assert prompt.text == cold[(config.name, prompt.question)]

    def test_warm_pass_hits_every_segment(self, small_dataset):
        clear_prefix_cache()
        config = PROMPT_CONFIGS[1]
        build_dev_prompts(small_dataset, config)
        before = prefix_cache().stats()
        build_dev_prompts(small_dataset, config)
        after = prefix_cache().stats()
        for kind in ("overhead", "schema", "fewshot"):
            assert after[kind]["misses"] == before[kind]["misses"]
            assert after[kind]["hits"] > before[kind]["hits"]

    def test_prefix_counters_reach_spans(self, small_dataset):
        clear_prefix_cache()
        config = PROMPT_CONFIGS[0]
        example = small_dataset.dev_examples[0]
        database = small_dataset.databases[example.db_id]
        train_pairs = [(e.question, e.gold_sql) for e in small_dataset.train_examples]
        with tracing(Tracer()) as tracer:
            with tracer.example("m", example.example_id):
                build_prompt(config, database, example.question, train_pairs)
            with tracer.example("m", example.example_id):
                build_prompt(config, database, example.question, train_pairs)
        first, second = tracer.drain()
        assert sum(s.prefix_misses for s in first.stages) > 0
        assert sum(s.prefix_misses for s in second.stages) == 0
        assert sum(s.prefix_hits for s in second.stages) > 0


class TestPromptTokenCount:
    def test_primed_count_matches_full_scan(self, small_dataset):
        clear_prefix_cache()
        for config in PROMPT_CONFIGS:
            for prompt, _ in build_dev_prompts(small_dataset, config):
                assert "token_count" in prompt.__dict__  # primed, not scanned
                assert prompt.token_count == count_tokens(prompt.text)

    def test_primed_count_matches_with_caches_disabled(self, small_dataset):
        with caches_disabled():
            for prompt, _ in build_dev_prompts(small_dataset, PROMPT_CONFIGS[1]):
                assert prompt.token_count == count_tokens(prompt.text)

    def test_lazy_count_computed_once(self):
        prompt = Prompt(text="SELECT a FROM b", question="q", db_id="d")
        assert "token_count" not in prompt.__dict__
        assert prompt.token_count == count_tokens("SELECT a FROM b")
        assert "token_count" in prompt.__dict__

    def test_prime_seeds_cache(self):
        prompt = Prompt(text="SELECT a FROM b", question="q", db_id="d")
        prompt.prime_token_count(123)
        assert prompt.token_count == 123


class TestGenerateManyEquivalence:
    """``generate`` and ``generate_many`` match the per-draw oracle."""

    def assert_matches_oracle(self, model, prompt, database, **options):
        expected = reference_generate_many(model, prompt, database, DRAWS, **options)
        assert model.generate_many(prompt, database, DRAWS, **options) == expected
        assert [
            model.generate(prompt, database, temperature=t, draw=d, **options)
            for d, t in DRAWS
        ] == expected

    @pytest.mark.parametrize("profile_name", sorted(MODEL_REGISTRY))
    def test_batched_matches_sequential(self, small_dataset, profile_name):
        model = SimulatedLanguageModel(get_profile(profile_name), seed=42)
        for prompt, database in build_dev_prompts(
            small_dataset, PROMPT_CONFIGS[0], limit=4
        ):
            self.assert_matches_oracle(model, prompt, database)

    def test_batched_matches_sequential_with_options(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-3.5-turbo"), seed=7)
        for options in (
            dict(uses_natsql=True, decomposed=True, style_divergence=0.4),
            dict(overdecompose=True, style_divergence=0.9),
        ):
            for prompt, database in build_dev_prompts(
                small_dataset, PROMPT_CONFIGS[1]
            ):
                self.assert_matches_oracle(model, prompt, database, **options)

    def test_batched_matches_sequential_caches_off(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-4"), seed=42)
        with caches_disabled():
            for config in PROMPT_CONFIGS:
                for prompt, database in build_dev_prompts(
                    small_dataset, config, limit=4
                ):
                    self.assert_matches_oracle(
                        model, prompt, database, style_divergence=0.4
                    )

    def test_parse_failure_matches_fallback(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-4"), seed=42)
        (prompt, database), *_ = build_dev_prompts(small_dataset, PROMPT_CONFIGS[0])
        prompt = Prompt(
            text=prompt.text,
            question="Colorless green ideas sleep furiously",
            db_id=prompt.db_id,
        )
        candidates = model.generate_many(prompt, database, DRAWS)
        assert all(c.parse_failed for c in candidates)
        self.assert_matches_oracle(model, prompt, database)
        with caches_disabled():
            self.assert_matches_oracle(model, prompt, database)

    def test_trace_counters_match_oracle(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-4"), seed=42)
        (prompt, database), *_ = build_dev_prompts(small_dataset, PROMPT_CONFIGS[0])
        model.generate(prompt, database)  # warm the intent memo
        with tracing(Tracer()) as tracer:
            with tracer.example("m", "production"):
                with tracer.stage("decode"):
                    for d, t in DRAWS:
                        model.generate(prompt, database, temperature=t, draw=d)
            with tracer.example("m", "oracle"):
                with tracer.stage("decode"):
                    reference_generate_many(model, prompt, database, DRAWS)
        # drain() sorts by example id: "oracle" < "production".
        oracle, production = (span.stages[0] for span in tracer.drain())
        for counter in ("llm_calls", "output_tokens", "memo_hits"):
            assert getattr(production, counter) == getattr(oracle, counter)
        assert production.llm_calls == len(DRAWS)

    def test_empty_draw_list(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-4"))
        (prompt, database), *_ = build_dev_prompts(small_dataset, PROMPT_CONFIGS[0])
        assert model.generate_many(prompt, database, []) == []


class TestDecoderEquivalence:
    """Every decoder yields the same candidates from the bound sampler's
    many-draw path as from a plain-function sampler over the oracle."""

    @pytest.fixture()
    def samplers(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("t5-base"), seed=42)
        return [
            (
                make_sampler(model, prompt, database),
                oracle_sampler(model, prompt, database),
                database,
            )
            for prompt, database in build_dev_prompts(
                small_dataset, PROMPT_CONFIGS[0], limit=6
            )
        ]

    @pytest.mark.parametrize(
        "decoder",
        [GreedyDecoder(), BeamDecoder(width=4), SamplingDecoder(num_samples=5)],
        ids=["greedy", "beam", "sampling"],
    )
    def test_unconstrained_decoders(self, samplers, decoder, small_dataset):
        for sampler, oracle, _ in samplers:
            assert decoder.decode(sampler) == decoder.decode(oracle)

    def test_picard_decoder(self, samplers):
        for sampler, oracle, database in samplers:
            checker = PicardChecker(database.schema)
            decoder = PicardDecoder(width=4, max_attempts=10)
            assert decoder.decode(sampler, checker) == decoder.decode(oracle, checker)

    def test_plain_function_samplers_still_work(self, small_dataset):
        model = SimulatedLanguageModel(get_profile("gpt-4"), seed=42)
        (prompt, database), *_ = build_dev_prompts(small_dataset, PROMPT_CONFIGS[0])

        def sample(draw, temperature):
            return model.generate(prompt, database, temperature=temperature, draw=draw)

        bound = make_sampler(model, prompt, database)
        assert BeamDecoder(width=3).decode(sample) == BeamDecoder(width=3).decode(bound)


class TestPicardFallbackTokens:
    def test_fallback_bills_actual_token_count(self, small_dataset):
        # A checker over a schema with long identifiers rejects every toy
        # candidate, forcing the guaranteed-valid fallback; its billed
        # output tokens must be the real count of the fallback SQL, not a
        # hardcoded constant.
        long_schema = DatabaseSchema(
            db_id="terminal_ops",
            tables=[
                Table(
                    name="international_airport_terminal_gate_assignments",
                    columns=[
                        Column("assignment_identifier", ColumnType.INTEGER,
                               is_primary_key=True),
                        Column("gate_designation_code", ColumnType.TEXT),
                    ],
                )
            ],
            foreign_keys=[],
            domain="flights",
        )
        model = SimulatedLanguageModel(get_profile("gpt-4"), seed=42)
        (prompt, database), *_ = build_dev_prompts(small_dataset, PROMPT_CONFIGS[0])
        sampler = make_sampler(model, prompt, database)
        (candidate,) = PicardDecoder(width=2, max_attempts=3).decode(
            sampler, PicardChecker(long_schema)
        )
        assert candidate.errors == ("picard_fallback",)
        assert candidate.sql == (
            "SELECT * FROM international_airport_terminal_gate_assignments"
        )
        assert candidate.output_tokens == count_tokens(candidate.sql)
        assert candidate.output_tokens > 4  # the old hardcoded constant


class TestExecutionModeEquivalence:
    """Oracle, sequential, parallel, and served runs agree."""

    @pytest.fixture(scope="class")
    def sequential_reports(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        return evaluator.evaluate_zoo([build_method(m) for m in METHODS])

    @pytest.fixture(scope="class")
    def oracle_reports(self, small_dataset):
        # The whole pipeline with every model call generated per draw by
        # the oracle instead of the model's generation body.
        def generate(self, prompt, database, **options):
            return reference_generate(self, prompt, database, **options)

        def generate_many(self, prompt, database, draws, **options):
            return reference_generate_many(self, prompt, database, draws, **options)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SimulatedLanguageModel, "generate", generate)
            patch.setattr(SimulatedLanguageModel, "generate_many", generate_many)
            evaluator = Evaluator(small_dataset, measure_timing=False)
            return evaluator.evaluate_zoo([build_method(m) for m in METHODS])

    def test_oracle_generation_matches_records(
        self, sequential_reports, oracle_reports
    ):
        for name in METHODS:
            assert oracle_reports[name].records == sequential_reports[name].records

    def test_economy_identical_to_oracle(self, sequential_reports, oracle_reports):
        for name in METHODS:
            produced = sequential_reports[name].records
            oracle = oracle_reports[name].records
            assert sum(r.input_tokens for r in produced) == (
                sum(r.input_tokens for r in oracle)
            )
            assert sum(r.output_tokens for r in produced) == (
                sum(r.output_tokens for r in oracle)
            )
            assert sum(r.cost_usd for r in produced) == (
                sum(r.cost_usd for r in oracle)
            )

    def test_thread_pool_matches_sequential(self, small_dataset, sequential_reports):
        with ParallelEvaluator(
            small_dataset, measure_timing=False, jobs=3, executor="thread"
        ) as engine:
            reports = engine.evaluate_zoo([build_method(m) for m in METHODS])
        for name in METHODS:
            assert reports[name].records == sequential_reports[name].records

    def test_process_pool_matches_sequential(self, small_dataset, sequential_reports):
        with ParallelEvaluator(
            small_dataset, measure_timing=False, jobs=2, executor="process",
            min_process_work=1,
        ) as engine:
            reports = engine.evaluate_zoo([build_method(m) for m in METHODS])
        for name in METHODS:
            assert reports[name].records == sequential_reports[name].records

    def test_serving_matches_sequential(self, small_dataset, sequential_reports):
        method = "DAILSQL(SC)"
        expected = {
            r.example_id: r for r in sequential_reports[method].records
        }
        workload = build_workload(
            small_dataset,
            WorkloadSpec(
                requests=24, methods=(method,), distinct_examples=8,
                zipf_s=1.1, seed=7,
            ),
        )
        served = build_method(method, seed=0)
        served.prepare(small_dataset)
        config = ServeConfig(methods=(method,), workers=4, measure_timing=False)
        responses = {}
        with ServingEngine(
            small_dataset, config, methods={method: served}
        ) as engine:
            for response in engine.serve(list(workload)):
                assert response.ok, response.error
                responses[response.record.example_id] = response.record
        for example_id, record in responses.items():
            assert record == expected[example_id]
