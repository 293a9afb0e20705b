"""Parallel evaluation engine: worker pools, gold precompute, result cache.

Every artifact in the reproduction — the 20-method zoo tables, the
multi-angle figures, the NL2SQL360-AAS genetic search — funnels through
``Evaluator``'s per-example loop.  :class:`ParallelEvaluator` keeps that
loop's semantics (same :class:`EvaluationRecord` stream, in example
order) while removing the wall-clock bottlenecks:

1. **Worker pools.**  Examples are sharded in contiguous chunks across a
   :class:`~concurrent.futures.ProcessPoolExecutor`.  ``sqlite3``
   connections are not picklable, so each worker's initializer rebuilds
   the dataset deterministically from its :class:`BenchmarkConfig` (the
   build is seeded, so workers own byte-identical databases).  Small
   runs, or datasets without a build recipe, fall back to a thread pool
   over the live dataset (``Database`` connections are lock-guarded).
2. **Gold-execution precompute.**  Each distinct (db_id, gold_sql) pair
   is executed exactly once per dataset — in the coordinating process —
   and the timed result is shared with every method and every worker,
   instead of being re-executed per evaluator instance.
3. **Cross-run result cache.**  Finished records are persisted in the
   :class:`~repro.core.logs.ExperimentLogStore` under a stable
   fingerprint of (method config + seed, dataset identity, timing
   settings), so repeated evaluations — re-runs of the benchmark suite,
   repeated genotypes across AAS generations, even across process
   restarts — skip prediction and execution entirely.

Determinism: prediction randomness flows through keyed RNG streams
(:func:`repro.utils.rng.derive_rng`), which are independent of call
order, so sharding does not change results.  With ``measure_timing``
off, parallel output is bit-identical to the sequential evaluator's.
The hot-path memo layers (few-shot index, intent memo, PICARD verdict
memo, candidate-execution LRU — see ``repro.utils.cache``) are adopted
transparently: thread workers share the coordinator's process-level
memos, process workers rebuild them lazily via each method's
``prepare`` (the few-shot index registry is keyed by corpus content),
and every layer returns bit-identical values to the uncached path, so
sharding with caches on still reproduces the sequential record stream.

Observability: when the coordinator's ambient tracer is enabled, thread
workers trace through the shared (thread-safe) tracer directly, process
workers install their own tracer and ship finished spans back with each
record batch, and examples served by the result cache get synthetic
``cache_hit`` spans — so a parallel run drains the same deterministic
span stream as a sequential one (modulo timings).

Inputs/outputs: same as :class:`~repro.core.evaluator.Evaluator` —
datasets and methods in, :class:`MethodReport` streams out, plus
``stats`` counters and drained ``trace_spans``.

Thread/process safety: the coordinator object itself is single-threaded;
it owns the pools.  Worker-side state lives in the per-process
``_WORKER`` dict and never crosses back except as picklable records and
spans.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.evaluator import Evaluator, GoldCache, GoldForms, gold_key
from repro.core.logs import ExperimentLogStore
from repro.core.metrics import EvaluationRecord, MethodReport
from repro.core.taxonomy import classify_failure
from repro.datagen.benchmark import BenchmarkConfig, Dataset, Example, build_benchmark
from repro.methods.base import MethodGroup, NL2SQLMethod, PipelineMethod
from repro.modules.base import PipelineConfig
from repro.obs.registry import (
    MetricsRegistry,
    ingest_lru_deltas,
    ingest_pool_deltas,
    ingest_record,
    ingest_span,
)
from repro.dbengine.pool import pooling_enabled, set_pooling_enabled
from repro.utils.cache import caches_enabled, lru_cache_stats, set_caches_enabled
from repro.obs.trace import ExampleSpan, Tracer, get_tracer, set_tracer
from repro.utils.rng import stable_hash

# Below this many pending examples a process pool is not worth its
# worker-initialization cost (each worker rebuilds the dataset); use the
# thread fallback instead.
_PROCESS_MIN_WORK = 32


@dataclass(frozen=True)
class MethodSpec:
    """Picklable recipe that rebuilds a :class:`PipelineMethod` in a worker."""

    config: PipelineConfig
    group: MethodGroup
    seed: int

    @classmethod
    def from_method(cls, method: NL2SQLMethod) -> "MethodSpec | None":
        # Only exact PipelineMethods are safely reconstructible: subclasses
        # and hand-written methods may carry state a worker cannot rebuild.
        if type(method) is not PipelineMethod:
            return None
        return cls(config=method.config, group=method.group, seed=method.seed)

    def key(self) -> str:
        return f"{stable_hash(repr(self.config), self.group.value, self.seed):016x}"


@dataclass
class EvalStats:
    """Counters the engine accumulates across evaluate calls."""

    predictions: int = 0        # examples that ran a method's predict()
    cache_hits: int = 0         # examples served by the cross-run cache
    gold_executions: int = 0    # distinct gold queries executed (precompute)
    parallel_tasks: int = 0     # chunks dispatched to a pool
    fresh_by_method: dict[str, int] = field(default_factory=dict)


def result_fingerprint(
    method: NL2SQLMethod,
    dataset: Dataset,
    measure_timing: bool,
    timing_repeats: int,
) -> str:
    """Stable cache fingerprint for (method config, dataset, timing knobs).

    Timing settings are part of the key because they change record
    contents (``gold_seconds`` / ``predicted_seconds``).
    """
    config = getattr(method, "config", None)
    config_id = repr(config) if config is not None else f"adhoc:{method.name}"
    seed = getattr(method, "seed", 0)
    return (
        f"{stable_hash(config_id, seed, dataset.fingerprint(), measure_timing, timing_repeats):016x}"
    )


# -- worker side -------------------------------------------------------------

# Per-process state, populated by the pool initializer: the rebuilt
# dataset, an evaluator over it, an example index, and prepared methods
# keyed by MethodSpec.key() so repeated chunks skip re-preparation.
_WORKER: dict = {}


def _worker_init(
    benchmark_config: BenchmarkConfig,
    measure_timing: bool,
    timing_repeats: int,
    trace_enabled: bool = False,
    switches: dict | None = None,
) -> None:
    if switches is not None:
        # Explicit switch propagation: a spawn-context worker resets
        # these process globals to their defaults, so the coordinator's
        # choices must be re-applied (fork inherits them, harmlessly
        # re-applied).
        set_caches_enabled(bool(switches.get("caches", True)))
        set_pooling_enabled(bool(switches.get("pooling", True)))
    dataset = build_benchmark(benchmark_config)
    _WORKER["dataset"] = dataset
    _WORKER["evaluator"] = Evaluator(
        dataset, measure_timing=measure_timing, timing_repeats=timing_repeats
    )
    _WORKER["examples"] = {e.example_id: e for e in dataset.examples}
    _WORKER["methods"] = {}
    if trace_enabled:
        # Workers trace into their own ambient tracer; finished spans are
        # shipped back (pickled dataclasses) with each chunk's records.
        set_tracer(Tracer())


def _worker_evaluate(
    spec: MethodSpec,
    example_ids: list[str],
    gold_updates: GoldCache,
) -> tuple[list[EvaluationRecord], list[ExampleSpan]]:
    evaluator: Evaluator = _WORKER["evaluator"]
    # Coordinator-precomputed gold results: the worker never re-executes
    # gold SQL, so each distinct gold query runs exactly once per dataset.
    evaluator._gold_cache.update(gold_updates)
    methods: dict[str, PipelineMethod] = _WORKER["methods"]
    key = spec.key()
    if key not in methods:
        method = PipelineMethod(spec.config, spec.group, seed=spec.seed)
        method.prepare(_WORKER["dataset"])
        methods[key] = method
    method = methods[key]
    examples = [_WORKER["examples"][eid] for eid in example_ids]
    records = [evaluator.evaluate_example(method, example) for example in examples]
    return records, get_tracer().drain()


# -- coordinator side --------------------------------------------------------


class ParallelEvaluator:
    """Drop-in parallel replacement for :class:`Evaluator`.

    API-compatible with ``Evaluator.evaluate_method`` / ``evaluate_zoo``;
    results are identical to the sequential path (bit-identical when
    ``measure_timing`` is off — wall-clock timings are inherently
    run-dependent either way).

    Parameters beyond ``Evaluator``'s:

    * ``jobs`` — worker count (default: CPU count).  ``jobs <= 1`` keeps
      everything in-process but still gets the gold precompute and the
      result cache.
    * ``benchmark_config`` — build recipe for worker-side dataset
      rebuilds; defaults to ``dataset.config`` (set by
      :func:`build_benchmark`).
    * ``use_result_cache`` — persist/reuse finished records in the
      ``log_store`` (requires one).
    * ``executor`` — ``"auto"`` (process pool for large runs, threads for
      small ones), ``"process"``, or ``"thread"``.
    """

    def __init__(
        self,
        dataset: Dataset,
        log_store: ExperimentLogStore | None = None,
        timing_repeats: int = 1,
        measure_timing: bool = True,
        jobs: int | None = None,
        benchmark_config: BenchmarkConfig | None = None,
        use_result_cache: bool = True,
        executor: str = "auto",
        min_process_work: int = _PROCESS_MIN_WORK,
        chunk_size: int | None = None,
    ) -> None:
        if executor not in ("auto", "process", "thread"):
            raise ValueError(f"unknown executor kind {executor!r}")
        self.dataset = dataset
        self.log_store = log_store
        self.timing_repeats = timing_repeats
        self.measure_timing = measure_timing
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.benchmark_config = (
            benchmark_config
            if benchmark_config is not None
            else getattr(dataset, "config", None)
        )
        self.use_result_cache = use_result_cache and log_store is not None
        self.executor = executor
        self.min_process_work = min_process_work
        self.chunk_size = chunk_size
        self.stats = EvalStats()
        self.last_run_fresh = 0
        # Spans drained from the ambient tracer (workers included), one
        # batch per evaluate_method call; empty while tracing is disabled.
        self.trace_spans: list[ExampleSpan] = []
        self._feature_cache: dict[str, GoldForms] = {}
        self._gold_cache: GoldCache = {}
        # The local evaluator shares both caches with this engine; it owns
        # the gold precompute and the small-run / non-picklable fallback.
        # It never logs: the engine stores records itself, exactly once.
        self._local = Evaluator(
            dataset,
            log_store=None,
            timing_repeats=timing_repeats,
            measure_timing=measure_timing,
            gold_cache=self._gold_cache,
            feature_cache=self._feature_cache,
        )
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _process_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                # Tracing state is captured at pool creation: toggle the
                # ambient tracer before the first parallel evaluate call.
                initargs=(
                    self.benchmark_config,
                    self.measure_timing,
                    self.timing_repeats,
                    get_tracer().enabled,
                    {
                        "caches": caches_enabled(),
                        "pooling": pooling_enabled(),
                    },
                ),
            )
        return self._pool

    # -- planning -------------------------------------------------------

    def _pick_executor(self, spec: MethodSpec | None, pending: int, prepare: bool) -> str:
        """Choose local / thread / process for this batch of work."""
        if self.jobs <= 1 or pending <= 1:
            return "local"
        process_ok = (
            spec is not None and self.benchmark_config is not None and prepare
        )
        if self.executor == "process":
            return "process" if process_ok else "thread"
        if self.executor == "thread":
            return "thread"
        if process_ok and pending >= self.min_process_work:
            return "process"
        return "thread"

    def _chunks(self, examples: list[Example]) -> list[list[Example]]:
        size = self.chunk_size
        if size is None:
            # Aim for a few chunks per worker so stragglers rebalance.
            size = max(1, -(-len(examples) // (self.jobs * 4)))
        return [examples[i : i + size] for i in range(0, len(examples), size)]

    # -- evaluation -----------------------------------------------------

    def _evaluate_process(
        self, spec: MethodSpec, pending: list[Example]
    ) -> list[EvaluationRecord]:
        pool = self._process_pool()
        futures: list[Future] = []
        for chunk in self._chunks(pending):
            # Ship the chunk's precomputed gold results along with the
            # task: any worker can serve any chunk without re-execution.
            # Gold keys carry the coordinator's data_version, which the
            # worker's freshly-built dataset reproduces deterministically.
            gold_updates = {}
            for e in chunk:
                database = self.dataset.database(e.db_id)
                key = gold_key(e, database.data_version, database.backend_name)
                gold_updates[key] = self._gold_cache[key]
            ids = [e.example_id for e in chunk]
            futures.append(pool.submit(_worker_evaluate, spec, ids, gold_updates))
            self.stats.parallel_tasks += 1
        trace = get_tracer()
        records: list[EvaluationRecord] = []
        for future in futures:
            chunk_records, chunk_spans = future.result()
            records.extend(chunk_records)
            trace.add_spans(chunk_spans)
        return records

    def _evaluate_threads(
        self, method: NL2SQLMethod, pending: list[Example]
    ) -> list[EvaluationRecord]:
        def run_chunk(chunk: list[Example]) -> list[EvaluationRecord]:
            return [self._local.evaluate_example(method, e) for e in chunk]

        chunks = self._chunks(pending)
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            futures = [pool.submit(run_chunk, chunk) for chunk in chunks]
            self.stats.parallel_tasks += len(chunks)
            return [record for future in futures for record in future.result()]

    def evaluate_example(self, method: NL2SQLMethod, example: Example) -> EvaluationRecord:
        """Score one example in-process (same semantics as ``Evaluator``)."""
        return self._local.evaluate_example(method, example)

    def evaluate_method(
        self,
        method: NL2SQLMethod,
        examples: list[Example] | None = None,
        split: str = "dev",
        prepare: bool = True,
    ) -> MethodReport:
        """Evaluate ``method`` on ``examples`` (default: the dev split)."""
        examples = list(examples) if examples is not None else self.dataset.split(split)
        # Snapshot the process-cumulative LRU and read-path counters so
        # the collected metrics carry only this run's deltas (coordinator
        # process only; worker-process memos stay worker-local).
        lru_before = lru_cache_stats()
        pool_before = self._local.pool_totals()
        cached: dict[str, EvaluationRecord] = {}
        fingerprint: str | None = None
        if self.use_result_cache and MethodSpec.from_method(method) is not None:
            fingerprint = result_fingerprint(
                method, self.dataset, self.measure_timing, self.timing_repeats
            )
            cached = self.log_store.cached_records(fingerprint)

        pending = [e for e in examples if e.example_id not in cached]
        self.stats.cache_hits += len(examples) - len(pending)
        self.last_run_fresh = len(pending)
        self.stats.fresh_by_method[method.name] = len(pending)

        fresh: dict[str, EvaluationRecord] = {}
        fresh_gold = 0
        if pending:
            fresh_gold = self._local.precompute_gold(pending)
            self.stats.gold_executions += fresh_gold
            spec = MethodSpec.from_method(method)
            mode = self._pick_executor(spec, len(pending), prepare)
            if mode == "process":
                records = self._evaluate_process(spec, pending)
            else:
                if prepare:
                    method.prepare(self.dataset)
                if mode == "thread":
                    records = self._evaluate_threads(method, pending)
                else:
                    records = [
                        self._local.evaluate_example(method, e) for e in pending
                    ]
            self.stats.predictions += len(pending)
            fresh = {record.example_id: record for record in records}

        report = MethodReport(method=method.name)
        report.records = [
            cached[e.example_id] if e.example_id in cached else fresh[e.example_id]
            for e in examples
        ]
        spans, registry = self._collect_observability(
            method.name, report.records, cached, fresh_gold, lru_before, pool_before
        )
        if fingerprint is not None and fresh:
            self.log_store.store_cached_records(fingerprint, list(fresh.values()))
        if self.log_store is not None and report.records:
            run_id = self.log_store.store_records(self.dataset.name, report.records)
            if registry is not None:
                self.log_store.store_trace(run_id, spans)
                self.log_store.store_metrics(run_id, registry)
        return report

    def _collect_observability(
        self,
        method_name: str,
        records: list[EvaluationRecord],
        cached: dict[str, EvaluationRecord],
        fresh_gold: int,
        lru_before: dict[str, dict[str, int]] | None = None,
        pool_before: dict[str, int] | None = None,
    ) -> tuple[list[ExampleSpan], MetricsRegistry | None]:
        """Drain this method's spans (synthesizing cache-hit spans) and
        build its per-run metrics — mirror of the sequential evaluator's."""
        trace = get_tracer()
        if not trace.enabled:
            return [], None
        # Examples served by the cross-run cache never ran the pipeline,
        # so they get synthetic stage-less spans; the failure tag is
        # re-derived from the record's deterministic fields (corruption
        # tags are not persisted, so attribution is coarser here).
        synthetic = [
            ExampleSpan(
                method=record.method,
                example_id=record.example_id,
                cache_hit=True,
                input_tokens=record.input_tokens,
                output_tokens=record.output_tokens,
                cost_usd=record.cost_usd,
                failure=classify_failure(
                    ex=record.ex,
                    truncated=record.gold_truncated or record.predicted_truncated,
                ),
            )
            for record in records
            if record.example_id in cached
        ]
        trace.add_spans(synthetic)
        spans = trace.drain(method=method_name)
        self.trace_spans.extend(spans)
        registry = MetricsRegistry()
        registry.count(
            "gold_executions",
            value=fresh_gold,
            method=method_name,
            benchmark=self.dataset.name,
        )
        ingest_lru_deltas(registry, self.dataset.name, method_name, lru_before)
        ingest_pool_deltas(
            registry,
            self.dataset.name,
            method_name,
            pool_before,
            self._local.pool_totals(),
        )
        for record in records:
            ingest_record(
                registry,
                self.dataset.name,
                record,
                cache_hit=record.example_id in cached,
            )
        for span in spans:
            ingest_span(registry, self.dataset.name, span)
        trace.metrics.merge(registry)
        return spans, registry

    def evaluate_zoo(
        self,
        methods: list[NL2SQLMethod],
        examples: list[Example] | None = None,
        split: str = "dev",
    ) -> dict[str, MethodReport]:
        """Evaluate several methods; returns name -> report.

        The worker pool persists across methods, so each worker prepares a
        method at most once and the gold precompute is shared by all.
        """
        return {
            method.name: self.evaluate_method(method, examples=examples, split=split)
            for method in methods
        }
