"""What one benchmark child process runs: a cold evaluation pass or a serving run.

Each function builds its inputs from the seed, runs the program, checks
its outputs, and returns a JSON-ready dict of raw measurements that
``run.py`` aggregates.  Times are seconds.

Host speed.  On a shared host the speed of pure-Python code drifts by up
to half between stretches of seconds, also within one phase.  Each
measured phase therefore times a fixed probe loop at its start, at its
end and between its operations, and returns the probes with their
times; ``run.py`` scales each latency by ``NOMINAL_PROBE_S / median
probe`` over the probes taken near its start, and a phase's duration by
the median of all its probes.  Probe time between operations of a
single-threaded phase is excluded from its duration.  The serving phase
runs the program's threads, so the client probes inside it only while
the program is idle: no response outstanding and the next request not
due before the probe ends.  A probe that ran alongside the program would
slow down whenever the program used more CPU, and hide part of that
change.  The probe shares no code with the program, so a
change to the program moves normalized times as it moves raw ones.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import threading
from pathlib import Path
from time import perf_counter, process_time, sleep

import layers
import traffic

# The five BENCH_eval methods plus one PICARD method, so greedy, beam,
# sampling and PICARD decoding all run.
METHODS = (
    "C3SQL", "DAILSQL", "SFT CodeS-7B", "RESDSQL-3B", "SuperSQL", "Graphix-3B + PICARD",
)

SCALE = 0.3

# CPUs this process may use, taken before serve_run pins itself to one.
CPUS = len(os.sched_getaffinity(0))

# serve-reads serves this one dataset (and seeds its methods with it); the
# run seed draws the traffic and the reference pass's train keys.  With a
# dataset per seed, its content moved the reference pass's eval_eps and
# eval_p50_ms by 0.16 and 0.2 of their medians between seeds, against 0.08
# and 0.03 on eval-cold, which averages five datasets per run.
SERVE_DATASET_SEED = 0

# Open-loop traffic shape.  The rate keeps the serving process at about a
# fifth of a CPU on a slow 2-vCPU host: at higher rates requests waited
# behind misses for the interpreter lock, a wait that grows faster than the
# host's slowdown and that speed scaling cannot remove (see README.md).
# ZIPF_S is the skew of repro.serve.workload; the first-seen share and the
# hot-set size are assumed, not taken from a query log (no NL2SQL trace is
# at hand), and the log reports the cache-hit share they give.
RATE_RPS = 100.0
FRESH_SHARE = 0.15
HOT_KEYS = 240
ZIPF_S = 1.1

# Write probe, in a fresh process of its own: enough writes that p95 has at
# least ten beyond it, in chunks a quarter second apart so that one stretch
# of host noise does not set the whole probe.  Run after an evaluation pass
# in the same process, its figures spread twice as much between runs.
PROBE_WRITES = 1000
PROBE_CHUNKS = 4
PROBE_GAP_S = 0.25

RESPONSE_TIMEOUT_S = 60.0

# In the serving window: at most one speed probe per IDLE_PROBE_EVERY_S,
# taken only when nothing is outstanding and the next request is due at
# least IDLE_PROBE_ROOM_S later (a probe takes about 2.5 ms).
IDLE_PROBE_EVERY_S = 0.05
IDLE_PROBE_ROOM_S = 0.008

# Keys in a serving run's reference pass: the served keys, the rest of the
# dev split, then a seeded sample of the other train keys.  With the ~1700
# of the first two alone, its p99 moved by a quarter between runs.
REFERENCE_KEYS = 3600

PROBE_ITERATIONS = 20_000
# Examples (or writes) between two speed probes inside a phase.
CHECKPOINT_EVERY = 25


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now (best of two)."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        best = min(best, perf_counter() - start)
    return best


class Phase:
    """One measured phase: its duration less inner probes, and its probes."""

    def __init__(self, start: float | None = None) -> None:
        self.probes: list[tuple[float, float]] = []  # (time, probe seconds)
        self.inner_s = 0.0
        self.start = perf_counter() if start is None else start
        self.count = 0

    def probe(self, inner: bool = True) -> None:
        start = perf_counter()
        self.probes.append((start, speed_probe()))
        if inner:
            self.inner_s += perf_counter() - start

    def tick(self) -> None:
        """Probe every ``CHECKPOINT_EVERY`` calls."""
        self.count += 1
        if self.count % CHECKPOINT_EVERY == 0:
            self.probe()

    def finish(self) -> dict:
        end = perf_counter()
        self.probe(inner=False)
        return {
            "seconds": end - self.start - self.inner_s,
            "probe": statistics.median(probe for _, probe in self.probes),
            "probes": self.probes,
        }


def _begin() -> Phase:
    """A phase that starts right after a probe."""
    phase = Phase()
    phase.probe(inner=False)
    phase.start = perf_counter()
    return phase


def _spec(seconds: float) -> traffic.TrafficSpec:
    return traffic.TrafficSpec(
        rate_rps=RATE_RPS, seconds=seconds, fresh_share=FRESH_SHARE,
        hot_keys=HOT_KEYS, zipf_s=ZIPF_S,
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record_json(record) -> str:
    return json.dumps(dataclasses.asdict(record), sort_keys=True, default=str)


def _snapshot(dataset) -> dict:
    """Public counter accessors, read before and after the measured phase."""
    from repro.llm.engine import prefix_cache
    from repro.utils.cache import lru_cache_stats

    pool = {"checkouts": 0, "refreshes": 0, "waits": 0}
    for database in dataset.databases.values():
        for name, value in database.pool_stats().items():
            if name in pool:
                pool[name] += value
    prefix = prefix_cache().stats()
    memo = lru_cache_stats().get("candidate_exec", {})
    return {
        "pool": pool,
        "prefix_hits": sum(kind["hits"] for kind in prefix.values()),
        "prefix_misses": sum(kind["misses"] for kind in prefix.values()),
        "memo_hits": memo.get("hits", 0),
        "memo_misses": memo.get("misses", 0),
    }


def _delta(before: dict, after: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(before[key], value)
        else:
            out[key] = value - before[key]
    return out


def _trace_result(tracer: layers.Tracer, spans_path: Path) -> dict:
    return {"layers": tracer.totals(), "counters": tracer.counters(),
            "spans": tracer.write_spans(spans_path)}


def apply_write(dataset, write: traffic.Write) -> bool:
    """Apply one write and read the row back through the read path.

    A write's latency runs until a reader sees it, so it includes the
    replica refresh that the version bump forces on the next read.
    """
    from repro.dbengine.executor import execute_sql
    from repro.errors import ExecutionError

    database = dataset.database(write.db_id)
    try:
        database.apply_write(write.sql, write.params)
    except ExecutionError:
        return False
    result = execute_sql(database, write.read_sql)
    return result.ok and len(result.rows) == 1


def write_probe(seed: int, index: int, scale: float) -> dict:
    """Time ``PROBE_WRITES`` writes into a freshly built dataset.

    Each distinct statement is applied once untimed first (a table's first
    write costs several times more), and each write's latency is the median
    of three back-to-back applications: single sub-millisecond timings on
    the shared host moved the probe's p95 by a fifth between repeats.
    """
    from repro.datagen.benchmark import build_benchmark, spider_like_config

    ds_seed = traffic.dataset_seed(seed, index)
    dataset = build_benchmark(spider_like_config(scale=scale, seed=ds_seed))
    probe = traffic.writes(dataset, ds_seed, PROBE_WRITES)
    latencies, failed = [], 0
    warmed = set()
    phase = _begin()
    for number, write in enumerate(probe):
        if number and number % (PROBE_WRITES // PROBE_CHUNKS) == 0:
            sleep(PROBE_GAP_S)
        if (write.db_id, write.sql) not in warmed:
            warmed.add((write.db_id, write.sql))
            failed += int(not apply_write(dataset, write))
        started = perf_counter()
        timings = []
        for _ in range(3):
            start = perf_counter()
            if apply_write(dataset, write):
                timings.append(perf_counter() - start)
            else:
                failed += 1
        if timings:
            latencies.append((started, statistics.median(timings)))
        phase.tick()
    phases = {"writes": phase.finish()}
    dataset.close()
    return {"phases": phases, "write_latencies": latencies, "write_failed": failed}


# -- eval-cold ----------------------------------------------------------------


def eval_pass(seed: int, index: int, trace: bool, spawned_at: float,
              scale: float, spans_path: Path | None) -> dict:
    """One sequential Evaluator pass in this (fresh) process."""
    setup = Phase(spawned_at)
    setup.probe()
    from repro.core.evaluator import Evaluator
    from repro.datagen.benchmark import build_benchmark, spider_like_config
    from repro.dbengine.executor import execute_sql, results_match
    from repro.methods.zoo import build_method
    from repro.sqlkit.features import extract_features

    ds_seed = traffic.dataset_seed(seed, index)
    dataset = build_benchmark(spider_like_config(scale=scale, seed=ds_seed))
    setup.probe()
    methods = [build_method(name, seed=ds_seed) for name in METHODS]
    for method in methods:
        method.prepare(dataset)
        setup.probe()
    evaluator = Evaluator(dataset, measure_timing=False)
    phases = {"setup": setup.finish()}

    tracer = installed = None
    if trace:
        tracer = layers.Tracer()
        installed = layers.install(tracer)
    latencies: list[tuple[float, float]] = []  # (start, seconds)
    evaluate_example = evaluator.evaluate_example
    before = _snapshot(dataset)
    measure = _begin()

    def timed(method, example):
        start = perf_counter()
        record = evaluate_example(method, example)
        latencies.append((start, perf_counter() - start))
        measure.tick()
        return record

    evaluator.evaluate_example = timed
    cpu_start = process_time()
    records = []
    for method in methods:
        records.extend(evaluator.evaluate_method(method, prepare=False).records)
    cpu_s = process_time() - cpu_start
    phases["measure"] = measure.finish()
    counters = _delta(before, _snapshot(dataset))
    if installed is not None:
        installed.restore()

    # Re-derive EX for every record by executing gold and predicted SQL.
    examples = {e.example_id: e for e in dataset.dev_examples}
    ex_mismatches = 0
    for record in records:
        example = examples[record.example_id]
        database = dataset.database(example.db_id)
        ex = results_match(
            execute_sql(database, record.predicted_sql),
            execute_sql(database, example.gold_sql),
            order_matters=extract_features(example.gold_sql).has_order_by,
        )
        ex_mismatches += int(ex != record.ex)
    digest = hashlib.sha256(
        "\n".join(_record_json(r) for r in records).encode()
    ).hexdigest()

    result = {
        "phases": phases,
        "examples": len(records),
        "cpu_s": cpu_s,
        "latencies": latencies,
        "ex_mismatches": ex_mismatches,
        "digest": digest,
        "counters": counters,
        "rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["trace"] = _trace_result(tracer, spans_path)
    dataset.close()
    return result


# -- serve-reads --------------------------------------------------------------


def _build_engine(scale: float, spawned_at: float):
    setup = Phase(spawned_at)
    setup.probe()
    from repro.datagen.benchmark import build_benchmark, spider_like_config
    from repro.serve.engine import ServeConfig, ServingEngine

    dataset = build_benchmark(spider_like_config(scale=scale, seed=SERVE_DATASET_SEED))
    setup.probe()
    config = ServeConfig(
        methods=METHODS,
        workers=CPUS,
        response_cache=True,
        seed=SERVE_DATASET_SEED,
    )
    engine = ServingEngine(dataset, config).start()
    return dataset, engine, setup.finish()


def serve_setup(spawned_at: float, scale: float) -> dict:
    """Set-up only: dataset build, method prepare and engine warm start."""
    dataset, engine, setup = _build_engine(scale, spawned_at)
    engine.close()
    dataset.close()
    return {"phases": {"setup": setup}, "rss_mb": _peak_rss_mb()}


class _Responses:
    """Folds each response into flat lists as soon as it resolves.

    Latency runs on this client's own clock, from the request's scheduled
    send time until the client sees the response: right after ``submit``
    returns for a request answered inside it (a cache hit), otherwise when
    a waiter thread of its own wakes on the resolved future.

    The client shares the serving process, so it keeps no futures or
    responses once resolved: holding thousands of them would lengthen the
    program's garbage-collection pauses, which set the serving tail.  Per
    key it keeps the first record; every later response for the key must
    equal it.
    """

    def __init__(self) -> None:
        # (scheduled send time, latency, answered from the cache)
        self.timed: list[tuple[float, float, bool]] = []
        self.queue_waits: list[float] = []
        self.services: list[float] = []
        self.statuses: dict[str, int] = {}
        self.cached = 0
        self.failed = 0
        self.records: dict[tuple, object] = {}
        self._lock = threading.Condition()
        self._waiting = 0

    def track(self, future, due: float | None) -> None:
        """Record ``future``'s response, timed from ``due`` unless that is None."""
        if future.done():
            self._add(future.response(), due, perf_counter())
            return
        with self._lock:
            self._waiting += 1
        threading.Thread(target=self._wait, args=(future, due), daemon=True).start()

    def _wait(self, future, due: float | None) -> None:
        from repro.errors import ServeTimeout

        try:
            response = future.response(timeout=RESPONSE_TIMEOUT_S)
            resolved_at = perf_counter()
        except ServeTimeout:
            response = resolved_at = None
        self._add(response, due, resolved_at)
        with self._lock:
            self._waiting -= 1
            self._lock.notify_all()

    def idle(self) -> bool:
        return self._waiting == 0

    def drain(self) -> None:
        """Wait until every tracked response has been recorded."""
        with self._lock:
            self._lock.wait_for(lambda: self._waiting == 0)

    def _add(self, response, due: float | None, resolved_at: float | None) -> None:
        with self._lock:
            if response is None:
                self.statuses["unresolved"] = self.statuses.get("unresolved", 0) + 1
                self.failed += 1
                return
            status = response.status.value
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if not response.ok:
                self.failed += 1
            else:
                first = self.records.setdefault(response.request.key, response.record)
                if response.record is not first and response.record != first:
                    self.failed += 1
            if due is None:
                return
            self.timed.append((due, resolved_at - due, response.cached))
            if response.cached:
                self.cached += 1
                return
            if response.ok and not response.coalesced:
                self.queue_waits.append(response.queue_wait_s)
                self.services.append(response.service_s)


def _drive(engine, reads, responses: _Responses, phase: Phase) -> float:
    """Open loop: send each read at its scheduled time; returns the largest lag.

    Between sends, while the program is idle, probes the host speed into
    ``phase``.
    """
    from repro.serve.engine import ServeRequest

    start_at = perf_counter() + 0.05
    next_probe = start_at
    lag_max = 0.0
    for read in reads:
        due = start_at + read.at
        now = perf_counter()
        if now >= next_probe and due - now >= IDLE_PROBE_ROOM_S and responses.idle():
            phase.probe(inner=False)
            next_probe = now + IDLE_PROBE_EVERY_S
        delay = due - perf_counter()
        if delay > 0:
            sleep(delay)
        lag_max = max(lag_max, perf_counter() - due)
        responses.track(engine.submit(ServeRequest(*read.key)), due)
    responses.drain()
    return lag_max


def _fill_cache(engine, dataset, spec: traffic.TrafficSpec, seed: int,
                responses: _Responses) -> int:
    """Request every hot key once, so the measured traffic starts in steady state.

    Without this the first second of a run is a backlog of first touches of
    the hot set, and its length, not the program, sets the tail.
    """
    from repro.serve.engine import ServeRequest

    keys = traffic.hot_keys(dataset, METHODS, spec, seed)
    for key in keys:
        responses.track(engine.submit(ServeRequest(*key)), None)
    responses.drain()
    return len(keys)


def serve_run(seed: int, seconds: float, trace: bool, spawned_at: float,
              scale: float, spans_path: Path | None, served_path: Path) -> dict:
    """One open-loop serving run; writes the served records to ``served_path``.

    The process runs on one CPU, so the client's speed probes run where
    the program's threads run: spread over two vCPUs, the program's misses
    took up to twice as long in some runs while the probes saw no slowdown.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    dataset, engine, setup = _build_engine(scale, spawned_at)
    phases = {"setup": setup}

    spec = _spec(seconds)
    reads = traffic.reads(dataset, METHODS, spec, seed)
    responses = _Responses()
    filled = _fill_cache(engine, dataset, spec, seed, responses)
    gc.collect()

    tracer = installed = None
    if trace:
        tracer = layers.Tracer()
        installed = layers.install(tracer)
    stats_before = engine.stats.as_dict()
    before = _snapshot(dataset)
    measure = _begin()
    cpu_start = process_time()
    gen_lag_max = _drive(engine, reads, responses, measure)
    cpu_s = process_time() - cpu_start
    phases["measure"] = measure.finish()
    counters = _delta(before, _snapshot(dataset))
    stats = _delta(stats_before, engine.stats.as_dict())
    engine.close()
    if installed is not None:
        installed.restore()

    # Sorted: responses resolve, and are recorded, in no fixed order.
    keys = sorted(responses.records)
    served = {"keys": keys, "records": [_record_json(responses.records[k]) for k in keys]}
    served_path.write_text(json.dumps(served), encoding="utf-8")
    result = {
        "phases": phases,
        "reads": len(reads),
        "fill_reads": filled,
        "fresh_reads": sum(1 for r in reads if r.fresh),
        "not_ok": responses.failed,
        "statuses": responses.statuses,
        "cached": responses.cached,
        "timed": responses.timed,
        "queue_waits": responses.queue_waits,
        "services": responses.services,
        "gen_lag_max": gen_lag_max,
        "cpu_s": cpu_s,
        "stats": stats,
        "counters": counters,
        "digest": hashlib.sha256(served_path.read_bytes()).hexdigest(),
        "rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["trace"] = _trace_result(tracer, spans_path)
    dataset.close()
    return result


def reference_pass(seed: int, spawned_at: float, scale: float, served_path: Path) -> dict:
    """The offline check of a serving run, in a fresh process.

    A sequential ``Evaluator`` with fresh method instances evaluates every
    served key, whose record must equal the served one (the engine's
    contract), then the other dev keys and train keys up to
    ``REFERENCE_KEYS``.
    """
    setup = Phase(spawned_at)
    setup.probe()
    from repro.core.evaluator import Evaluator
    from repro.datagen.benchmark import build_benchmark, spider_like_config
    from repro.methods.zoo import build_method
    from repro.serve.engine import question_index
    from repro.utils.text import normalize_question

    dataset = build_benchmark(spider_like_config(scale=scale, seed=SERVE_DATASET_SEED))
    methods = {name: build_method(name, seed=SERVE_DATASET_SEED) for name in METHODS}
    for method in methods.values():
        method.prepare(dataset)
    evaluator = Evaluator(dataset, measure_timing=False)
    index = question_index(dataset)
    served = json.loads(served_path.read_text(encoding="utf-8"))
    phases = {"setup": setup.finish()}

    expected = {tuple(key): record for key, record in zip(served["keys"], served["records"])}
    keys = list(expected)
    train = traffic.keys_of(dataset.train_examples, METHODS)
    traffic.rng_for(seed, "reference").shuffle(train)
    for method, db_id, question in traffic.keys_of(dataset.dev_examples, METHODS) + train:
        key = (method, db_id, normalize_question(question))
        if key not in expected and len(keys) < REFERENCE_KEYS:
            expected[key] = None
            keys.append(key)
    examples = [index[(db_id, question)] for _, db_id, question in keys]
    latencies = []
    mismatches = 0
    reference = _begin()
    evaluator.precompute_gold(examples)
    for key, example in zip(keys, examples):
        start = perf_counter()
        record = evaluator.evaluate_example(methods[key[0]], example)
        latencies.append((start, perf_counter() - start))
        if expected[key] is not None:
            mismatches += int(_record_json(record) != expected[key])
        reference.tick()
    phases["reference"] = reference.finish()
    result = {"phases": phases, "examples": len(examples), "checked": len(served["keys"]),
              "latencies": latencies, "mismatches": mismatches, "rss_mb": _peak_rss_mb()}
    dataset.close()
    return result
