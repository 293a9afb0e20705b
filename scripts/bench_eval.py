#!/usr/bin/env python
"""Benchmark the evaluation engine: sequential vs parallel vs warm cache.

Times a multi-method zoo evaluation and writes ``BENCH_eval.json`` so the
perf trajectory can be tracked across PRs:

1. **warm-up** — one untimed sequential pass that populates every
   process-level cache (DB value caches, the few-shot index registry,
   PICARD verdict and candidate-execution memos), so the timed passes
   below measure steady state rather than cache state.
2. **uncached reference** — one traced sequential pass under
   ``caches_disabled()``: the per-stage "before" column of the hot-path
   cache comparison, and the baseline for the cache-equivalence check.
3. **sequential / sequential traced** — ``--repeats`` alternating
   untraced/traced passes; the reported numbers are the medians, so
   ``overhead_pct`` measures tracing, not pass order.  The per-stage
   rows (seconds, shares, cache speedups) are likewise per-stage
   medians across the traced passes, so a single noisy pass on a loaded
   host cannot skew the stage gates.
4. **parallel (cold)** — :class:`ParallelEvaluator` with a fresh result
   cache: worker pool + one-pass gold precompute.
5. **parallel (warm)** — a second engine over the same log store: every
   record is served from the persistent cross-run result cache.

The ``tracing`` section carries the per-stage breakdown of the traced
pass (cached) and the uncached reference, per-stage cache speedups, and
the hot-path memo-hit counters (schema documented in
docs/OBSERVABILITY.md).

Also verifies that parallel records are identical to sequential ones and
that the memo layers are bit-identical on vs off (the engine's core
contracts).

Usage::

    PYTHONPATH=src python scripts/bench_eval.py            # full run
    PYTHONPATH=src python scripts/bench_eval.py --quick    # tier-2 smoke:
        # asserts warm-cache is not slower than sequential, the warm run
        # performs zero predictions, caches are bit-identical on vs off,
        # and the fewshot stage share stays below 10%; exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.evaluator import Evaluator  # noqa: E402
from repro.core.logs import ExperimentLogStore  # noqa: E402
from repro.core.parallel import ParallelEvaluator  # noqa: E402
from repro.datagen.benchmark import build_benchmark, spider_like_config  # noqa: E402
from repro.methods.zoo import build_method  # noqa: E402
from repro.obs import stage_breakdown, tracing  # noqa: E402
from repro.utils.cache import caches_disabled  # noqa: E402

DEFAULT_METHODS = ["C3SQL", "DAILSQL", "SFT CodeS-7B", "RESDSQL-3B", "SuperSQL"]

FEWSHOT_SHARE_BOUND_PCT = 10.0


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _median_stage_rows(rows_per_pass: list[dict]) -> dict:
    """Per-stage medians of ``stage_breakdown`` rows across traced passes.

    Wall-clock per-stage seconds at small scale are scheduler-noise
    sensitive; the median across the alternating traced passes is what
    the shares and cache speedups are derived from.  Memo-hit counters
    are deterministic per pass, so their median equals any pass's value.
    """
    stages: list[str] = []
    for rows in rows_per_pass:
        for stage in rows:
            if stage not in stages:
                stages.append(stage)
    counters = ("memo_hits", "prefix_hits", "prefix_misses")
    merged: dict[str, dict] = {}
    for stage in stages:
        merged[stage] = {
            "seconds": statistics.median(
                rows.get(stage, {}).get("seconds", 0.0) for rows in rows_per_pass
            ),
        }
        for counter in counters:
            merged[stage][counter] = int(statistics.median(
                rows.get(stage, {}).get(counter, 0) for rows in rows_per_pass
            ))
    total = sum(row["seconds"] for row in merged.values())
    for row in merged.values():
        row["share_pct"] = 100.0 * row["seconds"] / total if total else 0.0
    return merged


def _records_equal(reports_a: dict, reports_b: dict, methods: list[str],
                   timing: bool) -> bool:
    """Bit-identical with timing off; EX-stream equality with timing on."""
    if timing:
        return all(
            [r.ex for r in reports_a[m].records]
            == [r.ex for r in reports_b[m].records]
            for m in methods
        )
    return all(reports_a[m].records == reports_b[m].records for m in methods)


def run_bench(args: argparse.Namespace) -> dict:
    dataset = build_benchmark(spider_like_config(scale=args.scale, seed=args.seed))
    methods = args.methods
    examples = dataset.dev_examples
    print(
        f"dataset: {dataset.name} scale={args.scale}"
        f" ({len(examples)} dev examples, {len(methods)} methods,"
        f" jobs={args.jobs}, repeats={args.repeats})",
        file=sys.stderr,
    )

    def sequential():
        evaluator = Evaluator(dataset, measure_timing=args.timing)
        return evaluator.evaluate_zoo([build_method(m, seed=args.seed) for m in methods])

    def sequential_traced():
        evaluator = Evaluator(dataset, measure_timing=args.timing)
        with tracing():
            reports = evaluator.evaluate_zoo(
                [build_method(m, seed=args.seed) for m in methods]
            )
        return reports, evaluator.trace_spans

    # 1. Warm-up: populate process-level caches so the timed passes below
    # all see the same steady state (this was the source of the old
    # negative "tracing overhead": the traced pass ran second and
    # inherited warm caches).
    warmup_seconds, _ = _timed(sequential)
    print(f"warm-up           : {warmup_seconds:8.3f}s (untimed)", file=sys.stderr)

    # 2. Uncached reference: the hot-path memo layers bypassed.
    def sequential_uncached():
        with caches_disabled():
            return sequential_traced()

    uncached_seconds, (uncached_reports, uncached_spans) = _timed(sequential_uncached)
    print(f"uncached (traced) : {uncached_seconds:8.3f}s", file=sys.stderr)
    uncached_rows = stage_breakdown(uncached_spans)

    # 3. Alternating timed passes; medians kill residual ordering effects.
    seq_times: list[float] = []
    traced_times: list[float] = []
    seq_reports = None
    trace_spans = None
    traced_stage_rows: list[dict] = []
    for rep in range(args.repeats):
        seconds, seq_reports = _timed(sequential)
        seq_times.append(seconds)
        seconds, (traced_reports, trace_spans) = _timed(sequential_traced)
        traced_times.append(seconds)
        traced_stage_rows.append(stage_breakdown(trace_spans))
        print(
            f"pass {rep + 1}/{args.repeats}        : "
            f"untraced {seq_times[-1]:.3f}s · traced {traced_times[-1]:.3f}s",
            file=sys.stderr,
        )
    seq_seconds = statistics.median(seq_times)
    traced_seconds = statistics.median(traced_times)
    trace_overhead_pct = 100.0 * (traced_seconds - seq_seconds) / max(seq_seconds, 1e-9)
    print(
        f"sequential        : {seq_seconds:8.3f}s (median of {args.repeats})",
        file=sys.stderr,
    )
    print(
        f"sequential traced : {traced_seconds:8.3f}s"
        f" (overhead {trace_overhead_pct:+.1f}%)",
        file=sys.stderr,
    )
    stage_rows = _median_stage_rows(traced_stage_rows)

    # Per-stage before/after: cache layers off vs on.
    cache_speedup = {}
    for stage, row in uncached_rows.items():
        after = stage_rows.get(stage, {}).get("seconds", 0.0)
        cache_speedup[stage] = round(row["seconds"] / max(after, 1e-9), 2)
    print("stage            uncached    cached   speedup", file=sys.stderr)
    for stage, row in uncached_rows.items():
        after = stage_rows.get(stage, {}).get("seconds", 0.0)
        print(
            f"  {stage:<15}{row['seconds']:8.4f}s {after:8.4f}s"
            f" {cache_speedup[stage]:8.2f}x",
            file=sys.stderr,
        )

    with tempfile.TemporaryDirectory() as tmp:
        cache_db = str(Path(tmp) / "bench_cache.db")

        def parallel_cold():
            with ExperimentLogStore(cache_db) as store:
                with ParallelEvaluator(
                    dataset, log_store=store, measure_timing=args.timing,
                    jobs=args.jobs,
                ) as engine:
                    reports = engine.evaluate_zoo(
                        [build_method(m, seed=args.seed) for m in methods]
                    )
                    return reports, engine.stats

        cold_seconds, (cold_reports, cold_stats) = _timed(parallel_cold)
        print(f"parallel (cold)   : {cold_seconds:8.3f}s", file=sys.stderr)

        def parallel_warm():
            with ExperimentLogStore(cache_db) as store:
                with ParallelEvaluator(
                    dataset, log_store=store, measure_timing=args.timing,
                    jobs=args.jobs,
                ) as engine:
                    reports = engine.evaluate_zoo(
                        [build_method(m, seed=args.seed) for m in methods]
                    )
                    return reports, engine.stats

        warm_seconds, (warm_reports, warm_stats) = _timed(parallel_warm)
        print(f"parallel (warm)   : {warm_seconds:8.3f}s", file=sys.stderr)

    # Core contracts: sequential == parallel (cold and warm), and the
    # memo layers change nothing (uncached == cached sequential).
    identical = _records_equal(seq_reports, cold_reports, methods, args.timing)
    if not args.timing:
        identical = identical and _records_equal(
            seq_reports, warm_reports, methods, args.timing
        )
    cache_identical = _records_equal(
        uncached_reports, seq_reports, methods, args.timing
    )
    dataset.close()

    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "cpu_count": os.cpu_count(),
        "jobs": args.jobs,
        "scale": args.scale,
        "seed": args.seed,
        "repeats": args.repeats,
        "measure_timing": args.timing,
        "methods": methods,
        "dev_examples": len(examples),
        "seconds": {
            "warmup": round(warmup_seconds, 4),
            "sequential_uncached": round(uncached_seconds, 4),
            "sequential": round(seq_seconds, 4),
            "sequential_traced": round(traced_seconds, 4),
            "parallel_cold": round(cold_seconds, 4),
            "parallel_warm": round(warm_seconds, 4),
        },
        "tracing": {
            "overhead_pct": round(trace_overhead_pct, 2),
            "spans": len(trace_spans),
            "stage_seconds": {
                stage: round(row["seconds"], 4) for stage, row in stage_rows.items()
            },
            "stage_share_pct": {
                stage: round(row["share_pct"], 2) for stage, row in stage_rows.items()
            },
            "stage_memo_hits": {
                stage: int(row["memo_hits"]) for stage, row in stage_rows.items()
            },
            "prefix_hits": sum(row["prefix_hits"] for row in stage_rows.values()),
            "prefix_misses": sum(
                row["prefix_misses"] for row in stage_rows.values()
            ),
            "stage_seconds_uncached": {
                stage: round(row["seconds"], 4)
                for stage, row in uncached_rows.items()
            },
            "stage_share_pct_uncached": {
                stage: round(row["share_pct"], 2)
                for stage, row in uncached_rows.items()
            },
            "cache_stage_speedup": cache_speedup,
        },
        "speedup": {
            "parallel_cold": round(seq_seconds / max(cold_seconds, 1e-9), 3),
            "parallel_warm": round(seq_seconds / max(warm_seconds, 1e-9), 3),
            "hot_path_caches": round(
                uncached_seconds / max(traced_seconds, 1e-9), 3
            ),
        },
        "records_identical": identical,
        "cache_records_identical": cache_identical,
        "cold_stats": {
            "predictions": cold_stats.predictions,
            "cache_hits": cold_stats.cache_hits,
            "gold_executions": cold_stats.gold_executions,
            "parallel_tasks": cold_stats.parallel_tasks,
        },
        "warm_stats": {
            "predictions": warm_stats.predictions,
            "cache_hits": warm_stats.cache_hits,
            "gold_executions": warm_stats.gold_executions,
            "parallel_tasks": warm_stats.parallel_tasks,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="alternating untraced/traced timed passes;"
                             " medians are reported")
    parser.add_argument("--methods", nargs="+", default=DEFAULT_METHODS)
    parser.add_argument("--timing", action="store_true",
                        help="measure VES timings (off by default so runs"
                             " are comparable bit-for-bit)")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_eval.json"))
    parser.add_argument("--quick", action="store_true",
                        help="tier-2 smoke: small dataset, assert warm-cache"
                             " is not slower than sequential and the stage"
                             " perf gates hold")
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 0.12)
        args.methods = args.methods[:3]
        args.repeats = min(args.repeats, 2)

    result = run_bench(args)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    print(json.dumps(result["seconds"], indent=2))

    if not result["records_identical"]:
        print("FAIL: parallel records differ from sequential", file=sys.stderr)
        return 1
    if not result["cache_records_identical"]:
        print("FAIL: records differ with hot-path caches on vs off",
              file=sys.stderr)
        return 1
    if args.quick:
        if result["warm_stats"]["predictions"] != 0:
            print("FAIL: warm-cache run performed predictions", file=sys.stderr)
            return 1
        # Allow a little scheduler slack; a warm cache that only reads
        # SQLite rows should beat a full evaluation comfortably anyway.
        if result["seconds"]["parallel_warm"] > result["seconds"]["sequential"] * 1.10:
            print("FAIL: parallel+warm-cache slower than sequential", file=sys.stderr)
            return 1
        # The acceptance bar is <= 5% tracing overhead; the smoke gate is
        # looser because tiny --quick runs are dominated by timer noise.
        if result["tracing"]["overhead_pct"] > 25.0:
            print("FAIL: tracing overhead "
                  f"{result['tracing']['overhead_pct']:.1f}% exceeds smoke bound",
                  file=sys.stderr)
            return 1
        # Stage-level perf gate: with the retrieval index + selection memo
        # the fewshot stage must stay a single-digit share of stage time
        # (shares come from per-stage medians across the traced passes).
        fewshot_share = result["tracing"]["stage_share_pct"].get("fewshot", 0.0)
        if fewshot_share >= FEWSHOT_SHARE_BOUND_PCT:
            print(f"FAIL: fewshot stage share {fewshot_share:.1f}% >="
                  f" {FEWSHOT_SHARE_BOUND_PCT:.0f}% bound", file=sys.stderr)
            return 1
        # The prompt-prefix cache must demonstrably engage (a
        # deterministic counter, not a wall-clock ratio).
        if result["tracing"]["prefix_hits"] <= 0:
            print("FAIL: prompt prefix cache registered no hits", file=sys.stderr)
            return 1
        print("quick smoke OK: warm-cache run did zero predictions and was"
              f" {result['speedup']['parallel_warm']:.1f}x sequential;"
              f" tracing overhead {result['tracing']['overhead_pct']:+.1f}%;"
              f" fewshot share {fewshot_share:.1f}%;"
              f" hot-path caches {result['speedup']['hot_path_caches']:.2f}x",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
