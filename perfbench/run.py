#!/usr/bin/env python3
"""The repository benchmark: cold offline evaluation and open-loop serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval-cold --seed 42 --seconds 30 --trace 0

Workloads (reasons in ``BENCHMARK.json``):

* ``eval-cold`` - sequential ``Evaluator`` passes, each in a fresh process
  over a freshly built spider-like dataset, until ``--seconds`` have passed;
* ``serve-reads`` - an open loop at a fixed rate into an in-process
  ``ServingEngine`` with the response cache on.

Every piece of work runs in a child process of this script, so each pass
and each serving run starts cold.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the run repeats the work untraced and traced and reports the
per-layer metrics instead.  Outputs are checked in both modes; a failed
check counts in ``failed`` and makes ``correct`` false.

Times are normalized to a reference host speed by ``NOMINAL_PROBE_S /
median probe``, where the probe is a fixed loop that the child times while
the program is idle: at the start and end of each measured phase and
between its operations (see ``workloads.py``).  A latency is scaled by the
probes taken within ``LOCAL_PROBE_S`` of its start, a phase's duration by
all of the phase's probes.  Speed factors and raw, unscaled figures are
printed to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

import workloads
from layers import DRAWS, GOLD
from stats import percentile, supported_tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
PINNED = HERE / "pinned.json"
# Records of the last serving run, for its reference pass.
SERVED = OUT_DIR / "served.json"

WORKLOAD_NAMES = ("eval-cold", "serve-reads")
DEFAULT_SEED = 42
# Set-ups per serving run; the serving child is the last of them.
SERVE_SETUPS = 5
# Write-probe children per run (untraced); each write metric is the median
# of theirs.
WRITE_PROBES = 3
# Every run must end well within three minutes.
RUN_BUDGET_S = 170.0
POLL_S = 0.05

# A latency is scaled by the probes taken within this many seconds of its
# start: the host's speed drifts within a phase.
LOCAL_PROBE_S = 0.5

# Probe time (see workloads.speed_probe) on the reference host, a 2-vCPU
# Xeon at 2.0 GHz running CPython 3.11, when its neighbours are quiet.
NOMINAL_PROBE_S = 1.2e-3


class BenchError(RuntimeError):
    pass


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- child side ---------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    spans_path = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.child}-seed{args.seed}-{args.index}.spans.jsonl"
    scale = args.scale if args.scale is not None else workloads.SCALE
    if args.child == "eval":
        result = workloads.eval_pass(
            args.seed, args.index, bool(args.trace), args.spawned_at, scale, spans_path
        )
    elif args.child == "serve-setup":
        result = workloads.serve_setup(args.spawned_at, scale)
    elif args.child == "reference":
        result = workloads.reference_pass(args.seed, args.spawned_at, scale, SERVED)
    elif args.child == "writes":
        result = workloads.write_probe(args.seed, args.index, scale)
    else:
        result = workloads.serve_run(
            args.seed, args.seconds, bool(args.trace), args.spawned_at,
            scale, spans_path, SERVED,
        )
    print(json.dumps(result))
    return 0


# -- parent side --------------------------------------------------------------


class Runner:
    """Spawns children and converts their raw times to nominal-speed times."""

    def __init__(self, seed: int, seconds: float, budget_s: float = RUN_BUDGET_S) -> None:
        self.seed = seed
        self.seconds = seconds
        self.deadline = perf_counter() + budget_s

    def spawn(self, child: str, index: int = 0, trace: bool = False) -> dict:
        command = [
            sys.executable, str(HERE / "run.py"), "--child", child,
            "--seed", str(self.seed), "--index", str(index),
            "--seconds", str(self.seconds), "--trace", str(int(trace)),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out_path = OUT_DIR / f"{child}-{index}-{int(trace)}.json"
        with open(out_path, "w", encoding="utf-8") as out:
            proc = subprocess.Popen(command + ["--spawned-at", repr(perf_counter())],
                                    cwd=ROOT, env=env, stdout=out)
            try:
                while proc.poll() is None:
                    if perf_counter() > self.deadline:
                        raise BenchError(f"{child} child exceeded the run budget")
                    sleep(POLL_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{child} child failed with exit code {proc.returncode}")
        return json.loads(lines[-1])

    def factor(self, result: dict, phase: str) -> float:
        """Scale from raw to nominal-speed time for one phase of a child."""
        return NOMINAL_PROBE_S / result["phases"][phase]["probe"]

    def seconds_in(self, result: dict, phase: str) -> float:
        return result["phases"][phase]["seconds"] * self.factor(result, phase)

    def scaled(self, result: dict, phase: str, timed: list[tuple[float, float]]) -> list[float]:
        """Each ``(at, value)`` of a phase, scaled by the phase's probes near ``at``.

        Falls back to the whole phase's factor where no probe lies within
        ``LOCAL_PROBE_S`` (the program left no idle moment there).
        """
        measured = result["phases"][phase]
        times = [at for at, _ in measured["probes"]]
        probes = [probe for _, probe in measured["probes"]]
        fallback = self.factor(result, phase)
        out = []
        for at, value in timed:
            lo = bisect.bisect_left(times, at - LOCAL_PROBE_S)
            hi = bisect.bisect_right(times, at + LOCAL_PROBE_S)
            factor = NOMINAL_PROBE_S / statistics.median(probes[lo:hi]) if hi > lo else fallback
            out.append(value * factor)
        return out


def _ms(values: list[float]) -> list[float]:
    return [value * 1000.0 for value in values]


def _pct(values: list[float], q: float, name: str) -> float:
    tail = supported_tail(values)
    if tail is None or tail < q:
        _log(f"note: {name} p{q:g} has fewer than ten samples beyond it"
             f" ({len(values)} samples; highest supported: p{tail})")
    return percentile(values, q)


def _pinned_digests(seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not PINNED.exists():
        return []
    return json.loads(PINNED.read_text())["eval-cold"]


def _eval_checks(runner: Runner, passes: list[dict]) -> int:
    pinned = _pinned_digests(runner.seed)
    failed = 0
    for index, result in enumerate(passes):
        pass_failed = result["ex_mismatches"]
        if index < len(pinned):
            verdict = "pinned ok" if result["digest"] == pinned[index] else "MISMATCH"
            pass_failed += int(verdict == "MISMATCH")
        else:
            verdict = "not pinned"
        failed += pass_failed
        _log(f"[eval-cold] pass {index}: examples={result['examples']} failed={pass_failed}"
             f" ex_mismatches={result['ex_mismatches']} digest {verdict};"
             f" first-seen share 1.000, cache-hit share 0.000;"
             f" raw eval_s={result['phases']['measure']['seconds']:.3f}"
             f" speed factor={runner.factor(result, 'measure'):.3f}")
    return failed


def run_writes(runner: Runner) -> tuple[dict, int, int]:
    """The write metrics: the median over ``WRITE_PROBES`` probe children."""
    p50s, p95s = [], []
    attempted = failed = 0
    for index in range(WRITE_PROBES):
        probe = runner.spawn("writes", index)
        writes = _ms(runner.scaled(probe, "writes", probe["write_latencies"]))
        p50s.append(_pct(writes, 50, "write latency"))
        p95s.append(_pct(writes, 95, "write latency"))
        attempted += len(writes) + probe["write_failed"]
        failed += probe["write_failed"]
        _log(f"[writes] probe {index}: writes={len(writes)} failed={probe['write_failed']}"
             f" p50={p50s[-1]:.4f} ms p95={p95s[-1]:.4f} ms;"
             f" speed factor={runner.factor(probe, 'writes'):.3f}")
    metrics = {"write_p50_ms": statistics.median(p50s), "write_p95_ms": statistics.median(p95s)}
    return metrics, attempted, failed


def run_eval(runner: Runner, trace: bool) -> tuple[dict, int, int]:
    started = perf_counter()
    passes, traced = [], []
    index = 0
    while True:
        if trace:
            # Alternate which side of each pair runs first.
            order = (False, True) if index % 2 == 0 else (True, False)
            pair = {side: runner.spawn("eval", index, trace=side) for side in order}
            passes.append(pair[False])
            traced.append(pair[True])
        else:
            passes.append(runner.spawn("eval", index))
        index += 1
        if perf_counter() - started >= runner.seconds:
            break
    failed = _eval_checks(runner, passes)
    for plain, with_trace in zip(passes, traced):
        failed += with_trace["ex_mismatches"]
        if plain["digest"] != with_trace["digest"]:
            _log("[eval-cold] traced digest differs from untraced digest")
            failed += 1
    attempted = sum(p["examples"] for p in passes + traced)
    if trace:
        ops = sum(p["examples"] for p in traced)
        overhead = _overhead(runner, passes, traced)
        return per_layer(runner, traced, ops, overhead, serve=None), attempted, failed
    latencies = [x for p in passes for x in runner.scaled(p, "measure", p["latencies"])]
    write_metrics, write_attempted, write_failed = run_writes(runner)
    eval_s = sum(runner.seconds_in(p, "measure") for p in passes)
    raw_s = sum(p["phases"]["measure"]["seconds"] for p in passes)
    _log(f"[eval-cold] raw eval_eps={sum(p['examples'] for p in passes) / raw_s:.2f}")
    p50 = _pct(_ms(latencies), 50, "eval latency")
    p99 = _pct(_ms(latencies), 99, "eval latency")
    metrics = {
        "setup_s": statistics.median(runner.seconds_in(p, "setup") for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "eval_eps": sum(p["examples"] for p in passes) / eval_s,
        "eval_p50_ms": p50,
        "eval_p99_ms": p99,
        # A one-caller closed loop in which every request misses.
        "serve_p50_ms": p50,
        "serve_miss_p50_ms": p50,
        **write_metrics,
    }
    return metrics, attempted + write_attempted, failed + write_failed


def _overhead(runner: Runner, plain: list[dict], traced: list[dict]) -> float:
    """Traced minus untraced CPU time of the measured phases, in percent."""
    def cpu(results: list[dict]) -> float:
        return sum(r["cpu_s"] * runner.factor(r, "measure") for r in results)

    base = cpu(plain)
    return 100.0 * (cpu(traced) - base) / base


def _serve_checks(runner: Runner, served: dict, reference: dict) -> int:
    failed = served["not_ok"]
    reads = served["reads"]
    _log(f"[serve-reads] cache fill reads={served['fill_reads']}; measured reads={reads}"
         f" failed={served['not_ok']} statuses={served['statuses']};"
         f" first-seen share {served['fresh_reads'] / reads:.3f},"
         f" cache-hit share {served['cached'] / reads:.3f};"
         f" cpu share {served['cpu_s'] / served['phases']['measure']['seconds']:.3f},"
         f" speed factor {runner.factor(served, 'measure'):.3f}"
         f" ({len(served['phases']['measure']['probes'])} idle probes),"
         f" generator lag max {served['gen_lag_max'] * 1000:.2f} ms")
    failed += reference["mismatches"]
    _log(f"[serve-reads] reference pass: keys={reference['examples']}"
         f" of which served={reference['checked']}, failed={reference['mismatches']}"
         f" (served records differing from the offline Evaluator)")
    return failed


def run_serve(runner: Runner, trace: bool) -> tuple[dict, int, int]:
    if trace:
        plain = runner.spawn("serve-reads")
        traced = runner.spawn("serve-reads", trace=True)
        reference = runner.spawn("reference")
        failed = _serve_checks(runner, traced, reference) + plain["not_ok"]
        if plain["digest"] != traced["digest"]:
            _log("[serve-reads] traced responses differ from untraced responses")
            failed += 1
        attempted = sum(r["fill_reads"] + r["reads"] for r in (plain, traced))
        overhead = _overhead(runner, [plain], [traced])
        metrics = per_layer(runner, [traced], traced["reads"], overhead, serve=traced)
        return metrics, attempted, failed
    setups = [runner.spawn("serve-setup") for _ in range(SERVE_SETUPS - 1)]
    served = runner.spawn("serve-reads")
    reference = runner.spawn("reference")
    failed = _serve_checks(runner, served, reference)
    attempted = served["fill_reads"] + served["reads"]
    ref = _ms(runner.scaled(reference, "reference", reference["latencies"]))
    timed = served["timed"]
    latencies = _ms(runner.scaled(served, "measure", [(at, v) for at, v, _ in timed]))
    misses = _ms(runner.scaled(served, "measure", [(at, v) for at, v, hit in timed if not hit]))
    write_metrics, write_attempted, write_failed = run_writes(runner)
    raw = _ms([v for _, v, _ in timed])
    raw_misses = _ms([v for _, v, hit in timed if not hit])
    _log(f"[serve-reads] raw serve_p50_ms={percentile(raw, 50):.4f}"
         f" serve_miss_p50_ms={percentile(raw_misses, 50):.4f};"
         f" serve p99 (not declared, see README.md): {_pct(latencies, 99, 'serve latency'):.4f}"
         f" scaled, {percentile(raw, 99):.4f} raw")
    metrics = {
        "setup_s": statistics.median(
            runner.seconds_in(r, "setup") for r in setups + [served]
        ),
        "peak_rss_mb": served["rss_mb"],
        # The reference pass: served keys, the rest of dev, then train keys.
        "eval_eps": reference["examples"] / runner.seconds_in(reference, "reference"),
        "eval_p50_ms": _pct(ref, 50, "reference latency"),
        "eval_p99_ms": _pct(ref, 99, "reference latency"),
        "serve_p50_ms": _pct(latencies, 50, "serve latency"),
        "serve_miss_p50_ms": _pct(misses, 50, "serve miss latency"),
        **write_metrics,
    }
    return metrics, attempted + write_attempted, failed + write_failed


def per_layer(runner: Runner, traced: list[dict], ops: int, overhead: float,
              serve: dict | None) -> dict:
    """Per-layer metrics from traced results, normalized per op."""
    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    deltas = {"prefix_hits": 0, "prefix_misses": 0, "memo_hits": 0, "memo_misses": 0,
              "checkouts": 0, "refreshes": 0, "waits": 0}
    for result in traced:
        factor = runner.factor(result, "measure")
        for layer, row in result["trace"]["layers"].items():
            into = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
            into["calls"] += row["calls"]
            into["self_s"] += row["self_s"] * factor
        for name, value in result["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name in ("prefix_hits", "prefix_misses", "memo_hits", "memo_misses"):
            deltas[name] += result["counters"][name]
        for name in ("checkouts", "refreshes", "waits"):
            deltas[name] += result["counters"]["pool"][name]

    def calls(layer: str) -> float:
        return totals.get(layer, {}).get("calls", 0) / ops

    def self_ms(layer: str) -> float:
        return 1000.0 * totals.get(layer, {}).get("self_s", 0.0) / ops

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    generate_calls = totals.get("llm.generate", {}).get("calls", 0)
    metrics = {
        "nlu.parse.calls": calls("nlu.parse"),
        "nlu.parse.self_ms": self_ms("nlu.parse"),
        "nlu.link.self_ms": self_ms("nlu.link"),
        "nlu.edit_distance.calls": calls("nlu.edit_distance"),
        "nlu.edit_distance.self_ms": self_ms("nlu.edit_distance"),
        "nlu.tokenize.self_ms": self_ms("nlu.tokenize"),
        "modules.schema_linking.self_ms": self_ms("modules.schema_linking"),
        "modules.fewshot.self_ms": self_ms("modules.fewshot"),
        "modules.prompt_build.self_ms": self_ms("modules.prompt_build"),
        "modules.db_content.self_ms": self_ms("modules.db_content"),
        "modules.prefix_cache.hit_ratio": ratio(deltas["prefix_hits"], deltas["prefix_misses"]),
        "llm.generate.calls": calls("llm.generate"),
        "llm.generate.self_ms": self_ms("llm.generate"),
        "llm.draws_per_call": counters.get(DRAWS, 0) / generate_calls if generate_calls else 0.0,
        "sqlkit.parse.calls": calls("sqlkit.parse"),
        "sqlkit.parse.self_ms": self_ms("sqlkit.parse"),
        "sqlkit.exact_match.self_ms": self_ms("sqlkit.exact_match"),
        "dbengine.execute.calls": calls("dbengine.execute"),
        "dbengine.execute.self_ms": self_ms("dbengine.execute"),
        "dbengine.exec_memo.hit_ratio": ratio(deltas["memo_hits"], deltas["memo_misses"]),
        "dbengine.pool.checkouts": deltas["checkouts"] / ops,
        "dbengine.pool.refreshes": deltas["refreshes"] / ops,
        "dbengine.pool.waits": deltas["waits"] / ops,
        "methods.predict.self_ms": self_ms("methods.predict"),
        "core.evaluate.self_ms": self_ms("core.evaluate"),
        "core.gold_executions": counters.get(GOLD, 0) / ops,
        "serve.cache.hit_ratio": 0.0,
        "serve.submit.self_ms": 0.0,
        "serve.coalesce_hits": 0,
        "serve.computed": 0,
        "serve.rejected": 0,
        "serve.queue_wait_p50_ms": 0.0,
        "serve.queue_wait_p99_ms": 0.0,
        "serve.service_p50_ms": 0.0,
        "serve.gen_lag_max_ms": 0.0,
        "obs.trace_overhead_pct": overhead,
    }
    if serve is not None:
        stats = serve["stats"]
        factor = runner.factor(serve, "measure")
        waits = _ms([wait * factor for wait in serve["queue_waits"]]) or [0.0]
        services = _ms([service * factor for service in serve["services"]]) or [0.0]
        metrics.update({
            "serve.cache.hit_ratio": ratio(stats["cache_hits"], stats["cache_misses"]),
            "serve.submit.self_ms": self_ms("serve.submit"),
            "serve.coalesce_hits": stats["coalesce_hits"],
            "serve.computed": stats["computed"],
            "serve.rejected": stats["rejected"],
            "serve.queue_wait_p50_ms": percentile(waits, 50),
            "serve.queue_wait_p99_ms": percentile(waits, 99),
            "serve.service_p50_ms": percentile(services, 50),
            "serve.gen_lag_max_ms": serve["gen_lag_max"] * 1000.0,
        })
    return metrics


def pin(passes: int) -> int:
    """Record the eval-cold record digests of the default seed's first passes.

    Regenerating them is a deliberate change of the program's results.
    """
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(DEFAULT_SEED, 0.0, budget_s=passes * RUN_BUDGET_S)
    digests = []
    for index in range(passes):
        result = runner.spawn("eval", index)
        if result["ex_mismatches"]:
            _log(f"error: pass {index} has records whose EX does not re-derive")
            return 1
        digests.append(result["digest"])
    PINNED.write_text(json.dumps({"seed": DEFAULT_SEED, "eval-cold": digests}, indent=2) + "\n")
    _log(f"pinned {passes} eval-cold digests in {PINNED}")
    return 0


def parent_main(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        _log(f"error: the program sources are missing ({SRC / 'repro'})")
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(args.seed, float(args.seconds))
    trace = bool(args.trace)
    try:
        if args.workload == "eval-cold":
            metrics, attempted, failed = run_eval(runner, trace)
        else:
            metrics, attempted, failed = run_serve(runner, trace)
    except BenchError as exc:
        _log(f"error: {exc}")
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for name in units:
        print(f"{name:34s} {metrics[name]:14.4f} {units[name]}")
    print(json.dumps(report))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, metavar="PASSES",
                        help="rewrite pinned.json with the digests of this many"
                             f" eval-cold passes of seed {DEFAULT_SEED}")
    # Internal: one unit of work in a child process.
    parser.add_argument("--child", choices=("eval", "serve-setup", "reference", "writes")
                        + WORKLOAD_NAMES[1:],
                        help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    # Internal: the dataset scale of one child; the tests use small ones.
    parser.add_argument("--scale", type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.scale is not None:
        parser.error("--scale applies only to a child process")
    if args.pin:
        return pin(args.pin)
    if args.workload is None:
        parser.error("--workload is required")
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
