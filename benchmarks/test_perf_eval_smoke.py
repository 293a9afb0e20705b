"""Tier-2 perf smoke: the parallel engine and hot-path caches must not regress.

Runs ``scripts/bench_eval.py --quick`` in-process: times sequential vs
parallel vs warm-cache evaluation on a small dataset and enforces the
stage-level perf gates — the warm-cache run performs zero predictions
and is not slower than the sequential loop, the hot-path memo layers are
bit-identical on vs off and register hits (deterministic counters, not
wall-clock ratios), and with the few-shot retrieval index the
``fewshot`` stage stays below a 10% share of median traced stage time.
Writes ``BENCH_eval.json`` so future PRs can track the perf trajectory.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_eval", REPO_ROOT / "scripts" / "bench_eval.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_bench_eval_quick_smoke(tmp_path):
    bench_eval = _load_bench_module()
    out = tmp_path / "BENCH_eval.json"
    exit_code = bench_eval.main(["--quick", "--out", str(out)])
    assert exit_code == 0

    result = json.loads(out.read_text())
    assert result["records_identical"]
    assert result["cache_records_identical"]
    assert result["warm_stats"]["predictions"] == 0
    assert (
        result["seconds"]["parallel_warm"]
        <= result["seconds"]["sequential"] * 1.10
    )
    # Stage-level perf gate: the retrieval index + selection memo keep the
    # fewshot stage a single-digit share of traced stage time.  The share
    # is computed from per-stage medians across the traced passes, so one
    # noisy pass on a loaded host cannot trip it.
    fewshot_share = result["tracing"]["stage_share_pct"].get("fewshot", 0.0)
    assert fewshot_share < bench_eval.FEWSHOT_SHARE_BOUND_PCT
    # The memo and prompt-prefix layers must demonstrably engage —
    # gated on deterministic hit counters, not wall-clock ratios, which
    # flake under CI load.  (There is no decode-stage memo gate: each
    # decode does one intent lookup for all its draws.)
    assert result["tracing"]["stage_memo_hits"].get("fewshot", 0) > 0
    assert result["tracing"]["prefix_hits"] > 0
    # The warm-cache and hot-path speedups must stay in the trajectory
    # file for trend tracking; their magnitudes are reported, not gated.
    assert result["speedup"]["parallel_warm"] > 0
    assert result["speedup"]["hot_path_caches"] > 0
    assert "fewshot" in result["tracing"]["cache_stage_speedup"]
    # Refresh the tracked trajectory file at the repo root.
    (REPO_ROOT / "BENCH_eval.json").write_text(json.dumps(result, indent=2) + "\n")
