"""Golden-record oracle: the benchmark's first eval-cold pass, in-process.

Builds the dataset of ``perfbench`` eval-cold pass 0 at the pinned seed,
runs the benchmark's methods through a sequential untimed ``Evaluator``
and checks the sha256 digest of the records against
``perfbench/pinned.json``.  Any change to what the zoo predicts or how it
is scored changes the digest; re-pinning is a deliberate results change
(``python3 perfbench/run.py --pin 10``).  The pinned file is only read.
Unlike the benchmark, this runs in the test suite's shared process, so it
also fails when state left behind by earlier tests changes results.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

from repro.core.evaluator import Evaluator
from repro.datagen.benchmark import build_benchmark, spider_like_config
from repro.methods.zoo import build_method

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name: str):
    """Import a ``perfbench`` module (they import each other by bare name)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_eval_cold_pass_zero_matches_pinned_digest():
    workloads = _perfbench_module("workloads")
    traffic = _perfbench_module("traffic")
    pinned = json.loads((PERFBENCH / "pinned.json").read_text())
    seed = traffic.dataset_seed(pinned["seed"], 0)
    dataset = build_benchmark(spider_like_config(scale=workloads.SCALE, seed=seed))
    try:
        methods = [build_method(name, seed=seed) for name in workloads.METHODS]
        for method in methods:
            method.prepare(dataset)
        evaluator = Evaluator(dataset, measure_timing=False)
        records = []
        for method in methods:
            records.extend(evaluator.evaluate_method(method, prepare=False).records)
    finally:
        dataset.close()
    assert len(records) == 1128
    digest = hashlib.sha256(
        "\n".join(workloads._record_json(record) for record in records).encode()
    ).hexdigest()
    assert digest == pinned["eval-cold"][0]
