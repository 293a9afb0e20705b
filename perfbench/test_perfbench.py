"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import stats  # noqa: E402
import traffic  # noqa: E402
import workloads  # noqa: E402

SMALL_SCALE = 0.05


def _child(*args: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), *args,
               "--scale", str(SMALL_SCALE), "--spawned-at", repr(perf_counter())]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=170,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src")})
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def dataset():
    from repro.datagen.benchmark import build_benchmark, spider_like_config

    built = build_benchmark(spider_like_config(scale=SMALL_SCALE, seed=5))
    yield built
    built.close()


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert stats.supported_tail(list(range(1000))) == 99.0
    assert stats.supported_tail(list(range(999))) == 95.0
    assert stats.supported_tail(list(range(20))) == 50.0
    assert stats.supported_tail(list(range(19))) is None
    value, beyond = stats.nearest_rank(list(range(1, 1001)), 99)
    assert (value, beyond) == (990, 10)


def test_generators_are_deterministic_per_seed(dataset):
    spec = workloads._spec(3.0)
    first = traffic.reads(dataset, workloads.METHODS, spec, 7)
    assert first == traffic.reads(dataset, workloads.METHODS, spec, 7)
    assert first != traffic.reads(dataset, workloads.METHODS, spec, 8)
    assert traffic.writes(dataset, 7, 20) == traffic.writes(dataset, 7, 20)
    fresh = [(r.method, r.db_id, traffic.question_key(r.question)) for r in first if r.fresh]
    assert len(fresh) == len(set(fresh))
    assert len(fresh) == round(workloads.FRESH_SHARE * len(first))
    # First-seen keys take the methods in turn.
    assert [key[0] for key in fresh[:12]] == list(workloads.METHODS) * 2
    hot = {(m, d, traffic.question_key(q))
           for m, d, q in traffic.hot_keys(dataset, workloads.METHODS, spec, 7)}
    assert not hot & set(fresh)


def test_writes_preserve_content(dataset):
    probe = traffic.writes(dataset, 3, 20)
    tables = {(w.db_id, w.sql.split()[1]) for w in probe}

    def content():
        return {(db_id, table): dataset.database(db_id).backend.run(
            f"SELECT * FROM {table} ORDER BY rowid") for db_id, table in tables}

    before = content()
    versions = {db_id: dataset.database(db_id).data_version for db_id, _ in tables}
    for write in probe:
        assert dataset.database(write.db_id).apply_write(write.sql, write.params) == 1
    assert content() == before
    assert all(dataset.database(d).data_version > v for d, v in versions.items())


def test_write_probe_succeeds():
    probe = _child("--child", "writes", "--seed", "3")
    assert probe["write_failed"] == 0
    assert len(probe["write_latencies"]) == workloads.PROBE_WRITES


def test_traced_eval_pass_matches_untraced():
    plain = _child("--child", "eval", "--seed", "3", "--trace", "0")
    traced = _child("--child", "eval", "--seed", "3", "--trace", "1")
    assert plain["digest"] == traced["digest"]
    assert plain["ex_mismatches"] == traced["ex_mismatches"] == 0
    layers = traced["trace"]["layers"]
    assert layers["core.evaluate"]["calls"] == traced["examples"]
    assert layers["nlu.edit_distance"]["calls"] > 0
    # Self times never exceed wall times.
    assert all(row["self_s"] <= row["wall_s"] + 1e-9 for row in layers.values())


def test_traced_serve_run_matches_untraced_and_reference():
    args = ("--child", "serve-reads", "--seed", "3", "--seconds", "2")
    plain = _child(*args, "--trace", "0")
    traced = _child(*args, "--trace", "1")
    reference = _child("--child", "reference", "--seed", "3")
    assert plain["digest"] == traced["digest"]
    assert plain["not_ok"] == traced["not_ok"] == 0
    assert reference["mismatches"] == 0 and reference["checked"] > 0
    assert traced["trace"]["layers"]["serve.submit"]["calls"] == traced["reads"]
    # Every measured read is timed; hits and misses both occur.
    assert len(plain["timed"]) == plain["reads"]
    assert 0 < plain["cached"] < plain["reads"]
    assert all(latency > 0 for _, latency, _ in plain["timed"])


def test_layer_map_covers_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["command"] == ["python3", "perfbench/run.py"]
    workload_names = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert {m["name"] for m in declared["per_layer"]} == set(metrics.LAYER_MAP)
    for moves, same in metrics.LAYER_MAP.values():
        for target in moves + same:
            metric, workload = target.split("@")
            assert workload in workload_names
            assert metric in end_to_end or metric == "zero"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
