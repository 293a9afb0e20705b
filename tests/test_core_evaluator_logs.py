"""Tests for the evaluator and the SQLite experiment log store."""

import dataclasses
import importlib
import itertools

import pytest

from repro.core.evaluator import Evaluator
from repro.core.logs import ExperimentLogStore
from repro.errors import SQLError
from repro.methods.base import MethodGroup, NL2SQLMethod, Prediction
from repro.methods.zoo import build_method
from repro.sqlkit.exact_match import exact_match

# The module, not the same-named function ``repro.sqlkit`` re-exports.
exact_match_module = importlib.import_module("repro.sqlkit.exact_match")


@pytest.fixture(scope="module")
def evaluated(small_dataset):
    """One method evaluated once, shared by the read-only tests below."""
    store = ExperimentLogStore()
    evaluator = Evaluator(small_dataset, log_store=store, measure_timing=False)
    method = build_method("DAILSQL")
    report = evaluator.evaluate_method(method)
    return evaluator, store, report


class TestEvaluator:
    def test_one_record_per_example(self, evaluated, small_dataset):
        __, __, report = evaluated
        assert len(report) == len(small_dataset.dev_examples)

    def test_records_carry_features(self, evaluated):
        __, __, report = evaluated
        joins = [r for r in report.records if r.has_join]
        assert joins and all("JOIN" in r.gold_sql for r in joins)

    def test_reasonable_accuracy(self, evaluated):
        __, __, report = evaluated
        assert 50.0 < report.ex <= 100.0

    def test_gold_cache_reused(self, evaluated, small_dataset):
        evaluator, __, __ = evaluated
        cache_size = len(evaluator._gold_cache)
        method = build_method("C3SQL")
        evaluator.evaluate_method(method, examples=small_dataset.dev_examples[:5])
        assert len(evaluator._gold_cache) == cache_size  # same golds, no growth

    def test_subset_evaluation(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        method = build_method("C3SQL")
        report = evaluator.evaluate_method(
            method, examples=small_dataset.dev_examples[:4]
        )
        assert len(report) == 4

    def test_timing_populates_seconds(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=True, timing_repeats=1)
        method = build_method("C3SQL")
        report = evaluator.evaluate_method(
            method, examples=small_dataset.dev_examples[:2]
        )
        assert all(r.gold_seconds > 0 for r in report.records)

    def test_evaluate_zoo(self, small_dataset):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        reports = evaluator.evaluate_zoo(
            [build_method("C3SQL"), build_method("DAILSQL")],
            examples=small_dataset.dev_examples[:3],
        )
        assert set(reports) == {"C3SQL", "DAILSQL"}


class _FixedSQL(NL2SQLMethod):
    name = "fixed"
    group = MethodGroup.PLM

    def __init__(self, sql: str) -> None:
        self.sql = sql

    def predict(self, example, database):
        return Prediction(sql=self.sql)


def _outcome(call):
    try:
        return call()
    except SQLError as error:
        return type(error)


class TestScoringEM:
    """The score stage compares against a cached gold EM form; its verdict
    must be ``exact_match(prediction, gold)``, errors included."""

    def test_em_equals_exact_match(self, small_dataset, monkeypatch):
        example = small_dataset.dev_examples[0]
        table = small_dataset.database(example.db_id).schema.tables[0]
        t, a, b = table.name, table.columns[0].name, table.columns[-1].name
        pool = [
            example.gold_sql,
            f"SELECT {a} FROM {t}",
            f"select {a.upper()} from {t}",
            f"SELECT T1.{a} FROM {t} AS T1",
            f"SELECT {a} FROM {t} WHERE {b} = 1",
            f"SELECT {a} FROM {t} WHERE {b} = 2",
            f"SELECT {a}, {b} FROM {t}",
            f"SELECT {b}, {a} FROM {t}",
            f"SELECT {a} FROM {t} WHERE {b} = 'uncanonical'",
            "SELEC nothing FROM",
        ]
        canonicalize = exact_match_module._canonicalize

        def failing(statement, *args, **kwargs):
            # A query whose canonicalization raises, for both code paths.
            if "uncanonical" in repr(statement):
                raise SQLError("cannot canonicalize (test)")
            return canonicalize(statement, *args, **kwargs)

        monkeypatch.setattr(exact_match_module, "_canonicalize", failing)
        evaluator = Evaluator(small_dataset, measure_timing=False)
        for gold, predicted in itertools.product(pool, pool):
            scored = dataclasses.replace(example, gold_sql=gold)
            got = _outcome(
                lambda: evaluator.evaluate_example(_FixedSQL(predicted), scored).em
            )
            if gold == "SELEC nothing FROM":
                # An unparseable gold has no features to score with.
                assert isinstance(got, type) and issubclass(got, SQLError)
            else:
                assert got == _outcome(lambda: exact_match(predicted, gold)), (
                    predicted, gold,
                )
        # Values are ignored, as in exact_match's default.
        assert exact_match(pool[4], pool[5]) and not exact_match(
            pool[4], pool[5], compare_values=True
        )

    def test_verbatim_gold_is_not_parsed_again(self, small_dataset, monkeypatch):
        evaluator = Evaluator(small_dataset, measure_timing=False)
        example = small_dataset.dev_examples[0]
        assert evaluator.evaluate_example(_FixedSQL(example.gold_sql), example).em
        calls = []
        parse_select = exact_match_module.parse_select
        monkeypatch.setattr(
            exact_match_module, "parse_select",
            lambda sql: calls.append(sql) or parse_select(sql),
        )
        assert evaluator.evaluate_example(_FixedSQL(example.gold_sql), example).em
        assert calls == []


class TestLogStore:
    def test_run_registered(self, evaluated, small_dataset):
        __, store, __ = evaluated
        runs = store.runs()
        assert runs[0][1] == "spider-like"
        assert runs[0][2] == "DAILSQL"

    def test_round_trip_preserves_metrics(self, evaluated):
        __, store, report = evaluated
        loaded = store.load_report(store.runs()[0][0])
        assert loaded.ex == report.ex
        assert loaded.em == report.em
        assert len(loaded) == len(report)

    def test_round_trip_preserves_fields(self, evaluated):
        __, store, report = evaluated
        loaded = store.load_report(store.runs()[0][0])
        original = report.records[0]
        reloaded = loaded.records[0]
        assert reloaded.hardness == original.hardness
        assert reloaded.variant_group == original.variant_group
        assert reloaded.has_join == original.has_join

    def test_missing_run_raises(self, evaluated):
        __, store, __ = evaluated
        with pytest.raises(KeyError):
            store.load_report(999)

    def test_sql_query_interface(self, evaluated):
        __, store, __ = evaluated
        rows = store.query(
            "SELECT COUNT(*) FROM records r JOIN runs USING (run_id) "
            "WHERE runs.method = ?",
            ("DAILSQL",),
        )
        assert rows[0][0] > 0

    def test_empty_records_rejected(self):
        store = ExperimentLogStore()
        with pytest.raises(ValueError):
            store.store_records("d", [])
        store.close()

    def test_file_backed_store(self, tmp_path, evaluated):
        __, __, report = evaluated
        path = tmp_path / "logs.db"
        with ExperimentLogStore(path) as store:
            run_id = store.store_records("spider-like", report.records)
        with ExperimentLogStore(path) as store:
            assert store.load_report(run_id).ex == report.ex

    def test_truncation_flags_round_trip(self, evaluated):
        __, store, report = evaluated
        import dataclasses

        flagged = dataclasses.replace(
            report.records[0], gold_truncated=True, predicted_truncated=True
        )
        run_id = store.store_records("spider-like", [flagged])
        reloaded = store.load_report(run_id).records[0]
        assert reloaded.gold_truncated and reloaded.predicted_truncated

    def test_old_store_file_gains_truncation_columns(self, tmp_path, evaluated):
        # Stores created before the truncated flags existed must be
        # migrated in place when reopened.
        import sqlite3

        from repro.core.logs import _RECORD_COLUMN_SQL

        path = tmp_path / "old.db"
        old_columns = _RECORD_COLUMN_SQL.split("gold_truncated")[0].rstrip().rstrip(",")
        connection = sqlite3.connect(path)
        connection.executescript(f"""
            CREATE TABLE runs (
                run_id INTEGER PRIMARY KEY AUTOINCREMENT,
                dataset TEXT NOT NULL, method TEXT NOT NULL,
                created_at TEXT DEFAULT CURRENT_TIMESTAMP
            );
            CREATE TABLE records (
                record_id INTEGER PRIMARY KEY AUTOINCREMENT,
                run_id INTEGER NOT NULL REFERENCES runs(run_id),
                {old_columns}
            );
            CREATE TABLE result_cache (
                fingerprint TEXT NOT NULL, method TEXT NOT NULL,
                {old_columns},
                PRIMARY KEY (fingerprint, example_id)
            );
        """)
        connection.commit()
        connection.close()

        __, __, report = evaluated
        with ExperimentLogStore(path) as store:
            run_id = store.store_records("spider-like", report.records)
            loaded = store.load_report(run_id)
        assert len(loaded) == len(report)
        assert all(not r.gold_truncated for r in loaded.records)
