"""Tests for the sharded multi-process gateway (repro.serve.gateway).

The load-bearing property is cross-topology equivalence: the same
seeded workload must produce bit-identical
:class:`~repro.core.metrics.EvaluationRecord` payloads through the
offline :class:`~repro.core.evaluator.Evaluator`, the single-process
:class:`~repro.serve.engine.ServingEngine`, and the gateway at 1, 2,
and 4 shards — with exact per-shard cache/invalidation counters at
every layout.  The remaining tests pin the consistent-hash ring, the
Prometheus merge/render pair, explicit switch propagation across the
spawn boundary, write/invalidation routing, and the HTTP surface.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.core.evaluator import Evaluator
from repro.datagen.benchmark import build_benchmark
from repro.dbengine.pool import pooling_disabled
from repro.errors import GatewayError
from repro.serve import (
    GatewayHTTPClient,
    GatewayHTTPServer,
    HashRing,
    ServeConfig,
    ServeRequest,
    ShardedGateway,
    WorkloadSpec,
    build_workload,
    question_index,
)
from repro.serve.gateway import (
    canonical_record_json,
    owned_db_ids,
    record_digest,
    record_to_dict,
    response_to_dict,
    stable_hash,
)
from repro.methods.zoo import build_method
from repro.obs.prometheus import merge_metric_exports, render_prometheus
from repro.utils.cache import caches_disabled

from tests.conftest import small_benchmark_config

METHOD = "C3SQL"


def gateway_serve_config(**overrides) -> ServeConfig:
    config = dict(
        methods=(METHOD,), workers=2, measure_timing=False,
        response_cache=True, seed=42,
    )
    config.update(overrides)
    return ServeConfig(**config)


@pytest.fixture(scope="module")
def workload(small_dataset):
    spec = WorkloadSpec(
        requests=40, methods=(METHOD,), distinct_examples=8, zipf_s=1.1, seed=7
    )
    return build_workload(small_dataset, spec)


@pytest.fixture(scope="module")
def offline_records(small_dataset, workload):
    method = build_method(METHOD, seed=42)
    method.prepare(small_dataset)
    index = question_index(small_dataset)
    evaluator = Evaluator(small_dataset, measure_timing=False)
    records = {}
    for request in workload:
        if request.key not in records:
            example = index[(request.db_id, request.question)]
            records[request.key] = evaluator.evaluate_example(method, example)
    return records


@pytest.fixture(scope="module")
def gateway():
    """A running 2-shard gateway shared by the read-only tests."""
    with ShardedGateway(
        small_benchmark_config(), gateway_serve_config(), shards=2
    ) as gw:
        yield gw


class TestHashRing:
    IDS = [f"db_{i}" for i in range(200)]

    def test_owner_is_deterministic_across_instances(self):
        first = HashRing(4)
        second = HashRing(4)
        assert [first.owner(i) for i in self.IDS] == [
            second.owner(i) for i in self.IDS
        ]

    def test_stable_hash_is_process_independent(self):
        # Pinned literal: blake2b, not the salted built-in hash(), so
        # every spawn-context worker positions keys identically.
        assert stable_hash("flights_100") == 0x43225592059294C3

    def test_partition_is_a_disjoint_cover(self):
        ring = HashRing(4)
        parts = ring.partition(self.IDS)
        assert sorted(parts) == [0, 1, 2, 3]
        flat = [db_id for shard in sorted(parts) for db_id in parts[shard]]
        assert sorted(flat) == sorted(self.IDS)
        assert len(flat) == len(set(flat))
        for shard, owned in parts.items():
            assert all(ring.owner(db_id) == shard for db_id in owned)

    def test_vnodes_keep_shards_roughly_balanced(self):
        parts = HashRing(4).partition(self.IDS)
        sizes = [len(owned) for owned in parts.values()]
        assert min(sizes) > 0
        assert max(sizes) <= 3 * (len(self.IDS) // 4)

    def test_adding_a_shard_moves_a_minority_of_keys(self):
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(
            1 for db_id in self.IDS if before.owner(db_id) != after.owner(db_id)
        )
        # Consistent hashing: ~1/5 of keys move, never a full reshuffle.
        assert 0 < moved < len(self.IDS) // 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)

    def test_owned_db_ids_matches_partition(self):
        ring = HashRing(3)
        parts = ring.partition(sorted(self.IDS))
        for shard in range(3):
            assert owned_db_ids(self.IDS, shard, ring) == parts[shard]


class TestPrometheus:
    def test_merge_sums_counters_by_name_and_labels(self):
        merged = merge_metric_exports([
            {"counters": [
                {"name": "serve_requests", "labels": {"method": "A"}, "value": 2.0},
                {"name": "serve_requests", "labels": {"method": "B"}, "value": 1.0},
            ]},
            {"counters": [
                {"name": "serve_requests", "labels": {"method": "A"}, "value": 3.0},
            ]},
        ])
        assert merged["counters"] == [
            {"name": "serve_requests", "labels": {"method": "A"}, "value": 5.0},
            {"name": "serve_requests", "labels": {"method": "B"}, "value": 1.0},
        ]

    def test_merge_combines_histograms_exactly(self):
        merged = merge_metric_exports([
            {"histograms": [{
                "name": "latency", "labels": {}, "count": 2, "total": 3.0,
                "mean": 1.5, "min": 1.0, "max": 2.0,
            }]},
            {"histograms": [{
                "name": "latency", "labels": {}, "count": 1, "total": 0.5,
                "mean": 0.5, "min": 0.5, "max": 0.5,
            }]},
        ])
        (entry,) = merged["histograms"]
        assert entry["count"] == 3
        assert entry["total"] == 3.5
        assert entry["min"] == 0.5
        assert entry["max"] == 2.0

    def test_merge_is_order_independent(self):
        exports = [
            {"counters": [{"name": "x", "labels": {"s": "0"}, "value": 1.0}]},
            {"counters": [{"name": "x", "labels": {"s": "1"}, "value": 2.0}]},
        ]
        assert merge_metric_exports(exports) == merge_metric_exports(exports[::-1])

    def test_render_emits_sorted_typed_families(self):
        text = render_prometheus({
            "counters": [
                {"name": "b_total", "labels": {}, "value": 2.0},
                {"name": "a_total", "labels": {"shard": "0"}, "value": 1.0},
            ],
            "histograms": [{
                "name": "latency", "labels": {}, "count": 2, "total": 3.0,
                "mean": 1.5, "min": 1.0, "max": 2.0,
            }],
        })
        assert text == (
            "# TYPE a_total counter\n"
            'a_total{shard="0"} 1\n'
            "# TYPE b_total counter\n"
            "b_total 2\n"
            "# TYPE latency summary\n"
            "latency_count 2\n"
            "latency_sum 3\n"
            "latency_min 1\n"
            "latency_max 2\n"
        )

    def test_render_escapes_label_values(self):
        text = render_prometheus({
            "counters": [
                {"name": "x", "labels": {"q": 'say "hi"\n'}, "value": 1.0}
            ],
            "histograms": [],
        })
        assert 'x{q="say \\"hi\\"\\n"} 1' in text


class TestWireFormat:
    def test_digest_is_an_equality_witness(self, offline_records):
        records = list(offline_records.values())
        assert record_digest(records[0]) == record_digest(records[0])
        digests = {record_digest(record) for record in records}
        jsons = {canonical_record_json(record) for record in records}
        assert len(digests) == len(jsons)
        assert record_digest(None) is None

    def test_record_to_dict_serializes_enums(self, offline_records):
        record = next(iter(offline_records.values()))
        payload = record_to_dict(record)
        json.dumps(payload, default=str)  # JSON-safe end to end
        assert payload["db_id"] == record.db_id


class TestGatewayServing:
    def test_routing_matches_the_ring(self, gateway):
        layout = gateway.shard_layout()
        assert sorted(layout) == [0, 1]
        for shard, owned in layout.items():
            assert all(gateway.owner(db_id) == shard for db_id in owned)

    def test_responses_bit_identical_to_offline(
        self, gateway, workload, offline_records
    ):
        responses = gateway.serve(list(workload))
        assert len(responses) == len(workload)
        for request, response in zip(workload, responses):
            assert response.ok, response.error
            assert response.record == offline_records[request.key]

    def test_digest_mode_matches_full_mode(self, gateway, workload, offline_records):
        digests = gateway.serve_many(list(workload), mode="digest")
        for request, digest in zip(workload, digests):
            assert digest[0] == "ok"
            assert digest[4] == record_digest(offline_records[request.key])

    def test_small_chunks_preserve_request_order(
        self, gateway, workload, offline_records
    ):
        responses = gateway.serve_many(list(workload), chunk_size=3)
        for request, response in zip(workload, responses):
            assert response.record == offline_records[request.key]

    def test_parent_routing_counters_are_exact(self, gateway, workload):
        before = dict(gateway.stats.routed)
        gateway.serve(list(workload))
        routed = {
            shard: gateway.stats.routed[shard] - before.get(shard, 0)
            for shard in gateway.stats.routed
        }
        expected: dict[int, int] = {}
        for request in workload:
            owner = gateway.owner(request.db_id)
            expected[owner] = expected.get(owner, 0) + 1
        assert {s: n for s, n in routed.items() if n} == expected

    def test_unknown_mode_and_bad_chunk_size_rejected(self, gateway, workload):
        with pytest.raises(GatewayError):
            gateway.serve_many(list(workload), mode="records")
        with pytest.raises(GatewayError):
            gateway.serve_many(list(workload), chunk_size=0)

    def test_metrics_text_merges_worker_registries(self, gateway, workload):
        gateway.serve(list(workload))
        text = gateway.metrics_text()
        assert "# TYPE serve_requests counter" in text
        assert "# TYPE gateway_requests counter" in text
        assert text.endswith("\n")


class TestCrossTopologyEquivalence:
    """Satellite D: offline == single-process engine == gateway at 1/2/4."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_layouts_are_bit_identical_with_exact_counters(
        self, shards, small_dataset, workload, offline_records
    ):
        method = build_method(METHOD, seed=42)
        method.prepare(small_dataset)
        config = gateway_serve_config()
        from repro.serve import ServingEngine

        # Fill pass over the distinct keys, then the full trace: this is
        # the bench's structure, and it makes every cache counter exact
        # (one miss+store per distinct key, then one hit per request).
        seen: set = set()
        fill = [r for r in workload if not (r.key in seen or seen.add(r.key))]
        with ServingEngine(
            small_dataset, config, methods={METHOD: method}
        ) as engine:
            engine.serve(fill)
            engine_responses = engine.serve(list(workload))
        with ShardedGateway(
            small_benchmark_config(), config, shards=shards
        ) as gateway:
            gateway.serve(fill)
            gateway_responses = gateway.serve(list(workload))
            shard_stats = gateway.shard_stats()
        for request, from_engine, from_gateway in zip(
            workload, engine_responses, gateway_responses
        ):
            reference = offline_records[request.key]
            assert from_engine.record == reference
            assert from_gateway.record == reference
            assert from_gateway.cached
        distinct_by_shard: dict[int, int] = {}
        total_by_shard: dict[int, int] = {}
        for request in workload:
            owner = gateway.owner(request.db_id)
            total_by_shard[owner] = total_by_shard.get(owner, 0) + 1
        for request in fill:
            owner = gateway.owner(request.db_id)
            distinct_by_shard[owner] = distinct_by_shard.get(owner, 0) + 1
        for entry in shard_stats:
            shard = entry["shard"]
            assert entry["cache"]["misses"] == distinct_by_shard.get(shard, 0)
            assert entry["cache"]["stores"] == distinct_by_shard.get(shard, 0)
            assert entry["cache"]["hits"] == total_by_shard.get(shard, 0)
            assert entry["cache"]["invalidations"] == 0
            assert entry["engine"]["errors"] == 0


class TestSwitchPropagation:
    """Module-global switches cross the spawn boundary explicitly."""

    def test_disabled_switches_reach_workers(self):
        with pooling_disabled(), caches_disabled():
            with ShardedGateway(
                small_benchmark_config(), gateway_serve_config(), shards=1
            ) as gateway:
                health = gateway.healthz()
        assert health["status"] == "ok"
        (entry,) = health["shards"]
        assert entry["pooling"] is False
        assert entry["caches"] is False

    def test_default_switches_reach_workers(self, gateway):
        health = gateway.healthz()
        assert health["status"] == "ok"
        for entry in health["shards"]:
            assert entry["pooling"] is True
            assert entry["caches"] is True


class TestMutationPropagation:
    """apply_write / mark_mutated reach the owning shard's cache."""

    def test_apply_write_invalidates_owner_shard_cache(self, small_dataset, workload):
        from repro.serve.bench import _mutable_text_column

        request = workload[0]
        table, column = _mutable_text_column(
            small_dataset.databases[request.db_id].schema
        )
        with ShardedGateway(
            small_benchmark_config(), gateway_serve_config(), shards=2
        ) as gateway:
            first = gateway.ask(request.method, request.db_id, request.question)
            warm = gateway.ask(request.method, request.db_id, request.question)
            assert first.ok and not first.cached
            assert warm.ok and warm.cached
            result = gateway.apply_write(
                request.db_id,
                f"UPDATE {table} SET {column} = {column} || ' (edited)' "
                f"WHERE rowid IN (SELECT rowid FROM {table} LIMIT 1)",
            )
            assert result["affected"] == 1
            replay = gateway.ask(request.method, request.db_id, request.question)
            assert not replay.cached  # version-keyed entry went stale
            owner = gateway.owner(request.db_id)
            entry = next(
                e for e in gateway.shard_stats() if e["shard"] == owner
            )
            assert entry["cache"]["invalidations"] == 1
            assert gateway.stats.apply_writes == 1

    def test_attach_dataset_forwards_parent_mutations(self, workload):
        request = workload[0]
        parent = build_benchmark(small_benchmark_config())
        try:
            with ShardedGateway(
                small_benchmark_config(), gateway_serve_config(), shards=2
            ) as gateway:
                gateway.attach_dataset(parent)
                gateway.ask(request.method, request.db_id, request.question)
                before = gateway.invalidate(request.db_id)["data_version"]
                parent.databases[request.db_id].mark_mutated()
                assert gateway.stats.invalidations_forwarded == 2
                owner = gateway.owner(request.db_id)
                entry = next(
                    e for e in gateway.shard_stats() if e["shard"] == owner
                )
                # The first invalidation purged the only cached entry;
                # the forwarded one found nothing left to remove.
                assert entry["cache"]["invalidations"] == 1
                # data_version advanced once per event, so the parent's
                # mark_mutated demonstrably crossed the process boundary.
                after = gateway.invalidate(request.db_id)["data_version"]
                assert after == before + 2
            # close() detached the forwarder: further parent mutations
            # must not try to reach dead workers.
            parent.databases[request.db_id].mark_mutated()
        finally:
            parent.close()


class TestGatewayHTTP:
    def test_query_round_trips_the_record(
        self, gateway, workload, offline_records
    ):
        request = workload[0]
        # Warm the key first: the envelope carries a ``cached`` flag, so both
        # answers must come from the cache whatever ran before this test.
        gateway.serve([request])
        with GatewayHTTPServer(gateway) as server:
            with GatewayHTTPClient(server.host, server.port) as client:
                payload = client.query(request.method, request.db_id, request.question)
        expected = response_to_dict(
            next(
                r for r in gateway.serve([request])
            )
        )
        assert payload["record"] == record_to_dict(offline_records[request.key])
        assert payload["status"] == "ok"
        assert payload == expected

    def test_healthz_and_metrics_endpoints(self, gateway, workload):
        with GatewayHTTPServer(gateway) as server:
            with GatewayHTTPClient(server.host, server.port) as client:
                client.query(
                    workload[0].method, workload[0].db_id, workload[0].question
                )
                health = client.healthz()
                text = client.metrics_text()
        assert health["status"] == "ok"
        assert {entry["shard"] for entry in health["shards"]} == {0, 1}
        assert "# TYPE serve_requests counter" in text
        assert "# TYPE gateway_requests counter" in text

    def test_bad_requests_get_http_errors_not_crashes(self, gateway, workload):
        valid = {
            "method": workload[0].method,
            "db_id": workload[0].db_id,
            "question": workload[0].question,
        }
        # Fields of the wrong type are a bad body, not a shard error or a
        # dropped connection.
        wrong_types = [
            {**valid, "db_id": ["x"]},
            {**valid, "method": None},
            {**valid, "question": 5},
            {**valid, "deadline_s": "abc"},
            {**valid, "deadline_s": True},
            {**valid, "deadline_s": -1},
            {**valid, "deadline_s": [1]},
        ]
        typed_bodies = [json.dumps(body).encode() for body in wrong_types] + [
            # Non-finite and float-overflowing numbers that json accepts.
            json.dumps(valid)[:-1].encode() + suffix
            for suffix in (
                b', "deadline_s": NaN}',
                b', "deadline_s": Infinity}',
                b', "deadline_s": 1e400}',
                b', "deadline_s": 1' + b"0" * 400 + b"}",
            )
        ]
        with GatewayHTTPServer(gateway) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                conn.request("GET", "/nope")
                assert conn.getresponse().status == 404
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=10
                )
                conn.request(
                    "POST", "/query", body=b"not json",
                    headers={"Content-Type": "application/json"},
                )
                assert conn.getresponse().status == 400
                # Valid JSON that is not an object is a bad body too.
                for body in (b"[]", b"null", b"5", b'"x"', *typed_bodies):
                    conn = http.client.HTTPConnection(
                        server.host, server.port, timeout=10
                    )
                    conn.request(
                        "POST", "/query", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    assert response.status == 400, body
                    assert b"bad /query body" in response.read(), body
            finally:
                conn.close()
            # The server survives bad input and keeps serving, and every
            # well-typed deadline is still accepted.
            with GatewayHTTPClient(server.host, server.port) as client:
                assert client.healthz()["status"] == "ok"
                for deadline_s in (None, 0, 2.5, 30):
                    payload = client.query(
                        valid["method"], valid["db_id"], valid["question"],
                        deadline_s=deadline_s,
                    )
                    assert payload["status"] in {"ok", "timeout"}, deadline_s

    def test_bad_content_length_gets_400(self, gateway):
        with GatewayHTTPServer(gateway) as server:
            for length in (b"abc", b"-5"):
                with socket.create_connection(
                    (server.host, server.port), timeout=10
                ) as sock:
                    sock.sendall(
                        b"POST /query HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: " + length + b"\r\n\r\n{}"
                    )
                    reply = b""
                    while chunk := sock.recv(65536):
                        reply += chunk
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), (length, reply)
                assert json.loads(body) == {"error": "bad content-length"}
            with GatewayHTTPClient(server.host, server.port) as client:
                assert client.healthz()["status"] == "ok"


class TestGatewayLifecycle:
    def test_unstarted_gateway_refuses_requests(self):
        gateway = ShardedGateway(small_benchmark_config(), shards=1)
        with pytest.raises(GatewayError):
            gateway.ask(METHOD, "flights_100", "q")

    def test_close_is_idempotent_and_restart_is_refused(self):
        gateway = ShardedGateway(
            small_benchmark_config(), gateway_serve_config(), shards=1
        )
        gateway.start()
        gateway.close()
        gateway.close()
        with pytest.raises(GatewayError):
            gateway.start()

    def test_zero_shards_rejected(self):
        with pytest.raises(GatewayError):
            ShardedGateway(small_benchmark_config(), shards=0)
