"""Which end-to-end metric each per-layer metric should move, and where.

``BENCHMARK.json`` declares every metric's name, unit, direction and
bound, and each workload's reason; it has no room for this map.  For each
per-layer metric: its layer (the name's first part), the end-to-end
metrics an optimization of that layer should move, as ``metric@workload``,
and the pairs predicted not to move.  ``test_perfbench.py`` checks that
the map covers exactly the declared per-layer metrics.

"op" in a per-layer unit is one evaluated example on eval-cold and one
measured read request on serve-reads, so values compare across runs of
different length.
"""

from __future__ import annotations

_NLU = ("eval_eps@eval-cold", "eval_p99_ms@eval-cold",
        "serve_miss_p50_ms@serve-reads")
_NLU_SAME = ("serve_p50_ms@serve-reads",)
_MODULES = ("eval_eps@eval-cold",)
_PREFIX = ("eval_eps@eval-cold", "serve_miss_p50_ms@serve-reads")
_LLM = ("eval_eps@eval-cold", "serve_miss_p50_ms@serve-reads")
_SQLKIT = ("eval_eps@eval-cold",)
_DB = ("serve_miss_p50_ms@serve-reads", "write_p50_ms@serve-reads",
       "write_p95_ms@serve-reads")
_CORE = ("eval_eps@eval-cold",)
_CACHE = ("serve_p50_ms@serve-reads",)
# Queueing sets the serving tail, which is not declared (see README.md);
# of the declared metrics it moves the miss latency.
_QUEUE = ("serve_miss_p50_ms@serve-reads",)

# name -> (should move, predicted not to move)
LAYER_MAP: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "nlu.parse.calls": (_NLU, _NLU_SAME),
    "nlu.parse.self_ms": (_NLU, _NLU_SAME),
    "nlu.link.self_ms": (_NLU, _NLU_SAME),
    "nlu.edit_distance.calls": (_NLU, _NLU_SAME),
    "nlu.edit_distance.self_ms": (_NLU, _NLU_SAME),
    "nlu.tokenize.self_ms": (_NLU, _NLU_SAME),
    "modules.schema_linking.self_ms": (_MODULES, ()),
    "modules.fewshot.self_ms": (_MODULES, ()),
    "modules.prompt_build.self_ms": (_MODULES, ()),
    "modules.db_content.self_ms": (_MODULES, ()),
    "modules.prefix_cache.hit_ratio": (_PREFIX, ()),
    "llm.generate.calls": (_LLM, ()),
    "llm.generate.self_ms": (_LLM, ()),
    "llm.draws_per_call": (_LLM, ()),
    "sqlkit.parse.calls": (_SQLKIT, ()),
    "sqlkit.parse.self_ms": (_SQLKIT, ()),
    "sqlkit.exact_match.self_ms": (_SQLKIT, ()),
    "dbengine.execute.calls": (_DB, ()),
    "dbengine.execute.self_ms": (_DB, ()),
    "dbengine.exec_memo.hit_ratio": (_DB, ()),
    "dbengine.pool.checkouts": (_DB, ()),
    # After warm start no replica goes stale without a write.
    "dbengine.pool.refreshes": (_DB, ("zero@serve-reads",)),
    "dbengine.pool.waits": (_DB, ()),
    "methods.predict.self_ms": (_CORE, ()),
    "core.evaluate.self_ms": (_CORE, ()),
    "core.gold_executions": (_CORE, ()),
    "serve.cache.hit_ratio": (_CACHE, ()),
    "serve.submit.self_ms": (_CACHE, ()),
    "serve.coalesce_hits": (_QUEUE, ()),
    "serve.computed": (_QUEUE, ()),
    "serve.rejected": (_QUEUE, ()),
    "serve.queue_wait_p50_ms": (_QUEUE, ()),
    "serve.queue_wait_p99_ms": (_QUEUE, ()),
    "serve.service_p50_ms": (_QUEUE, ()),
    "serve.gen_lag_max_ms": (_QUEUE, ()),
    # Traced minus untraced CPU time of the measured phase, per workload.
    "obs.trace_overhead_pct": ((), ()),
}
