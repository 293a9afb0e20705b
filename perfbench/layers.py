"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each layer (see ``TARGETS``)
and times every call through a per-thread span stack.  A layer's *self*
time is its wrapped time minus the time of the wrapped calls made inside
it, so the self times of nested layers add up to the traced wall time.

Wrapping follows name binding: a function imported by name
(``from repro.utils.text import levenshtein``) is looked up in the
importing module, so every ``repro`` module attribute bound to the
original function object is replaced, and methods are replaced on their
class.  ``install`` returns a handle whose ``restore`` puts every
original back.

Spans (layer, id, parent id, root id, thread, start, end) stay in memory
and are written out by ``Tracer.write_spans`` when the run ends.  The two
kernel layers, edit distance and tokenization, are called hundreds of
thousands of times per pass, so they are aggregated (calls, self time)
but not kept as individual spans; their time is still subtracted from the
enclosing span's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from time import perf_counter

# layer -> list of (module, attribute path).  "Class.method" paths wrap the
# method on its class; plain names wrap every repro module attribute bound
# to that function.
TARGETS: dict[str, list[tuple[str, str]]] = {
    "core.evaluate": [("repro.core.evaluator", "Evaluator.evaluate_example")],
    "methods.predict": [("repro.methods.base", "PipelineMethod.predict")],
    "modules.prompt_build": [("repro.modules.prompts", "build_prompt")],
    "modules.schema_linking": [("repro.modules.schema_linking", "link_schema")],
    "modules.fewshot": [
        ("repro.modules.fewshot", "select_examples"),
        ("repro.modules.retrieval", "FewShotIndex.select"),
    ],
    "modules.db_content": [("repro.modules.db_content", "match_db_content")],
    "llm.generate": [
        ("repro.llm.model", "SimulatedLanguageModel.generate_many"),
        ("repro.llm.model", "SimulatedLanguageModel.generate"),
    ],
    "nlu.parse": [("repro.nlu.intent_parser", "IntentParser.parse")],
    "nlu.link": [
        ("repro.nlu.linker", "SchemaLinker.rank_columns"),
        ("repro.nlu.linker", "SchemaLinker.relevant_tables"),
    ],
    "nlu.edit_distance": [("repro.utils.text", "levenshtein")],
    "nlu.tokenize": [
        ("repro.utils.text", "tokenize_words"),
        ("repro.utils.text", "singularize"),
    ],
    "sqlkit.parse": [("repro.sqlkit.parser", "parse_select")],
    "sqlkit.exact_match": [("repro.sqlkit.exact_match", "exact_match")],
    "dbengine.execute": [("repro.dbengine.executor", "execute_sql")],
    "serve.submit": [("repro.serve.engine", "ServingEngine.submit")],
}

# Aggregated only: too many calls to keep one span each.
KERNELS = frozenset({"nlu.edit_distance", "nlu.tokenize"})

# Extra counters bumped by wrappers:
#   llm.draws: one per decode draw (generate_many takes a list of draws).
#   core.gold_executions: execute_sql as looked up by the evaluator, which
#   calls it only for gold queries when timing is off.
DRAWS = "llm.draws"
GOLD = "core.gold_executions"


class _ThreadState:
    __slots__ = ("index", "stack", "agg", "spans", "counters", "next_id")

    def __init__(self, index: int) -> None:
        self.index = index
        # Each frame: [child_seconds, span_id, root_id].
        self.stack: list[list] = []
        self.agg: dict[str, list[float]] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.next_id = 0


class Tracer:
    """Span stacks per thread plus per-layer (calls, wall, self) totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def wrap(self, layer: str, fn, counter: str | None = None, count=None):
        """``fn`` timed as ``layer``; ``counter`` += ``count(args)`` (or 1)."""
        keep_spans = layer not in KERNELS
        state_of = self._state

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if keep_spans:
                span_id = (state.index << 32) | state.next_id
                state.next_id += 1
                root_id = stack[-1][2] if stack else span_id
                parent_id = stack[-1][1] if stack else -1
                frame = [0.0, span_id, root_id]
            else:
                frame = [0.0, -1, stack[-1][2] if stack else -1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                totals = state.agg.get(layer)
                if totals is None:
                    totals = state.agg[layer] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if keep_spans:
                    state.spans.append(
                        (layer, span_id, parent_id, root_id, state.index, start, end)
                    )
                if counter is not None:
                    amount = 1 if count is None else count(args, kwargs)
                    state.counters[counter] = state.counters.get(counter, 0) + amount

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls``, ``wall_s`` and ``self_s`` over every thread."""
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, (calls, wall, self_s) in state.agg.items():
                row = merged.setdefault(layer, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["wall_s"] += wall
                row["self_s"] += self_s
        return merged

    def counters(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def write_spans(self, path) -> int:
        """Write every kept span as one JSON array per line; returns the count."""
        with self._lock:
            states = list(self._states)
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                ["layer", "span_id", "parent_id", "root_id", "thread", "start", "end"]
            ) + "\n")
            for state in states:
                for span in state.spans:
                    handle.write(json.dumps(span) + "\n")
                    written += 1
        return written


def _draws(args, kwargs) -> int:
    # generate_many(self, prompt, database, draws, ...)
    return len(kwargs["draws"] if "draws" in kwargs else args[3])


# Counters bumped by a method wrapper: attribute path -> (counter, amount).
_METHOD_COUNTERS = {
    "SimulatedLanguageModel.generate_many": (DRAWS, _draws),
    "SimulatedLanguageModel.generate": (DRAWS, None),
}


class Installed:
    """Handle on installed wrappers; ``restore`` undoes every replacement."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every ``TARGETS`` entry in all loaded ``repro`` modules."""
    installed = Installed()
    for layer, entries in TARGETS.items():
        for module_name, path in entries:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method_name = path.split(".")
                owner = getattr(module, class_name)
                counter, count = _METHOD_COUNTERS.get(path, (None, None))
                installed.replace(owner, method_name, tracer.wrap(
                    layer, owner.__dict__[method_name], counter, count
                ))
                continue
            original = getattr(module, path)
            plain = tracer.wrap(layer, original)
            gold = tracer.wrap(layer, original, GOLD) if layer == "dbengine.execute" else None
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        wrapper = gold if (gold and name == "repro.core.evaluator") else plain
                        installed.replace(loaded, attr, wrapper)
    return installed

