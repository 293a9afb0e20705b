"""Seeded input generators: pass seeds, serving traffic and probe writes.

Everything here is a pure function of the benchmark seed and the built
dataset, so the same seed always yields the same inputs.  The program
under test only ever receives the generated requests and writes.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass


def dataset_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th dataset a run builds."""
    return seed * 1000 + index


def rng_for(seed: int, *labels: object) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def question_key(question: str) -> str:
    """Whitespace/case-insensitive identity of a question."""
    return " ".join(question.split()).casefold()


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one open-loop serving run."""

    rate_rps: float
    seconds: float
    fresh_share: float  # share of reads whose key has not been requested before
    hot_keys: int       # size of the Zipf-popular key set
    zipf_s: float


@dataclass(frozen=True, slots=True)
class Read:
    at: float  # seconds after the start of the run
    method: str
    db_id: str
    question: str
    fresh: bool

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.method, self.db_id, self.question)


@dataclass(frozen=True, slots=True)
class Write:
    db_id: str
    sql: str
    params: tuple
    read_sql: str  # reads the written row back


def keys_of(examples, methods) -> list[tuple[str, str, str]]:
    seen = set()
    keys = []
    for example in examples:
        for method in methods:
            identity = (method, example.db_id, question_key(example.question))
            if identity not in seen:
                seen.add(identity)
                keys.append((method, example.db_id, example.question))
    return keys


class _Zipf:
    def __init__(self, items: list, s: float) -> None:
        self.items = items
        cumulative, total = [], 0.0
        for rank in range(len(items)):
            total += 1.0 / (rank + 1) ** s
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def draw(self, rng: random.Random):
        index = bisect.bisect_left(self._cumulative, rng.random() * self._total)
        return self.items[min(index, len(self.items) - 1)]


def hot_keys(dataset, methods: tuple[str, ...], spec: TrafficSpec, seed: int) -> list:
    """The Zipf-popular keys, most popular first, drawn from both splits."""
    keys = keys_of(dataset.dev_examples + dataset.train_examples, methods)
    rng_for(seed, "hot").shuffle(keys)
    return keys[: spec.hot_keys]


def reads(dataset, methods: tuple[str, ...], spec: TrafficSpec, seed: int) -> list[Read]:
    """Poisson arrivals: a Zipf mix over the hot keys plus first-seen keys.

    First-seen keys are the other dev and train keys, each used once, so
    the miss share stays steady instead of decaying as the cache fills.
    Exactly ``fresh_share`` of the arrivals, at random positions, are
    first-seen, and their methods take turns, as in repro.serve.workload:
    drawn independently, the count and the method mix of a run's misses
    varied from seed to seed and set the tail.
    """
    rng = rng_for(seed, "reads")
    hot = hot_keys(dataset, methods, spec, seed)
    hot_ids = {(m, d, question_key(q)) for m, d, q in hot}
    fresh = [
        key for key in keys_of(dataset.dev_examples + dataset.train_examples, methods)
        if (key[0], key[1], question_key(key[2])) not in hot_ids
    ]
    rng.shuffle(fresh)
    by_method = [[key for key in fresh if key[0] == method] for method in methods]
    fresh = [key for turn in zip(*by_method) for key in turn]
    arrivals = []
    at = rng.expovariate(spec.rate_rps)
    while at < spec.seconds:
        arrivals.append(at)
        at += rng.expovariate(spec.rate_rps)
    first_seen = set(rng.sample(range(len(arrivals)), round(spec.fresh_share * len(arrivals))))
    if len(first_seen) > len(fresh):
        raise ValueError("traffic needs more first-seen keys than the dataset has")
    zipf = _Zipf(hot, spec.zipf_s)
    out: list[Read] = []
    fresh_keys = iter(fresh)
    for number, at in enumerate(arrivals):
        if number in first_seen:
            out.append(Read(at, *next(fresh_keys), True))
        else:
            out.append(Read(at, *zipf.draw(rng), False))
    return out


def write_targets(database) -> list[tuple[str, str, list[int]]]:
    """``(table, column, rowids)`` that a content-preserving write may touch.

    Prefers a non-key, non-foreign-key column of each table with rows.
    """
    schema = database.schema
    fk_columns = set()
    for fk in schema.foreign_keys:
        fk_columns.add((fk.source_table.lower(), fk.source_column.lower()))
        fk_columns.add((fk.target_table.lower(), fk.target_column.lower()))
    targets = []
    for table in schema.tables:
        columns = [
            c.name for c in table.columns
            if not c.is_primary_key and (table.name.lower(), c.name.lower()) not in fk_columns
        ] or [c.name for c in table.columns]
        with database.lock:
            rowids = [row[0] for row in database.connection.execute(
                f"SELECT rowid FROM {table.name} ORDER BY rowid"
            )]
        if rowids:
            targets.append((table.name, columns[0], rowids))
    return targets


def writes(dataset, seed: int, count: int) -> list[Write]:
    """``count`` content-preserving ``UPDATE t SET c = c`` statements, each with a read-back.

    Each write goes to a database drawn uniformly from the dataset.
    """
    rng = rng_for(seed, "writes")
    databases = sorted(dataset.databases)
    targets: dict[str, list] = {}
    out: list[Write] = []
    while len(out) < count:
        db_id = rng.choice(databases)
        if db_id not in targets:
            targets[db_id] = write_targets(dataset.database(db_id))
        table, column, rowids = rng.choice(targets[db_id])
        rowid = rng.choice(rowids)
        out.append(Write(
            db_id, f"UPDATE {table} SET {column} = {column} WHERE rowid = ?", (rowid,),
            f"SELECT {column} FROM {table} WHERE rowid = {rowid}",
        ))
    return out
