"""A populated database bound to a :class:`DatabaseSchema`.

``Database`` is an engine-agnostic facade: it owns the schema model,
the ``lock``, the monotonic ``data_version`` counter, the mutation
listeners, and the value caches used by BRIDGE-style DB-content
matching, while connections, DDL materialization, writes, and read-only
execution live behind a pluggable
:class:`~repro.dbengine.backends.ExecutionBackend` (``sqlite`` by
default; ``duckdb`` when the optional package is installed).
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

from repro.dbengine.backends.base import ExecutionBackend, create_backend
from repro.dbengine.pool import DEFAULT_POOL_SIZE, ReadConnectionPool
from repro.errors import ExecutionError, SchemaError
from repro.schema.ddl import render_schema_ddl
from repro.schema.model import ColumnType, DatabaseSchema

_SERIALS = itertools.count()


class Database:
    """A live database plus its in-memory schema model."""

    def __init__(
        self,
        schema: DatabaseSchema,
        path: str | Path | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        backend: str | ExecutionBackend = "sqlite",
    ) -> None:
        self.schema = schema
        # Process-unique and, unlike ``id()``, never reused: process-global
        # memos key on it, because two live datasets may share a db_id.
        self.serial = next(_SERIALS)
        self._path = str(path) if path is not None else None
        if isinstance(backend, str):
            backend = create_backend(backend, pool_size=pool_size)
        self.backend = backend
        self.backend.bind(self)
        self.lock = threading.RLock()
        self.backend.connect(self._path)
        self._create_tables()
        self._value_cache: dict[tuple[str, str, int], list[object]] = {}
        # Monotonic content-version counter; execution caches key on it so
        # any mutation invalidates every cached result for this database.
        self.data_version = 0
        # Callbacks fired (with (db_id, new_version)) after every
        # data_version bump; the serving response cache subscribes here.
        self._mutation_listeners: list[Callable[[str, int], None]] = []

    # -- lifecycle ------------------------------------------------------

    def _create_tables(self) -> None:
        if self.backend.existing_tables():
            return  # file-backed database already materialized
        ddl = render_schema_ddl(self.schema)
        statements = [part.strip() for part in ddl.split("\n\n") if part.strip()]
        self.backend.materialize(statements)

    def close(self) -> None:
        with self.lock:
            self.backend.close()

    @property
    def connection(self):  # noqa: ANN201 - engine-native handle
        """The backend's master connection (``sqlite3.Connection`` for
        the default backend).  Direct writers must call
        :meth:`mark_mutated` themselves."""
        return self.backend.connection

    @property
    def backend_name(self) -> str:
        """Registry name of the execution backend (e.g. ``"sqlite"``)."""
        return self.backend.capabilities.name

    def read_pool(self) -> ReadConnectionPool:
        """The lazily-created read-only replica pool for this database.

        Only meaningful for replica-pool backends (sqlite); MVCC
        backends raise — their reads need no replicas.
        """
        return self.backend.read_pool()

    def pool_stats(self) -> dict[str, int]:
        """Deterministic read-path counters (all zero before the first read)."""
        return self.backend.read_stats()

    def mark_mutated(self) -> None:
        """Record an out-of-band content mutation (e.g. a bulk restore).

        Bumps ``data_version`` and drops value caches, so execution memos
        and pooled replicas refresh before their next use, then notifies
        every registered mutation listener.  ``insert_rows`` and
        ``apply_write`` call this implicitly — strictly *after* their
        commit succeeded, so listeners never observe a version bump for
        a write that rolled back; callers writing through ``connection``
        directly (restores, migrations) must call it themselves.
        """
        with self.lock:
            self._value_cache.clear()
            self.data_version += 1
            version = self.data_version
            listeners = list(self._mutation_listeners)
        for callback in listeners:
            callback(self.db_id, version)

    def apply_write(self, sql: str, params: Sequence[object] = ()) -> int:
        """Execute one DML statement on the master connection and commit.

        The canonical write path for online mutations (the serving
        gateway routes ``/apply`` requests here): the statement runs
        under the database lock, commits, and then :meth:`mark_mutated`
        bumps ``data_version`` and notifies listeners so response caches
        and pooled replicas invalidate.  A failed write rolls back and
        raises without bumping the version or firing listeners — a
        rejected mutation must not invalidate response caches.  Returns
        the affected row count.
        """
        with self.lock:
            try:
                affected = self.backend.apply_write(sql, tuple(params))
            except ExecutionError as exc:
                raise ExecutionError(f"write failed on {self.db_id}: {exc}") from exc
        self.mark_mutated()
        return affected

    def add_mutation_listener(self, callback: Callable[[str, int], None]) -> None:
        """Subscribe ``callback(db_id, new_version)`` to content mutations.

        Listeners run on the mutating thread, after the version bump is
        visible; they must not acquire this database's lock (callers of
        ``insert_rows`` still hold it re-entrantly when they fire).
        """
        with self.lock:
            self._mutation_listeners.append(callback)

    def remove_mutation_listener(self, callback: Callable[[str, int], None]) -> None:
        """Unsubscribe a listener; unknown callbacks are ignored."""
        with self.lock:
            try:
                self._mutation_listeners.remove(callback)
            except ValueError:
                pass

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def db_id(self) -> str:
        return self.schema.db_id

    # -- loading --------------------------------------------------------

    def insert_rows(self, table_name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bulk-insert rows into ``table_name``; returns the row count.

        The whole batch commits or rolls back as one unit: on failure no
        partial rows survive, ``data_version`` does not advance, and no
        mutation listener fires.
        """
        if not self.schema.has_table(table_name):
            raise SchemaError(f"unknown table {table_name!r}")
        columns = self.schema.table(table_name).columns
        placeholders = ", ".join("?" for __ in columns)
        column_names = ", ".join(column.name for column in columns)
        sql = f"INSERT INTO {table_name} ({column_names}) VALUES ({placeholders})"
        rows = list(rows)
        with self.lock:
            try:
                self.backend.insert_many(sql, rows)
            except ExecutionError as exc:
                raise ExecutionError(f"insert into {table_name} failed: {exc}", sql) from exc
            self.mark_mutated()
        return len(rows)

    def row_count(self, table_name: str) -> int:
        with self.lock:
            rows = self.backend.run(f"SELECT COUNT(*) FROM {table_name}")
            return int(rows[0][0])

    # -- content access (BRIDGE-style value matching) --------------------

    def column_values(self, table_name: str, column_name: str, limit: int = 2000) -> list[object]:
        """Return distinct values of a column (cached per requested limit)."""
        key = (table_name.lower(), column_name.lower(), int(limit))
        with self.lock:
            if key not in self._value_cache:
                rows = self.backend.run(
                    f"SELECT DISTINCT {column_name} FROM {table_name} LIMIT {int(limit)}"
                )
                self._value_cache[key] = [row[0] for row in rows]
            return self._value_cache[key]

    def text_columns(self) -> list[tuple[str, str]]:
        """Return (table, column) pairs for text-typed columns."""
        return [
            (table.name, column.name)
            for table in self.schema.tables
            for column in table.columns
            if column.col_type in (ColumnType.TEXT, ColumnType.DATE)
        ]

    def sample_values(self, table_name: str, column_name: str, count: int = 3) -> list[object]:
        """Return up to ``count`` example values for prompt comments."""
        values = self.column_values(table_name, column_name)
        return values[:count]


def clone_database(
    database: Database,
    backend: str,
    pool_size: int = DEFAULT_POOL_SIZE,
) -> Database:
    """Materialize ``database``'s schema and content on another backend.

    Used by the cross-engine differential oracle: the clone starts at
    ``data_version == 1`` per populated table (its own counter), so
    callers compare *content*, never version counters, across engines.
    """
    clone = Database(database.schema, backend=backend, pool_size=pool_size)
    for table in database.schema.tables:
        with database.lock:
            rows = database.backend.run(f"SELECT * FROM {table.name}")
        if rows:
            clone.insert_rows(table.name, rows)
    return clone
