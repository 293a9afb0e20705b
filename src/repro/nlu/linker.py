"""Schema linking: map natural-language phrases to schema elements.

This is the substrate behind both the NLU intent parser and the
design-space *Schema Linking* module (RESDSQL-style ranking): tables and
columns are indexed by their display phrases and matched by a blend of
token-set Jaccard similarity and normalized edit distance.

Each table's and column's display phrase is tokenized once, into a token
index keyed on the ``Table`` object itself rather than on the schema:
pruned sub-schemas are rebuilt per question but reuse their parent's
``Table`` objects, so they share its entries.  An entry is evicted when
its table is garbage-collected.  Tables are treated as immutable once
linked, which every schema producer in the package honours.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

from repro.schema.model import Column, DatabaseSchema, Table
from repro.utils.text import jaccard, normalized_similarity, singularize, tokenize_words


@dataclass(frozen=True)
class LinkedTable:
    """A table match with its linking score in [0, 1]."""

    table: Table
    score: float


@dataclass(frozen=True)
class LinkedColumn:
    """A column match (with owning table) and its linking score."""

    table: Table
    column: Column
    score: float


def _phrase_tokens(phrase: str) -> list[str]:
    return [singularize(token) for token in tokenize_words(phrase)]


def _token_similarity(tokens_a: list[str], joined_a: str, tokens_b: tuple[str, ...]) -> float:
    # ``joined_a`` is " ".join(tokens_a), hoisted out of per-element loops.
    token_score = jaccard(tokens_a, tokens_b)
    char_score = normalized_similarity(joined_a, " ".join(tokens_b))
    return 0.65 * token_score + 0.35 * char_score


def phrase_similarity(a: str, b: str) -> float:
    """Blend of token-set Jaccard and character-level similarity."""
    tokens_a = _phrase_tokens(a)
    return _token_similarity(tokens_a, " ".join(tokens_a), tuple(_phrase_tokens(b)))


# id(table) -> (weak reference to the table, display-phrase tokens of the
# table, of each of its columns in order).  A column's phrase in table
# context is table tokens + column tokens: tokenization never crosses the
# space that joins the two phrases.
_TokenEntry = tuple[weakref.ref, tuple[str, ...], tuple[tuple[str, ...], ...]]
_TOKEN_INDEX: dict[int, _TokenEntry] = {}
_TOKEN_INDEX_LOCK = threading.Lock()


def _table_tokens(table: Table) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Display-phrase tokens of ``table`` and of its columns, built once."""
    key = id(table)
    entry = _TOKEN_INDEX.get(key)
    if entry is None:
        with _TOKEN_INDEX_LOCK:
            entry = _TOKEN_INDEX.get(key)
            if entry is None:
                entry = (
                    weakref.ref(table, lambda _, key=key: _TOKEN_INDEX.pop(key, None)),
                    tuple(_phrase_tokens(table.display_name)),
                    tuple(tuple(_phrase_tokens(c.display_name)) for c in table.columns),
                )
                _TOKEN_INDEX[key] = entry
    return entry[1], entry[2]


class SchemaLinker:
    """Ranks schema elements against NL phrases for one database."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema

    # -- tables -----------------------------------------------------------

    def rank_tables(self, phrase: str) -> list[LinkedTable]:
        """All tables ranked by similarity to ``phrase`` (best first)."""
        tokens = _phrase_tokens(phrase)
        joined = " ".join(tokens)
        ranked = [
            LinkedTable(
                table=table, score=_token_similarity(tokens, joined, _table_tokens(table)[0])
            )
            for table in self.schema.tables
        ]
        ranked.sort(key=lambda lt: (-lt.score, lt.table.name))
        return ranked

    def link_table(self, phrase: str, threshold: float = 0.5) -> LinkedTable | None:
        """Best table match above ``threshold``, or None."""
        ranked = self.rank_tables(phrase)
        if ranked and ranked[0].score >= threshold:
            return ranked[0]
        return None

    # -- columns ----------------------------------------------------------

    def rank_columns(
        self, phrase: str, tables: list[str] | None = None
    ) -> list[LinkedColumn]:
        """All columns (optionally restricted to ``tables``) ranked by similarity.

        Column phrases are scored both standalone and with the owning
        table's name prefixed, so "department name" finds
        ``departments.department_name`` and plain ``name`` columns match
        "student name" through their table context.
        """
        wanted = {name.lower() for name in tables} if tables else None
        tokens = _phrase_tokens(phrase)
        joined = " ".join(tokens)
        ranked: list[LinkedColumn] = []
        for table in self.schema.tables:
            if wanted is not None and table.name.lower() not in wanted:
                continue
            table_tokens, column_tokens = _table_tokens(table)
            for column, own_tokens in zip(table.columns, column_tokens):
                direct = _token_similarity(tokens, joined, own_tokens)
                contextual = _token_similarity(tokens, joined, table_tokens + own_tokens)
                score = max(direct, 0.92 * contextual)
                ranked.append(LinkedColumn(table=table, column=column, score=score))
        ranked.sort(key=lambda lc: (-lc.score, lc.table.name, lc.column.name))
        return ranked

    def link_column(
        self,
        phrase: str,
        tables: list[str] | None = None,
        threshold: float = 0.45,
    ) -> LinkedColumn | None:
        """Best column match above ``threshold``, or None."""
        ranked = self.rank_columns(phrase, tables)
        if ranked and ranked[0].score >= threshold:
            return ranked[0]
        return None

    # -- question-level linking (RESDSQL-style pruning) --------------------

    def relevant_tables(self, question: str, top_k: int = 4) -> list[str]:
        """Tables likely referenced by ``question``, for prompt pruning.

        Scores each table by the best similarity between any of its
        phrases (table name, column names) and the question's token
        windows; returns up to ``top_k`` table names, always at least one.
        """
        question_set = set(_phrase_tokens(question))
        scores: list[tuple[float, str]] = []
        for table in self.schema.tables:
            best = self._table_evidence(table, question_set)
            scores.append((best, table.name))
        scores.sort(key=lambda pair: (-pair[0], pair[1]))
        selected = [name for score, name in scores[:top_k] if score > 0.2]
        if not selected:
            selected = [scores[0][1]]
        return selected

    def _table_evidence(self, table: Table, question_set: set[str]) -> float:
        table_tokens, column_tokens = _table_tokens(table)
        table_set = set(table_tokens)
        best = len(table_set & question_set) / max(len(table_set), 1)
        for tokens in column_tokens:
            column_set = set(tokens)
            if not column_set:
                continue
            overlap = len(column_set & question_set) / len(column_set)
            best = max(best, 0.9 * overlap)
        return best
