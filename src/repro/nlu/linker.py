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

``link_table`` and ``link_column`` want only the best match, so they
bound each candidate's score by its Jaccard term plus the length bound
on its edit-distance term (``repro.utils.text.length_bound``) and
compute edit distances in descending bound order, stopping once no
bound can reach the threshold or the best score so far.  The result is
exactly the head of ``rank_tables``/``rank_columns``, thresholded.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

from repro.schema.model import Column, DatabaseSchema, Table
from repro.utils.text import (
    jaccard,
    length_bound,
    normalized_similarity,
    singularize,
    tokenize_words,
)


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


# A display phrase as (tokens, " ".join(tokens)).
_Phrase = tuple[tuple[str, ...], str]

def _blend(token_score: float, char_score: float) -> float:
    return 0.65 * token_score + 0.35 * char_score


def _token_similarity(
    tokens_a: list[str], joined_a: str, tokens_b: tuple[str, ...], joined_b: str
) -> float:
    # ``joined_x`` is " ".join(tokens_x), hoisted out of per-element loops.
    return _blend(jaccard(tokens_a, tokens_b), normalized_similarity(joined_a, joined_b))


def _column_score(
    tokens: list[str], joined: str, own: _Phrase, context: _Phrase
) -> float:
    """A column's score: its own phrase, or (discounted) with its table's."""
    return max(
        _token_similarity(tokens, joined, *own),
        0.92 * _token_similarity(tokens, joined, *context),
    )


def _similarity_bound(tokens_a: list[str], joined_a: str, phrase_b: _Phrase) -> float:
    """Upper bound on ``_token_similarity(tokens_a, joined_a, *phrase_b)``.

    Exact Jaccard plus the length bound on the edit-distance term.
    Phrase tokens are lowercase ASCII, so the joined lengths are the
    lowercased lengths ``normalized_similarity`` divides by.
    """
    tokens_b, joined_b = phrase_b
    return _blend(jaccard(tokens_a, tokens_b), length_bound(len(joined_a), len(joined_b)))


def phrase_similarity(a: str, b: str) -> float:
    """Blend of token-set Jaccard and character-level similarity."""
    tokens_a = _phrase_tokens(a)
    tokens_b = tuple(_phrase_tokens(b))
    return _token_similarity(tokens_a, " ".join(tokens_a), tokens_b, " ".join(tokens_b))


def _best_match(
    candidates: list[tuple[float, tuple, tuple]],
    threshold: float,
    score_of: Callable[[tuple], float],
) -> tuple[float, tuple] | None:
    """``(score, item)`` of the candidate ranked first by ``(-score, key)``,
    if its score reaches ``threshold``.

    Each candidate is ``(bound, key, item)`` with ``bound`` never below
    ``score_of(item)``.  Candidates are scored in descending bound order
    until no unscored one can reach ``threshold`` or the best score so
    far, so the result is the head of the full ranking, thresholded.
    """
    best: tuple[float, tuple, tuple] | None = None
    bar = threshold
    for bound, key, item in sorted(candidates, key=itemgetter(0), reverse=True):
        if bound < bar:
            break
        score = score_of(item)
        if score >= bar and (best is None or score > best[0] or key < best[1]):
            best = (score, key, item)
            bar = score
    return None if best is None else (best[0], best[2])


# id(table) -> (weak reference to the table, display phrase of the table,
# of each of its columns in order, and of each column in table context).
# A column's phrase in table context is table tokens + column tokens:
# tokenization never crosses the space that joins the two phrases.
_TokenEntry = tuple[weakref.ref, _Phrase, tuple[_Phrase, ...], tuple[_Phrase, ...]]
_TOKEN_INDEX: dict[int, _TokenEntry] = {}
_TOKEN_INDEX_LOCK = threading.Lock()


def _phrase(tokens: tuple[str, ...]) -> _Phrase:
    return tokens, " ".join(tokens)


def _table_phrases(
    table: Table,
) -> tuple[_Phrase, tuple[_Phrase, ...], tuple[_Phrase, ...]]:
    """Display phrases of ``table``, of its columns and of its columns in context."""
    key = id(table)
    entry = _TOKEN_INDEX.get(key)
    if entry is None:
        with _TOKEN_INDEX_LOCK:
            entry = _TOKEN_INDEX.get(key)
            if entry is None:
                table_tokens = tuple(_phrase_tokens(table.display_name))
                column_tokens = [tuple(_phrase_tokens(c.display_name)) for c in table.columns]
                entry = (
                    weakref.ref(table, lambda _, key=key: _TOKEN_INDEX.pop(key, None)),
                    _phrase(table_tokens),
                    tuple(_phrase(tokens) for tokens in column_tokens),
                    tuple(_phrase(table_tokens + tokens) for tokens in column_tokens),
                )
                _TOKEN_INDEX[key] = entry
    return entry[1], entry[2], entry[3]


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
                table=table,
                score=_token_similarity(tokens, joined, *_table_phrases(table)[0]),
            )
            for table in self.schema.tables
        ]
        ranked.sort(key=lambda lt: (-lt.score, lt.table.name))
        return ranked

    def link_table(self, phrase: str, threshold: float = 0.5) -> LinkedTable | None:
        """Best table match above ``threshold``, or None.

        Equal to ``rank_tables(phrase)[0]`` when that reaches ``threshold``,
        but computes edit distances only for tables whose bound can win.
        """
        tokens = _phrase_tokens(phrase)
        joined = " ".join(tokens)
        candidates = []
        for index, table in enumerate(self.schema.tables):
            own = _table_phrases(table)[0]
            candidates.append(
                (_similarity_bound(tokens, joined, own), (table.name, index), (table, own))
            )
        best = _best_match(
            candidates, threshold, lambda item: _token_similarity(tokens, joined, *item[1])
        )
        if best is None:
            return None
        return LinkedTable(table=best[1][0], score=best[0])

    # -- columns ----------------------------------------------------------

    def _tables(self, tables: list[str] | None) -> list[Table]:
        if not tables:
            return self.schema.tables
        wanted = {name.lower() for name in tables}
        return [table for table in self.schema.tables if table.name.lower() in wanted]

    def rank_columns(
        self, phrase: str, tables: list[str] | None = None
    ) -> list[LinkedColumn]:
        """All columns (optionally restricted to ``tables``) ranked by similarity.

        Column phrases are scored both standalone and with the owning
        table's name prefixed, so "department name" finds
        ``departments.department_name`` and plain ``name`` columns match
        "student name" through their table context.
        """
        tokens = _phrase_tokens(phrase)
        joined = " ".join(tokens)
        ranked: list[LinkedColumn] = []
        for table in self._tables(tables):
            _, own_phrases, context_phrases = _table_phrases(table)
            for column, own, context in zip(table.columns, own_phrases, context_phrases):
                score = _column_score(tokens, joined, own, context)
                ranked.append(LinkedColumn(table=table, column=column, score=score))
        ranked.sort(key=lambda lc: (-lc.score, lc.table.name, lc.column.name))
        return ranked

    def link_column(
        self,
        phrase: str,
        tables: list[str] | None = None,
        threshold: float = 0.45,
    ) -> LinkedColumn | None:
        """Best column match above ``threshold``, or None.

        Equal to ``rank_columns(phrase, tables)[0]`` when that reaches
        ``threshold``, but computes edit distances only for columns whose
        bound can win.
        """
        tokens = _phrase_tokens(phrase)
        joined = " ".join(tokens)
        candidates = []
        for table in self._tables(tables):
            _, own_phrases, context_phrases = _table_phrases(table)
            for column, own, context in zip(table.columns, own_phrases, context_phrases):
                bound = max(
                    _similarity_bound(tokens, joined, own),
                    0.92 * _similarity_bound(tokens, joined, context),
                )
                key = (table.name, column.name, len(candidates))
                candidates.append((bound, key, (table, column, own, context)))
        best = _best_match(
            candidates, threshold, lambda item: _column_score(tokens, joined, *item[2:])
        )
        if best is None:
            return None
        table, column = best[1][:2]
        return LinkedColumn(table=table, column=column, score=best[0])

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
        (table_tokens, _), column_phrases, _ = _table_phrases(table)
        table_set = set(table_tokens)
        best = len(table_set & question_set) / max(len(table_set), 1)
        for tokens, _ in column_phrases:
            column_set = set(tokens)
            if not column_set:
                continue
            overlap = len(column_set & question_set) / len(column_set)
            best = max(best, 0.9 * overlap)
        return best
