"""Pre-processing: DB content matching (BRIDGE v2 / CodeS style).

BRIDGE scans the question for spans that string-match actual cell values
and attaches the matched values as per-column annotations in the prompt.
The simulated model uses these hints to copy literals verbatim instead of
hallucinating them — which is the mechanism behind SuperSQL's inclusion
of the module (paper §5.3, Figure 15).
"""

from __future__ import annotations

import re

from repro.dbengine.database import Database
from repro.utils.text import length_bound, normalized_similarity


def _question_value_spans(question: str) -> list[str]:
    """Candidate value spans: quoted strings plus capitalized multi-words."""
    spans = re.findall(r"'([^']*)'", question)
    spans.extend(re.findall(r"\b\d+(?:\.\d+)?\b", question))
    return [span for span in spans if span]


def match_db_content(
    strategy: str,
    database: Database,
    question: str,
    max_values_per_column: int = 3,
    fuzzy_threshold: float = 0.82,
) -> dict[str, dict[str, list[str]]]:
    """Match question spans against database contents.

    Returns a ``table -> column -> matched values`` map.  ``strategy``
    distinguishes BRIDGE (fuzzy matching) from CodeS (exact + prefix
    matching); both share the same scan.
    """
    spans = _question_value_spans(question)
    if not spans:
        return {}
    fuzzy = strategy == "bridge"
    matches: dict[str, dict[str, list[str]]] = {}
    for table_name, column_name in database.text_columns():
        values = database.column_values(table_name, column_name, limit=500)
        hits: list[str] = []
        for span in spans:
            span_lower = span.lower()
            for value in values:
                if value is None:
                    continue
                text = str(value)
                text_lower = text.lower()
                if span_lower in text_lower:
                    hits.append(text)
                elif (
                    fuzzy
                    and length_bound(len(text_lower), len(span_lower)) >= fuzzy_threshold
                    and normalized_similarity(text, span) >= fuzzy_threshold
                ):
                    hits.append(text)
                if len(hits) >= max_values_per_column:
                    break
            if len(hits) >= max_values_per_column:
                break
        if hits:
            deduped = list(dict.fromkeys(hits))[:max_values_per_column]
            matches.setdefault(table_name, {})[column_name] = deduped
    return matches
