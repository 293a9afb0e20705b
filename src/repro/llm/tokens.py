"""Approximate BPE token counting.

Real GPT tokenizers average ~4 characters per token on English/SQL text;
we approximate with a word-piece heuristic (identifiers and words split
into 4-char pieces, punctuation one token each).  The Exp-6 economy
numbers need only consistent relative counts across prompt styles.
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_SYMBOL_RE = re.compile(r"[^\sA-Za-z0-9_]")


def count_tokens(text: str) -> int:
    """Estimate the number of BPE tokens in ``text``."""
    words = sum((len(word) + 3) // 4 for word in _WORD_RE.findall(text))
    return words + len(_SYMBOL_RE.findall(text))
