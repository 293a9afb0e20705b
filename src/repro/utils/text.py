"""Lightweight text utilities used by schema linking and NLU.

These are dependency-free implementations of the string-similarity
primitives the paper's systems rely on (RESDSQL's schema ranking, BRIDGE's
value matching, DAIL-SQL's question-similarity example selection).
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"[A-Za-z0-9]+")

# Equivalence classes of interchangeable question phrasings, mirroring the
# paraphrase rewrites in repro.datagen.paraphrase.  The first member of
# each class is the canonical representative; every member (lowercase)
# maps onto it.  Used only for *semantic* cache keys — the base
# normalization never rewrites words.
_SEMANTIC_CLASSES: tuple[tuple[str, ...], ...] = (
    ("show the", "list the", "display the", "give me the"),
    ("what is the", "tell me the"),
    ("how many", "count how many"),
    ("is greater than", "is more than"),
    ("is less than", "is under"),
    ("is at least", "is no less than"),
    ("is at most", "is no more than"),
    ("sorted by", "ordered by"),
    ("of all", "of the"),
    ("whose", "with"),
    ("average", "mean"),
    ("maximum", "biggest"),
    ("minimum", "smallest"),
    ("total", "sum of the"),
    ("have no", "do not have any"),
    ("have at least one", "are linked to some"),
    ("showing only the top", "limited to the first"),
    ("in descending order", "from highest to lowest"),
    ("in ascending order", "from lowest to highest"),
    ("together with", "along with"),
    ("are there", "exist"),
)

# phrase -> canonical representative, longest phrases matched first so a
# member embedded in a longer member ("how many" in "count how many",
# "with" in "along with") never fires at the wrong position.  Including
# each representative as its own key makes the rewrite idempotent.
_SEMANTIC_CANONICAL: dict[str, str] = {
    member: members[0] for members in _SEMANTIC_CLASSES for member in members
}
_SEMANTIC_RE = re.compile(
    r"\b(?:"
    + "|".join(
        re.escape(phrase)
        for phrase in sorted(_SEMANTIC_CANONICAL, key=len, reverse=True)
    )
    + r")\b"
)

# Irregular plural forms that a naive "strip the s" rule would mangle.
_IRREGULAR_SINGULARS = {
    "people": "person",
    "children": "child",
    "men": "man",
    "women": "woman",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "geese": "goose",
    "criteria": "criterion",
    "data": "datum",
    "series": "series",
    "species": "species",
}


def tokenize_words(text: str) -> list[str]:
    """Split ``text`` into lowercase alphanumeric word tokens.

    Underscores and camelCase boundaries are treated as separators so that
    schema identifiers like ``airportCode`` or ``airport_code`` tokenize
    identically to the natural-language phrase "airport code".
    """
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", text)
    spaced = spaced.replace("_", " ")
    return [match.group(0).lower() for match in _WORD_RE.finditer(spaced)]


def normalize_identifier(name: str) -> str:
    """Normalize a schema identifier to a canonical space-joined form."""
    return " ".join(tokenize_words(name))


def normalize_question(question: str, semantic: bool = False) -> str:
    """Canonicalize one NL question for request identity and cache keys.

    The base form collapses runs of whitespace and casefolds, so
    trivially-different repeats ("List flights ", "list  flights") share
    one identity; it never changes wording, making it safe for exact
    coalescing/cache keys.  With ``semantic=True`` trailing punctuation
    is stripped and interchangeable phrasings (the
    :mod:`repro.datagen.paraphrase` rewrite pairs) are folded onto one
    representative per equivalence class — a lossy key that trades a
    measurable correctness risk for cross-paraphrase cache hits.

    Both forms are idempotent: ``normalize_question(normalize_question(q,
    s), s) == normalize_question(q, s)``.
    """
    normalized = " ".join(question.split()).casefold()
    if not semantic:
        return normalized
    normalized = normalized.rstrip(" ?.!")
    return _SEMANTIC_RE.sub(
        lambda match: _SEMANTIC_CANONICAL[match.group(0)], normalized
    )


def singularize(word: str) -> str:
    """Return a best-effort singular form of an English noun."""
    lowered = word.lower()
    if lowered in _IRREGULAR_SINGULARS:
        return _IRREGULAR_SINGULARS[lowered]
    if lowered.endswith("ies") and len(lowered) > 3:
        return lowered[:-3] + "y"
    if lowered.endswith("ses") or lowered.endswith("xes") or lowered.endswith("zes"):
        return lowered[:-2]
    if lowered.endswith("s") and not lowered.endswith("ss") and len(lowered) > 2:
        return lowered[:-1]
    return lowered


def levenshtein(a: str, b: str) -> int:
    """Compute the Levenshtein edit distance between two strings.

    Myers' bit-parallel algorithm in Hyyrö's formulation: one column of the
    edit-distance matrix is held as vertical +1/-1 delta bit vectors over
    the shorter string (Python ints, so any length fits), and each
    character of the longer string advances it with a constant number of
    word operations.  Bits only ever flow towards higher positions (carry
    and left shift), so masking the positive vector to ``len(b)`` bits
    keeps every lower bit exact.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, char in enumerate(b):
        peq[char] = peq.get(char, 0) | (1 << i)
    full = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, distance = full, 0, len(b)
    for char in a:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return distance


def normalized_similarity(a: str, b: str) -> float:
    """Return 1 - normalized edit distance, in [0, 1].

    Case-insensitive: the distance and the lengths it is divided by are
    both taken on the lowercased strings, whose lengths may differ from
    the originals' ("İ" lowercases to two code points).
    """
    a, b = a.lower(), b.lower()
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def length_bound(len_a: int, len_b: int) -> float:
    """Upper bound on ``normalized_similarity`` from the lowercased lengths.

    The edit distance is at least the length difference, and IEEE
    division and subtraction are monotone, so the bound is never below
    the similarity as computed.  A pair whose bound misses a threshold can
    be skipped without computing the distance.
    """
    if not len_a and not len_b:
        return 1.0
    return 1.0 - abs(len_a - len_b) / max(len_a, len_b)


def jaccard(a: set[str] | list[str], b: set[str] | list[str]) -> float:
    """Jaccard similarity of two token collections."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)
