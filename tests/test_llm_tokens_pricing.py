"""Tests for token counting and the price sheet."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.llm.pricing import PRICE_SHEET, UsageRecord, price_ratio, prompt_cost
from repro.llm.tokens import count_tokens
from repro.errors import ModelError


_PIECE_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")


def _count_tokens_per_piece(text: str) -> int:
    """The per-match reference ``count_tokens`` must agree with."""
    total = 0
    for match in _PIECE_RE.finditer(text):
        piece = match.group(0)
        if piece.isalnum() or "_" in piece:
            total += max(1, (len(piece) + 3) // 4)
        else:
            total += 1
    return total


class TestTokenCounting:
    @settings(max_examples=300)
    @given(st.text())
    @example("SELECT T1.name, count(*) FROM airports AS T1 WHERE x >= 'İß'  -- é\n")
    @example("___ a_b ٣٤ 𝟘 ½ \t\u00a0 _")
    def test_matches_per_piece_reference(self, text):
        assert count_tokens(text) == _count_tokens_per_piece(text)

    def test_empty(self):
        assert count_tokens("") == 0

    def test_short_words_one_token(self):
        assert count_tokens("a b c") == 3

    def test_long_identifier_split(self):
        assert count_tokens("international") == 4  # 13 chars -> ceil(13/4)

    def test_punctuation_counts(self):
        assert count_tokens("(a, b)") == 5

    def test_monotone_in_length(self):
        short = count_tokens("SELECT name FROM airports")
        long = count_tokens("SELECT name, city FROM airports WHERE elevation > 100")
        assert long > short

    def test_roughly_four_chars_per_token(self):
        text = "SELECT airport_name FROM airports WHERE city = 'Aberdeen'" * 20
        tokens = count_tokens(text)
        assert len(text) / 6 < tokens < len(text) / 2


class TestPricing:
    def test_paper_ratios(self):
        input_ratio, output_ratio = price_ratio("gpt-4", "gpt-3.5-turbo")
        assert input_ratio == pytest.approx(60.0)
        assert output_ratio == pytest.approx(40.0)

    def test_prompt_cost_gpt4(self):
        assert prompt_cost("gpt-4", 1000, 1000) == pytest.approx(0.09)

    def test_local_model_free(self):
        assert prompt_cost("t5-3b", 10_000, 500) == 0.0

    def test_usage_record(self):
        record = UsageRecord("gpt-3.5-turbo", 2000, 100)
        assert record.total_tokens == 2100
        assert record.cost_usd == pytest.approx(2 * 0.0005 + 0.1 * 0.0015)

    def test_price_ratio_requires_api_models(self):
        with pytest.raises(ModelError):
            price_ratio("gpt-4", "t5-3b")

    def test_sheet_has_both_gpts(self):
        assert set(PRICE_SHEET) == {"gpt-4", "gpt-3.5-turbo"}
