"""Tests for Spider-style exact match."""

import itertools

import pytest

from repro.errors import SQLError
from repro.sqlkit.ast_nodes import Expr, SelectItem
from repro.sqlkit.exact_match import em_form, exact_match
from repro.sqlkit.parser import parse_select


class TestMatching:
    def test_identical(self):
        assert exact_match("SELECT a FROM t", "SELECT a FROM t")

    def test_case_insensitive(self):
        assert exact_match("select A from T", "SELECT a FROM t")

    def test_alias_resolution(self):
        assert exact_match(
            "SELECT T1.name FROM airports AS T1",
            "SELECT airports.name FROM airports",
        )

    def test_unqualified_vs_qualified_single_table(self):
        assert exact_match(
            "SELECT name FROM airports",
            "SELECT airports.name FROM airports",
        )

    def test_select_item_order_insensitive(self):
        assert exact_match("SELECT a, b FROM t", "SELECT b, a FROM t")

    def test_where_condition_order_insensitive(self):
        assert exact_match(
            "SELECT a FROM t WHERE x = 1 AND y = 2",
            "SELECT a FROM t WHERE y = 2 AND x = 1",
        )

    def test_equality_operand_order_insensitive(self):
        assert exact_match(
            "SELECT a FROM t JOIN u ON t.x = u.x",
            "SELECT a FROM t JOIN u ON u.x = t.x",
        )

    def test_values_ignored_by_default(self):
        assert exact_match(
            "SELECT a FROM t WHERE city = 'Boston'",
            "SELECT a FROM t WHERE city = 'Denver'",
        )

    def test_values_compared_when_requested(self):
        assert not exact_match(
            "SELECT a FROM t WHERE city = 'Boston'",
            "SELECT a FROM t WHERE city = 'Denver'",
            compare_values=True,
        )


class TestMismatches:
    def test_different_column(self):
        assert not exact_match("SELECT a FROM t", "SELECT b FROM t")

    def test_different_table(self):
        assert not exact_match("SELECT a FROM t", "SELECT a FROM u")

    def test_different_operator(self):
        assert not exact_match(
            "SELECT a FROM t WHERE x > 1", "SELECT a FROM t WHERE x >= 1"
        )

    def test_missing_where(self):
        assert not exact_match("SELECT a FROM t", "SELECT a FROM t WHERE x = 1")

    def test_distinct_matters(self):
        assert not exact_match("SELECT DISTINCT a FROM t", "SELECT a FROM t")

    def test_order_direction_matters(self):
        assert not exact_match(
            "SELECT a FROM t ORDER BY a ASC", "SELECT a FROM t ORDER BY a DESC"
        )

    def test_order_key_sequence_matters(self):
        assert not exact_match(
            "SELECT a FROM t ORDER BY a, b", "SELECT a FROM t ORDER BY b, a"
        )

    def test_limit_matters(self):
        assert not exact_match(
            "SELECT a FROM t LIMIT 1", "SELECT a FROM t LIMIT 2"
        )

    def test_count_star_vs_count_column(self):
        assert not exact_match("SELECT COUNT(*) FROM t", "SELECT COUNT(id) FROM t")

    def test_in_vs_exists_differ(self):
        assert not exact_match(
            "SELECT a FROM t WHERE x IN (SELECT y FROM u)",
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.y = t.x)",
        )

    def test_between_vs_range_differ(self):
        assert not exact_match(
            "SELECT a FROM t WHERE x BETWEEN 1 AND 5",
            "SELECT a FROM t WHERE x >= 1 AND x <= 5",
        )

    def test_set_op_branches_compared(self):
        assert exact_match(
            "SELECT a FROM t WHERE x = 1 INTERSECT SELECT a FROM t WHERE y = 2",
            "SELECT a FROM t WHERE x = 1 INTERSECT SELECT a FROM t WHERE y = 2",
        )
        assert not exact_match(
            "SELECT a FROM t WHERE x = 1 INTERSECT SELECT a FROM t WHERE y = 2",
            "SELECT a FROM t WHERE x = 1 UNION SELECT a FROM t WHERE y = 2",
        )


class TestCorrelatedSubqueries:
    def test_outer_alias_visible_in_subquery(self):
        # Regression: the subquery's canonicalization used to start from an
        # empty alias map, so the correlated outer reference T1.id resolved
        # differently on each side and equivalent pairs scored EM = 0.
        assert exact_match(
            "SELECT T1.name FROM airports AS T1 WHERE EXISTS "
            "(SELECT 1 FROM flights WHERE flights.aid = T1.id)",
            "SELECT A.name FROM airports AS A WHERE EXISTS "
            "(SELECT 1 FROM flights WHERE flights.aid = A.id)",
        )

    def test_inner_alias_shadows_outer(self):
        assert exact_match(
            "SELECT T1.a FROM t AS T1 WHERE T1.x IN "
            "(SELECT T1.y FROM u AS T1)",
            "SELECT B.a FROM t AS B WHERE B.x IN "
            "(SELECT C.y FROM u AS C)",
        )

    def test_correlated_in_subquery(self):
        assert exact_match(
            "SELECT T1.name FROM airports AS T1 WHERE T1.id IN "
            "(SELECT aid FROM flights WHERE flights.price > T1.elevation)",
            "SELECT X.name FROM airports AS X WHERE X.id IN "
            "(SELECT aid FROM flights WHERE flights.price > X.elevation)",
        )

    def test_set_operation_branch_does_not_inherit_aliases(self):
        # UNION branches are sibling scopes, not nested ones: an alias
        # defined on the left must not leak into the right branch.
        assert exact_match(
            "SELECT T1.a FROM t AS T1 UNION SELECT T1.a FROM u AS T1",
            "SELECT X.a FROM t AS X UNION SELECT Y.a FROM u AS Y",
        )


class TestDuplicateSelectItems:
    def test_duplicate_item_not_collapsed(self):
        # Regression: select items were compared as a frozenset, so
        # SELECT a, a matched SELECT a (and COUNT(*), COUNT(*) matched
        # COUNT(*)) — a silent EM false positive.
        assert not exact_match("SELECT a, a FROM t", "SELECT a FROM t")

    def test_duplicate_aggregate_not_collapsed(self):
        assert not exact_match(
            "SELECT COUNT(*), COUNT(*) FROM t", "SELECT COUNT(*) FROM t"
        )

    def test_duplicates_on_both_sides_match(self):
        assert exact_match("SELECT a, a FROM t", "SELECT a, a FROM t")

    def test_reorder_still_matches(self):
        assert exact_match("SELECT a, b, a FROM t", "SELECT b, a, a FROM t")


class TestComparisonCanonicalization:
    def test_mirrored_comparison_matches(self):
        assert exact_match(
            "SELECT a FROM t WHERE x < 5", "SELECT a FROM t WHERE 5 > x"
        )

    def test_mirrored_ge_matches(self):
        assert exact_match(
            "SELECT a FROM t WHERE x >= y.b", "SELECT a FROM t WHERE y.b <= x"
        )

    def test_unmirrored_flip_does_not_match(self):
        assert not exact_match(
            "SELECT a FROM t WHERE x < 5", "SELECT a FROM t WHERE x > 5"
        )

    def test_inequality_symmetric(self):
        assert exact_match(
            "SELECT a FROM t WHERE x != y", "SELECT a FROM t WHERE y != x"
        )

    def test_quoted_and_bare_identifier_match(self):
        assert exact_match('SELECT "name" FROM t', "SELECT name FROM t")


class TestRobustness:
    def test_unparseable_prediction_fails_gracefully(self):
        assert not exact_match("SELECT FROM WHERE", "SELECT a FROM t")

    def test_unparseable_gold_fails_gracefully(self):
        assert not exact_match("SELECT a FROM t", "not sql at all (")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t",
            "SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2",
            "SELECT a FROM t WHERE x IN (SELECT y FROM u) ORDER BY a LIMIT 3",
        ],
    )
    def test_reflexive(self, sql):
        assert exact_match(sql, sql)
        assert exact_match(sql, sql, compare_values=True)


FORM_POOL = (
    "SELECT a FROM t",
    "select A from T",
    "SELECT T1.a FROM t AS T1",
    "SELECT a FROM t WHERE x = 1",
    "SELECT a FROM t WHERE x = 2",
    "SELECT a FROM t WHERE 1 = x",
    "SELECT a, b FROM t",
    "SELECT b, a FROM t ORDER BY a DESC LIMIT 2",
    "SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE z = 'q')",
    "SELECT a FROM t UNION SELECT a FROM u",
    "SELECT FROM WHERE",
    "not sql at all (",
)


class TestEMForm:
    @pytest.mark.parametrize("compare_values", [False, True])
    def test_exact_match_is_equality_of_forms(self, compare_values):
        for predicted, gold in itertools.product(FORM_POOL, FORM_POOL):
            form = em_form(predicted, compare_values)
            expected = form is not None and form == em_form(gold, compare_values)
            assert exact_match(predicted, gold, compare_values) == expected
            assert exact_match(
                parse_select(predicted) if form is not None else predicted,
                gold,
                compare_values,
            ) == expected

    def test_none_only_when_parsing_fails(self):
        for sql in FORM_POOL:
            try:
                parse_select(sql)
            except SQLError:
                assert em_form(sql) is None
            else:
                assert em_form(sql) is not None

    def test_values_only_matter_when_compared(self):
        assert em_form("SELECT a FROM t WHERE x = 1") == em_form("SELECT a FROM t WHERE x = 2")
        assert em_form("SELECT a FROM t WHERE x = 1", compare_values=True) != em_form(
            "SELECT a FROM t WHERE x = 2", compare_values=True
        )

    def test_canonicalization_error_propagates(self):
        statement = parse_select("SELECT a FROM t")
        statement.select_items = [SelectItem(Expr())]
        with pytest.raises(SQLError, match="cannot canonicalize"):
            em_form(statement)
        with pytest.raises(SQLError, match="cannot canonicalize"):
            exact_match(statement, "SELECT a FROM t")
        with pytest.raises(SQLError, match="cannot canonicalize"):
            exact_match("SELECT a FROM t", statement)
        # An unparseable prediction never reaches the gold's canonicalization.
        assert not exact_match("SELECT FROM WHERE", statement)
