"""Spider-style Exact Match (EM) comparison.

Spider's EM metric decomposes both queries into clause components and
compares each component as a set, after resolving table aliases, so that
``SELECT T1.name FROM airports AS T1`` matches
``SELECT airports.name FROM airports``.  Following the official metric,
literal *values* in conditions are ignored by default ("exact set match
without values"); pass ``compare_values=True`` for a stricter variant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SQLError
from repro.sqlkit.ast_nodes import (
    BetweenExpr,
    BinaryOp,
    BooleanOp,
    CaseExpr,
    ColumnRef,
    Exists,
    Expr,
    FuncCall,
    InExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    NotExpr,
    SelectStatement,
    Star,
    Subquery,
)
from repro.sqlkit.parser import parse_select


@dataclass(frozen=True)
class _Canon:
    """Canonical component decomposition of one SELECT statement.

    ``select_items`` is an order-insensitive *multiset* (sorted tuple):
    ``SELECT a, a`` returns a different shape than ``SELECT a`` and must
    not collapse to the same component set.
    """

    select_items: tuple[str, ...]
    distinct: bool
    tables: frozenset[str]
    join_conditions: frozenset[str]
    where_conditions: frozenset[str]
    group_by: frozenset[str]
    having_conditions: frozenset[str]
    order_by: tuple[str, ...]
    limit: int | None
    set_op: str | None
    nested: tuple["_Canon", ...]


# The comparable form of one query under exact match (see ``em_form``).
EMForm = _Canon


def _alias_map(
    statement: SelectStatement, outer: dict[str, str] | None = None
) -> dict[str, str]:
    """Binding -> real table name, inheriting (and shadowing) outer scope.

    Correlated subqueries reference the enclosing query's aliases
    (``WHERE T2.aid = T1.id``); a fresh per-statement map would leave
    ``T1`` unresolved and fail semantically identical pairs.
    """
    mapping: dict[str, str] = dict(outer or {})
    if statement.from_clause is None:
        return mapping
    for table in statement.from_clause.tables:
        mapping[table.binding.lower()] = table.name.lower()
        mapping[table.name.lower()] = table.name.lower()
    return mapping


def _canon_column(expr: ColumnRef | Star, aliases: dict[str, str], single_table: str | None) -> str:
    if isinstance(expr, Star):
        return "*"
    table = (expr.table or "").lower()
    resolved = aliases.get(table, table)
    if not resolved and single_table:
        resolved = single_table
    return f"{resolved}.{expr.column.lower()}"


def _canon_expr(
    expr: Expr,
    aliases: dict[str, str],
    single_table: str | None,
    compare_values: bool,
) -> str:
    if isinstance(expr, (ColumnRef, Star)):
        return _canon_column(expr, aliases, single_table)
    if isinstance(expr, Literal):
        if compare_values:
            return f"lit:{expr.value!r}".lower()
        return "lit:?"
    if isinstance(expr, FuncCall):
        args = ",".join(_canon_expr(a, aliases, single_table, compare_values) for a in expr.args)
        distinct = "distinct " if expr.distinct else ""
        return f"{expr.name.lower()}({distinct}{args})"
    if isinstance(expr, BinaryOp):
        op = "!=" if expr.op == "<>" else expr.op
        left = _canon_expr(expr.left, aliases, single_table, compare_values)
        right = _canon_expr(expr.right, aliases, single_table, compare_values)
        if op in ("=", "!="):
            # Symmetric comparisons: operand order is irrelevant.
            left, right = sorted((left, right))
        elif op in (">", ">="):
            # Mirror flips: ``a > b`` is ``b < a``; canonicalize on < / <=
            # so flipped spellings compare equal (but a<b never equals b<a).
            op = "<" if op == ">" else "<="
            left, right = right, left
        return f"({left} {op} {right})"
    if isinstance(expr, BooleanOp):
        inner = sorted(
            _canon_expr(operand, aliases, single_table, compare_values)
            for operand in expr.operands
        )
        return f"({f' {expr.op} '.join(inner)})"
    if isinstance(expr, NotExpr):
        return f"(not {_canon_expr(expr.operand, aliases, single_table, compare_values)})"
    if isinstance(expr, LikeExpr):
        keyword = "not like" if expr.negated else "like"
        pattern = _canon_expr(expr.pattern, aliases, single_table, compare_values)
        suffix = ""
        if expr.escape is not None:
            suffix = f" escape {_canon_expr(expr.escape, aliases, single_table, compare_values)}"
        return f"({_canon_expr(expr.operand, aliases, single_table, compare_values)} {keyword} {pattern}{suffix})"
    if isinstance(expr, BetweenExpr):
        keyword = "not between" if expr.negated else "between"
        low = _canon_expr(expr.low, aliases, single_table, compare_values)
        high = _canon_expr(expr.high, aliases, single_table, compare_values)
        return f"({_canon_expr(expr.operand, aliases, single_table, compare_values)} {keyword} {low} {high})"
    if isinstance(expr, IsNullExpr):
        keyword = "is not null" if expr.negated else "is null"
        return f"({_canon_expr(expr.operand, aliases, single_table, compare_values)} {keyword})"
    if isinstance(expr, InExpr):
        keyword = "not in" if expr.negated else "in"
        operand = _canon_expr(expr.operand, aliases, single_table, compare_values)
        if expr.subquery is not None:
            inner = repr(_canonicalize(expr.subquery.select, compare_values, aliases))
            return f"({operand} {keyword} <{inner}>)"
        values = sorted(
            _canon_expr(value, aliases, single_table, compare_values) for value in expr.values
        )
        return f"({operand} {keyword} [{','.join(values)}])"
    if isinstance(expr, Exists):
        keyword = "not exists" if expr.negated else "exists"
        inner = repr(_canonicalize(expr.subquery.select, compare_values, aliases))
        return f"({keyword} <{inner}>)"
    if isinstance(expr, Subquery):
        return f"<{_canonicalize(expr.select, compare_values, aliases)!r}>"
    if isinstance(expr, CaseExpr):
        whens = ";".join(
            f"{_canon_expr(c, aliases, single_table, compare_values)}:"
            f"{_canon_expr(v, aliases, single_table, compare_values)}"
            for c, v in expr.whens
        )
        tail = (
            _canon_expr(expr.else_value, aliases, single_table, compare_values)
            if expr.else_value is not None
            else ""
        )
        return f"(case {whens} else {tail})"
    raise SQLError(f"cannot canonicalize expression node {type(expr).__name__}")


def _split_conditions(expr: Expr | None) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, BooleanOp) and expr.op == "and":
        flattened: list[Expr] = []
        for operand in expr.operands:
            flattened.extend(_split_conditions(operand))
        return flattened
    return [expr]


def _canonicalize(
    statement: SelectStatement,
    compare_values: bool,
    outer_aliases: dict[str, str] | None = None,
) -> _Canon:
    aliases = _alias_map(statement, outer_aliases)
    single_table: str | None = None
    if statement.from_clause is not None and len(statement.from_clause.tables) == 1:
        single_table = statement.from_clause.base.name.lower()

    def canon(expr: Expr) -> str:
        return _canon_expr(expr, aliases, single_table, compare_values)

    select_items = tuple(sorted(
        ("distinct " if statement.distinct else "") + canon(item.expr)
        for item in statement.select_items
    ))
    tables = frozenset(
        table.name.lower()
        for table in (statement.from_clause.tables if statement.from_clause else [])
    )
    join_conditions = frozenset(
        canon(join.condition)
        for join in (statement.from_clause.joins if statement.from_clause else [])
        if join.condition is not None
    )
    where_conditions = frozenset(canon(cond) for cond in _split_conditions(statement.where))
    having_conditions = frozenset(canon(cond) for cond in _split_conditions(statement.having))
    group_by = frozenset(canon(expr) for expr in statement.group_by)
    order_by = tuple(f"{canon(item.expr)} {item.direction}" for item in statement.order_by)
    nested: list[_Canon] = []
    set_op: str | None = None
    if statement.set_operation is not None:
        set_op = statement.set_operation.op
        # Set-operation branches are sibling scopes: they see the same
        # outer aliases as this statement, not this statement's own FROM.
        nested.append(
            _canonicalize(statement.set_operation.right, compare_values, outer_aliases)
        )
    return _Canon(
        select_items=select_items,
        distinct=statement.distinct,
        tables=tables,
        join_conditions=join_conditions,
        where_conditions=where_conditions,
        group_by=group_by,
        having_conditions=having_conditions,
        order_by=order_by,
        limit=statement.limit,
        set_op=set_op,
        nested=tuple(nested),
    )


def em_form(sql: str | SelectStatement, compare_values: bool = False) -> EMForm | None:
    """The canonical form :func:`exact_match` compares, or None if unparseable.

    Two queries exact-match iff both forms exist and are equal, so a
    caller scoring many predictions against one gold query computes the
    gold's form once.  Only a parse error yields None; a canonicalization
    error propagates.
    """
    try:
        statement = sql if isinstance(sql, SelectStatement) else parse_select(sql)
    except SQLError:
        return None
    return _canonicalize(statement, compare_values)


def exact_match(
    predicted: str | SelectStatement,
    gold: str | SelectStatement,
    compare_values: bool = False,
) -> bool:
    """Return True iff the two queries match component-wise (Spider EM).

    Unparseable predictions simply do not match.
    """
    form = em_form(predicted, compare_values)
    return form is not None and form == em_form(gold, compare_values)
