"""SQL toolkit: lexer, parser, AST, printer, features, hardness, EM, NatSQL, PICARD."""

from repro.sqlkit.tokenizer import Token, TokenType, tokenize
from repro.sqlkit.ast_nodes import (
    BinaryOp,
    BooleanOp,
    CaseExpr,
    ColumnRef,
    Exists,
    FromClause,
    FuncCall,
    InExpr,
    Join,
    LikeExpr,
    Literal,
    NotExpr,
    OrderItem,
    SelectItem,
    SelectStatement,
    SetOperation,
    Star,
    Subquery,
    TableRef,
)
from repro.sqlkit.parser import parse_select, parse_sql
from repro.sqlkit.printer import normalize_sql, to_sql
from repro.sqlkit.features import SQLFeatures, extract_features
from repro.sqlkit.hardness import Hardness, classify_hardness
from repro.sqlkit.exact_match import em_form, exact_match
from repro.sqlkit.natsql import NatSQLQuery, from_natsql, to_natsql
from repro.sqlkit.picard import PicardChecker, is_valid_sql
from repro.sqlkit.differential import (
    DifferentialFuzzer,
    Divergence,
    FuzzReport,
    run_fuzz,
)

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "BinaryOp",
    "BooleanOp",
    "CaseExpr",
    "ColumnRef",
    "Exists",
    "FromClause",
    "FuncCall",
    "InExpr",
    "Join",
    "LikeExpr",
    "Literal",
    "NotExpr",
    "OrderItem",
    "SelectItem",
    "SelectStatement",
    "SetOperation",
    "Star",
    "Subquery",
    "TableRef",
    "parse_select",
    "parse_sql",
    "normalize_sql",
    "to_sql",
    "SQLFeatures",
    "extract_features",
    "Hardness",
    "classify_hardness",
    "em_form",
    "exact_match",
    "NatSQLQuery",
    "from_natsql",
    "to_natsql",
    "PicardChecker",
    "is_valid_sql",
    "DifferentialFuzzer",
    "Divergence",
    "FuzzReport",
    "run_fuzz",
]
