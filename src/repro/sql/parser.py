"""A small SQL parser for the supported query subset.

Grammar (case-insensitive keywords)::

    query     := SELECT select FROM tables [WHERE conds] [GROUP BY cols] [';']
    select    := item (',' item)*
    item      := AGG '(' '*' ')' | AGG '(' colref ')' | colref
    tables    := table (',' table)*
    table     := NAME [NAME]                -- optional alias
    conds     := cond (AND cond)*
    cond      := colref '=' colref          -- join
               | colref OP value
               | colref BETWEEN value AND value
               | colref IN '(' value (',' value)* ')'
    colref    := NAME '.' NAME
    value     := numeric literal

This covers the paper's workload space (SPJ + aggregation queries, e.g.
the example in Figure 2).
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.sql.ast import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    ComparisonOperator,
    JoinCondition,
    Predicate,
    Query,
    TableRef,
)

__all__ = ["parse_query"]

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>-?\d+\.\d+|-?\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|<>|!=|=|<|>)"
    r"|(?P<punct>[(),.;*])"
    r"|(?P<bad>\S)"
    r")"
)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "GROUP", "BY", "BETWEEN", "IN"}
_AGGREGATES = {name.value for name in AggregateFunction}

_OPERATORS = {
    "=": ComparisonOperator.EQ,
    "<>": ComparisonOperator.NEQ,
    "!=": ComparisonOperator.NEQ,
    "<": ComparisonOperator.LT,
    "<=": ComparisonOperator.LEQ,
    ">": ComparisonOperator.GT,
    ">=": ComparisonOperator.GEQ,
}


class _Tokens:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str]] = []
        # Trailing whitespace ends the input; before that end, every
        # match is one token (``bad`` catches what no token accepts).
        position, end = 0, len(text.rstrip())
        while position < end:
            match = _TOKEN_RE.match(text, position)
            kind = match.lastgroup
            if kind == "bad":
                start = match.start(kind)
                raise ParseError(f"unexpected character at position {start}: "
                                 f"{text[start:start + 10]!r}")
            self.tokens.append((kind, match.group(kind)))
            position = match.end()
        self.index = 0

    def peek(self) -> tuple[str, str] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of query")
        self.index += 1
        return token

    def expect_keyword(self, keyword: str) -> None:
        kind, value = self.next()
        if kind != "name" or value.upper() != keyword:
            raise ParseError(f"expected {keyword}, got {value!r}")

    def expect_punct(self, punct: str) -> None:
        kind, value = self.next()
        if kind != "punct" or value != punct:
            raise ParseError(f"expected {punct!r}, got {value!r}")

    def at_keyword(self, keyword: str) -> bool:
        token = self.peek()
        return (token is not None and token[0] == "name"
                and token[1].upper() == keyword)

    def at_punct(self, punct: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "punct" and token[1] == punct

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.tokens)


def _parse_colref(tokens: _Tokens) -> ColumnRef:
    kind, table = tokens.next()
    if kind != "name":
        raise ParseError(f"expected a column reference, got {table!r}")
    tokens.expect_punct(".")
    kind, column = tokens.next()
    if kind != "name":
        raise ParseError(f"expected a column name after '.', got {column!r}")
    return ColumnRef(table, column)


def _parse_value(tokens: _Tokens) -> float:
    kind, text = tokens.next()
    if kind != "number":
        raise ParseError(f"expected a numeric literal, got {text!r}")
    return float(text)


def _parse_select_item(tokens: _Tokens) -> AggregateSpec | ColumnRef:
    kind, value = tokens.next()
    if kind == "name" and value.upper() in _AGGREGATES:
        function = AggregateFunction(value.upper())
        tokens.expect_punct("(")
        if tokens.at_punct("*"):
            tokens.next()
            tokens.expect_punct(")")
            if function is not AggregateFunction.COUNT:
                raise ParseError(f"{function.value}(*) is not supported")
            return AggregateSpec(function, None)
        column = _parse_colref(tokens)
        tokens.expect_punct(")")
        return AggregateSpec(function, column)
    if kind == "name":
        # plain column reference: rewind the table-name token
        tokens.index -= 1
        return _parse_colref(tokens)
    raise ParseError(f"unexpected token in select list: {value!r}")


def _parse_condition(tokens: _Tokens) -> JoinCondition | Predicate:
    column = _parse_colref(tokens)
    if tokens.at_keyword("BETWEEN"):
        tokens.next()
        low = _parse_value(tokens)
        tokens.expect_keyword("AND")
        high = _parse_value(tokens)
        return Predicate(column, ComparisonOperator.BETWEEN, (low, high))
    if tokens.at_keyword("IN"):
        tokens.next()
        tokens.expect_punct("(")
        values = [_parse_value(tokens)]
        while tokens.at_punct(","):
            tokens.next()
            values.append(_parse_value(tokens))
        tokens.expect_punct(")")
        return Predicate(column, ComparisonOperator.IN, tuple(values))

    kind, op_text = tokens.next()
    if kind != "op":
        raise ParseError(f"expected a comparison operator, got {op_text!r}")
    operator = _OPERATORS.get(op_text)
    if operator is None:
        raise ParseError(f"unsupported operator {op_text!r}")

    token = tokens.peek()
    if token is not None and token[0] == "name":
        right = _parse_colref(tokens)
        if operator is not ComparisonOperator.EQ:
            raise ParseError("only equi-joins between columns are supported")
        return JoinCondition(column, right)
    value = _parse_value(tokens)
    return Predicate(column, operator, value)


def parse_query(text: str) -> Query:
    """Parse SQL text into a :class:`Query`.

    Raises :class:`~repro.errors.ParseError` on malformed input.
    """
    tokens = _Tokens(text)
    tokens.expect_keyword("SELECT")

    select_items: list[AggregateSpec | ColumnRef] = [_parse_select_item(tokens)]
    while tokens.at_punct(","):
        tokens.next()
        select_items.append(_parse_select_item(tokens))

    tokens.expect_keyword("FROM")
    tables: list[TableRef] = []
    while True:
        kind, table_name = tokens.next()
        if kind != "name":
            raise ParseError(f"expected a table name, got {table_name!r}")
        alias = None
        token = tokens.peek()
        if (token is not None and token[0] == "name"
                and token[1].upper() not in _KEYWORDS):
            alias = tokens.next()[1]
        tables.append(TableRef(table_name, alias))
        if tokens.at_punct(","):
            tokens.next()
            continue
        break

    joins: list[JoinCondition] = []
    predicates: list[Predicate] = []
    if tokens.at_keyword("WHERE"):
        tokens.next()
        while True:
            condition = _parse_condition(tokens)
            if isinstance(condition, JoinCondition):
                joins.append(condition)
            else:
                predicates.append(condition)
            if tokens.at_keyword("AND"):
                tokens.next()
                continue
            break

    group_by: list[ColumnRef] = []
    if tokens.at_keyword("GROUP"):
        tokens.next()
        tokens.expect_keyword("BY")
        group_by.append(_parse_colref(tokens))
        while tokens.at_punct(","):
            tokens.next()
            group_by.append(_parse_colref(tokens))

    if tokens.at_punct(";"):
        tokens.next()
    if not tokens.exhausted:
        raise ParseError(f"trailing tokens after query: {tokens.peek()!r}")

    aggregates = tuple(item for item in select_items
                       if isinstance(item, AggregateSpec))
    plain_columns = tuple(item for item in select_items
                          if isinstance(item, ColumnRef))
    if aggregates and plain_columns and not group_by:
        raise ParseError("mixing plain columns and aggregates requires GROUP BY")

    return Query(
        tables=tuple(tables),
        joins=tuple(joins),
        predicates=tuple(predicates),
        aggregates=aggregates,
        group_by=tuple(group_by) or tuple(plain_columns if aggregates else ()),
    )
