"""Parser for the Figure 4 query grammar.

::

    SELECT AggExpression FROM streamName
    [WHERE filterExpression]
    [GROUP BY fields]
    OVER WindowExpression
    [AS OF epochMillis]

    AggExpression    ::= Aggregation(field) | Aggregation(field), AggExpression
    Aggregation      ::= count | sum | avg | stdDev | max | min | last |
                         prev | countDistinct
    WindowExpression ::= TimeWindowExpr | TimeWindowExpr delayed by offset
    TimeWindowExpr   ::= sliding windowSize | tumbling windowSize | infinite

Clause order is strict (§4.1.2 relies on it for plan-prefix sharing);
out-of-order clauses are a parse error, not a reordering.
"""

from __future__ import annotations

from repro.aggregates.registry import AGGREGATOR_NAMES
from repro.common.errors import QueryError
from repro.common.timesource import parse_duration_ms
from repro.query.ast import AggSpec, Query
from repro.query.expressions import parse_embedded_expression
from repro.query.tokens import Token, TokenKind, tokenize
from repro.windows.spec import WindowKind, WindowSpec

_CANONICAL_AGGS = {name.lower(): name for name in AGGREGATOR_NAMES}


class _QueryParser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = tokenize(text)
        self._position = 0

    # -- token plumbing -------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        self._position += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._advance()
        if not token.is_keyword(word):
            raise QueryError(
                f"expected {word.upper()}, found {token.text!r}", token.position
            )
        return token

    def _expect_ident(self, what: str) -> Token:
        token = self._advance()
        if token.kind is not TokenKind.IDENT:
            raise QueryError(f"expected {what}, found {token.text!r}", token.position)
        return token

    # -- grammar ----------------------------------------------------------------

    def parse(self) -> Query:
        self._expect_keyword("select")
        aggregations = self._parse_aggregations()
        self._expect_keyword("from")
        stream = self._expect_ident("stream name").text
        where = None
        if self._peek().is_keyword("where"):
            self._advance()
            where, self._position = parse_embedded_expression(self._tokens, self._position)
        group_by: tuple[str, ...] = ()
        if self._peek().is_keyword("group"):
            self._advance()
            self._expect_keyword("by")
            group_by = self._parse_field_list()
        self._expect_keyword("over")
        window = self._parse_window()
        as_of = None
        if self._peek().is_keyword("as"):
            self._advance()
            self._expect_keyword("of")
            number = self._advance()
            if number.kind is not TokenKind.NUMBER:
                raise QueryError(
                    f"expected AS OF timestamp, found {number.text!r}",
                    number.position,
                )
            as_of = int(number.text)
        trailing = self._advance()
        if trailing.kind is not TokenKind.EOF:
            raise QueryError(
                f"unexpected trailing input {trailing.text!r}", trailing.position
            )
        return Query(
            aggregations=aggregations,
            stream=stream,
            window=window,
            where=where,
            group_by=group_by,
            raw_text=self._text,
            as_of=as_of,
        )

    def _parse_aggregations(self) -> tuple[AggSpec, ...]:
        aggregations: list[AggSpec] = []
        while True:
            name_token = self._expect_ident("aggregation name")
            canonical = _CANONICAL_AGGS.get(name_token.text.lower())
            if canonical is None:
                raise QueryError(
                    f"unknown aggregation {name_token.text!r}; supported: "
                    + ", ".join(AGGREGATOR_NAMES),
                    name_token.position,
                )
            lparen = self._advance()
            if lparen.kind is not TokenKind.LPAREN:
                raise QueryError("expected '(' after aggregation name", lparen.position)
            arg = self._advance()
            if arg.kind is TokenKind.STAR:
                field = None
                if canonical != "count":
                    raise QueryError(
                        f"only count(*) accepts '*', not {canonical}", arg.position
                    )
            elif arg.kind is TokenKind.IDENT:
                field = arg.text
            else:
                raise QueryError(
                    f"expected field name or '*', found {arg.text!r}", arg.position
                )
            rparen = self._advance()
            if rparen.kind is not TokenKind.RPAREN:
                raise QueryError("expected ')'", rparen.position)
            aggregations.append(AggSpec(canonical, field))
            if self._peek().kind is TokenKind.COMMA:
                self._advance()
                continue
            return tuple(aggregations)

    def _parse_field_list(self) -> tuple[str, ...]:
        fields = [self._expect_ident("group by field").text]
        while self._peek().kind is TokenKind.COMMA:
            self._advance()
            fields.append(self._expect_ident("group by field").text)
        return tuple(fields)

    def _parse_window(self) -> WindowSpec:
        kind_token = self._expect_ident("window kind")
        kind_word = kind_token.text.lower()
        if kind_word == "infinite":
            size_ms = None
            kind = WindowKind.INFINITE
        elif kind_word in ("sliding", "tumbling"):
            kind = WindowKind.SLIDING if kind_word == "sliding" else WindowKind.TUMBLING
            size_ms = self._parse_duration()
        else:
            raise QueryError(
                f"expected sliding/tumbling/infinite, found {kind_token.text!r}",
                kind_token.position,
            )
        delay_ms = 0
        if self._peek().is_keyword("delayed"):
            self._advance()
            self._expect_keyword("by")
            delay_ms = self._parse_duration()
        try:
            return WindowSpec(kind, size_ms, delay_ms)
        except ValueError as exc:
            raise QueryError(str(exc), kind_token.position) from exc

    def _parse_duration(self) -> int:
        number = self._advance()
        if number.kind is not TokenKind.NUMBER:
            raise QueryError(
                f"expected window size number, found {number.text!r}", number.position
            )
        unit = self._advance()
        if unit.kind is not TokenKind.IDENT:
            raise QueryError(
                f"expected duration unit, found {unit.text!r}", unit.position
            )
        try:
            return parse_duration_ms(f"{number.text} {unit.text}")
        except ValueError as exc:
            raise QueryError(str(exc), unit.position) from exc


def parse_query(text: str) -> Query:
    """Parse one metric statement into a :class:`Query`."""
    return _QueryParser(text).parse()
