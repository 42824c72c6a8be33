"""The filter-expression language (JEXL-like, paper §3.4).

A small, null-safe expression language evaluated against events:

- literals: numbers, ``'strings'``, ``true``/``false``/``null``;
- identifiers resolve to event fields (absent fields read as null);
- operators (by precedence, loosest first): ``?:`` ternary, ``||``,
  ``&&``, equality ``== !=``, comparison ``< <= > >=``, additive
  ``+ -``, multiplicative ``* / %``, unary ``! -``;
- null propagates through arithmetic and comparisons (a comparison with
  null is false; arithmetic with null is null), so filters never throw
  on missing data — events simply fail the predicate.

Expressions are parsed once at metric-creation time into an AST of
:class:`Expression` nodes and evaluated per event.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ExpressionError
from repro.events.event import Event
from repro.query.tokens import Token, TokenKind, tokenize


class Expression(ABC):
    """AST node; ``evaluate`` never raises on missing/odd-typed data."""

    @abstractmethod
    def evaluate(self, event: Event) -> Any:
        """Value of this expression for ``event``."""

    @abstractmethod
    def referenced_fields(self) -> set[str]:
        """Field names the expression reads (used by the validator)."""

    def matches(self, event: Event) -> bool:
        """Predicate view: only an exact ``True`` passes the filter."""
        return self.evaluate(event) is True


@dataclass(frozen=True)
class Literal(Expression):
    """A constant."""

    value: Any

    def evaluate(self, event: Event) -> Any:
        return self.value

    def referenced_fields(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class FieldRef(Expression):
    """An event-field reference."""

    name: str

    def evaluate(self, event: Event) -> Any:
        return event.get(self.name)

    def referenced_fields(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class Unary(Expression):
    """``!x`` or ``-x``."""

    operator: str
    operand: Expression

    def evaluate(self, event: Event) -> Any:
        value = self.operand.evaluate(event)
        if self.operator == "!":
            if value is None:
                return None
            return not _truthy(value)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return -value

    def referenced_fields(self) -> set[str]:
        return self.operand.referenced_fields()


@dataclass(frozen=True)
class Binary(Expression):
    """Any two-operand operator."""

    operator: str
    left: Expression
    right: Expression

    def evaluate(self, event: Event) -> Any:
        operator = self.operator
        if operator == "||":
            left = self.left.evaluate(event)
            if _truthy(left):
                return True
            return _truthy(self.right.evaluate(event))
        if operator == "&&":
            left = self.left.evaluate(event)
            if not _truthy(left):
                return False
            return _truthy(self.right.evaluate(event))
        left = self.left.evaluate(event)
        right = self.right.evaluate(event)
        if operator == "==":
            return left == right
        if operator == "!=":
            return left != right
        if operator in ("<", "<=", ">", ">="):
            if not _comparable(left, right):
                return False
            if operator == "<":
                return left < right
            if operator == "<=":
                return left <= right
            if operator == ">":
                return left > right
            return left >= right
        # Arithmetic: null-propagating, numeric only (+ also concatenates
        # strings, the JEXL behaviour).
        if left is None or right is None:
            return None
        if operator == "+":
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            if _numeric(left) and _numeric(right):
                return left + right
            return None
        if not (_numeric(left) and _numeric(right)):
            return None
        if operator == "-":
            return left - right
        if operator == "*":
            return left * right
        if operator == "/":
            return left / right if right != 0 else None
        if operator == "%":
            return left % right if right != 0 else None
        raise ExpressionError(f"unknown operator {operator!r}")

    def referenced_fields(self) -> set[str]:
        return self.left.referenced_fields() | self.right.referenced_fields()


@dataclass(frozen=True)
class Ternary(Expression):
    """``cond ? a : b``."""

    condition: Expression
    if_true: Expression
    if_false: Expression

    def evaluate(self, event: Event) -> Any:
        if _truthy(self.condition.evaluate(event)):
            return self.if_true.evaluate(event)
        return self.if_false.evaluate(event)

    def referenced_fields(self) -> set[str]:
        return (
            self.condition.referenced_fields()
            | self.if_true.referenced_fields()
            | self.if_false.referenced_fields()
        )


def _truthy(value: Any) -> bool:
    return value is not None and value is not False


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _comparable(left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if _numeric(left) and _numeric(right):
        return True
    return isinstance(left, str) and isinstance(right, str)


class _Parser:
    """Pratt-style recursive descent over a token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    def peek(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self._tokens[self._position]
        self._position += 1
        return token

    def parse(self) -> Expression:
        expr = self.parse_ternary()
        return expr

    def parse_ternary(self) -> Expression:
        condition = self.parse_or()
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text == "?":
            self.advance()
            if_true = self.parse_ternary()
            colon = self.advance()
            if not (colon.kind is TokenKind.OPERATOR and colon.text == ":"):
                raise ExpressionError("expected ':' in ternary", colon.position)
            if_false = self.parse_ternary()
            return Ternary(condition, if_true, if_false)
        return condition

    def _binary_level(self, operators: tuple[str, ...], next_level) -> Expression:
        left = next_level()
        while True:
            token = self.peek()
            if token.kind is TokenKind.OPERATOR and token.text in operators:
                self.advance()
                right = next_level()
                left = Binary(token.text, left, right)
            elif token.kind is TokenKind.STAR and "*" in operators:
                self.advance()
                right = next_level()
                left = Binary("*", left, right)
            else:
                return left

    def parse_or(self) -> Expression:
        return self._binary_level(("||",), self.parse_and)

    def parse_and(self) -> Expression:
        return self._binary_level(("&&",), self.parse_equality)

    def parse_equality(self) -> Expression:
        return self._binary_level(("==", "!="), self.parse_comparison)

    def parse_comparison(self) -> Expression:
        return self._binary_level(("<", "<=", ">", ">="), self.parse_additive)

    def parse_additive(self) -> Expression:
        return self._binary_level(("+", "-"), self.parse_multiplicative)

    def parse_multiplicative(self) -> Expression:
        return self._binary_level(("*", "/", "%"), self.parse_unary)

    def parse_unary(self) -> Expression:
        token = self.peek()
        if token.kind is TokenKind.OPERATOR and token.text in ("!", "-"):
            self.advance()
            return Unary(token.text, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        token = self.advance()
        if token.kind is TokenKind.NUMBER:
            if "." in token.text:
                return Literal(float(token.text))
            return Literal(int(token.text))
        if token.kind is TokenKind.STRING:
            return Literal(token.text)
        if token.kind is TokenKind.LPAREN:
            inner = self.parse_ternary()
            closing = self.advance()
            if closing.kind is not TokenKind.RPAREN:
                raise ExpressionError("expected ')'", closing.position)
            return inner
        if token.kind is TokenKind.IDENT:
            lowered = token.text.lower()
            if lowered == "true":
                return Literal(True)
            if lowered == "false":
                return Literal(False)
            if lowered in ("null", "nil"):
                return Literal(None)
            return FieldRef(token.text)
        raise ExpressionError(f"unexpected token {token.text!r}", token.position)


def parse_expression(text: str) -> Expression:
    """Parse a standalone filter expression."""
    tokens = tokenize(text)
    parser = _Parser(tokens)
    expr = parser.parse()
    trailing = parser.peek()
    if trailing.kind is not TokenKind.EOF:
        raise ExpressionError(
            f"unexpected trailing input {trailing.text!r}", trailing.position
        )
    return expr


def parse_embedded_expression(tokens: list[Token], start: int) -> tuple[Expression, int]:
    """Parse an expression inside a query; it ends at the first token
    that cannot continue it (the next clause keyword).

    Returns the expression and the index of the first unconsumed token.
    """
    parser = _Parser(tokens[start:])
    expr = parser.parse()
    return expr, start + parser._position
