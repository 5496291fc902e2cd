"""Parsing and printing of polynomial germ expressions in x, y, p.

The accepted language is a sum of terms; a term is an optional rational
coefficient followed by juxtaposed variable powers:

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := rational? (var ("^" nat)?)*
    var      := "x" | "y" | "p"
    rational := nat ("/" nat)?

Whitespace is ignored everywhere.  Errors carry the character position
they were detected at.  ``format_germ`` prints in a canonical order and
``parse_germ(format_germ(g), n, m)`` returns g for every polynomial germ.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ValidationError
from .germs import AXES, Germ, contact_weights, format_monomial

_TOKEN = re.compile(r"\s*(?:(\d+)|([xyp])|([+\-^/])|(\S))")

_RATIONAL = re.compile(r"-?\d+(/0*[1-9]\d*)?\Z")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None:
                break
            number, name, symbol, junk = match.groups()
            at = match.end() - 1
            if junk is not None:
                raise ValidationError(f"position {at}: unexpected character {junk!r}")
            if number is not None:
                self.items.append(("number", number, match.start(1)))
            elif name is not None:
                self.items.append(("name", name, at))
            else:
                self.items.append(("symbol", symbol, at))
            pos = match.end()
        self.index = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.items):
            return self.items[self.index]
        return None

    def take(self) -> None:
        """Step past the token that ``peek`` returned; callers peek first."""
        self.index += 1


def _parse_natural(tokens: _Tokens, what: str) -> int:
    item = tokens.peek()
    if item is None or item[0] != "number":
        at = len(tokens.text) if item is None else item[2]
        raise ValidationError(f"position {at}: expected {what}")
    tokens.take()
    return int(item[1])


def _parse_rational(tokens: _Tokens) -> Fraction:
    value = Fraction(_parse_natural(tokens, "an integer"))
    item = tokens.peek()
    if item is not None and item[:2] == ("symbol", "/"):
        slash_at = item[2]
        tokens.take()
        denominator = _parse_natural(tokens, "an integer after '/'")
        if denominator == 0:
            raise ValidationError(f"position {slash_at}: division by zero")
        value /= denominator
    return value


def _parse_term(tokens: _Tokens) -> tuple[tuple[int, int, int], Fraction]:
    coeff = Fraction(1)
    exponents = [0, 0, 0]
    item = tokens.peek()
    if item is None:
        raise ValidationError(f"position {len(tokens.text)}: expected a term")
    seen = False
    if item[0] == "number":
        coeff = _parse_rational(tokens)
        seen = True
    while True:
        item = tokens.peek()
        if item is None or item[0] != "name":
            break
        tokens.take()
        power = 1
        nxt = tokens.peek()
        if nxt is not None and nxt[:2] == ("symbol", "^"):
            tokens.take()
            power = _parse_natural(tokens, "an exponent after '^'")
        exponents[AXES.index(item[1])] += power
        seen = True
    if not seen:
        at = tokens.peek()[2]
        raise ValidationError(f"position {at}: expected a term")
    return tuple(exponents), coeff


def parse_germ(text: str, n: int, m: int) -> Germ:
    """Parse an expression into an exact polynomial germ with weights (n, m)."""
    tokens = _Tokens(text)
    coeffs: dict[tuple[int, int, int], Fraction] = {}
    sign = 1
    item = tokens.peek()
    if item is None:
        raise ValidationError("position 0: empty expression")
    if item[0] == "symbol" and item[1] in "+-":
        tokens.take()
        sign = -1 if item[1] == "-" else 1
    while True:
        mono, coeff = _parse_term(tokens)
        coeffs[mono] = coeffs.get(mono, Fraction(0)) + sign * coeff
        item = tokens.peek()
        if item is None:
            break
        if item[0] == "symbol" and item[1] in "+-":
            tokens.take()
            sign = -1 if item[1] == "-" else 1
            continue
        raise ValidationError(f"position {item[2]}: expected '+' or '-', got {item[1]!r}")
    return Germ(contact_weights(n, m), coeffs, math.inf)  # which drops the zeros


def format_scalar(value) -> str:
    """Exact decimal-free rendering, '3/4' style for non-integers."""
    return str(Fraction(value) if isinstance(value, int) else value)


def parse_scalar(text: str) -> Fraction:
    """Strict rational-string reader for document fields."""
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise ValidationError(f"not an integer-over-integer rational with denominator > 0: {text!r}")
    return Fraction(text)


def format_germ(germ: Germ) -> str:
    """Canonical rendering: terms by increasing weighted order, then exponents."""
    if germ.is_zero():
        return "0"
    out = []
    for mono, coeff in germ.items():
        body = format_monomial(mono)
        magnitude = coeff if coeff > 0 else -coeff
        if not body:
            scalar = format_scalar(magnitude)
        elif magnitude == 1:
            scalar = ""
        else:
            scalar = format_scalar(magnitude)
        piece = scalar + body
        if not out:
            out.append(("-" if coeff < 0 else "") + piece)
        else:
            out.append(("- " if coeff < 0 else "+ ") + piece)
    return " ".join(out)
