"""Parsing and printing of polynomial germ expressions in x, y, p.

The accepted language is a sum of terms; a term is an optional rational
coefficient followed by juxtaposed variable powers:

    expr     := ["+"|"-"] term (("+"|"-") term)*
    term     := rational? (var ("^" nat)?)*
    var      := "x" | "y" | "p"
    rational := nat ("/" nat)?

Whitespace may stand between tokens and ends a number: ``1 2x`` is
rejected, not read as ``12x``.  Errors carry the character position
they were detected at.  ``format_germ`` prints in a canonical order and
``parse_germ(format_germ(g), n, m)`` returns g for every polynomial germ.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ValidationError
from .germs import AXES, Germ, contact_weights, format_monomial

_TOKEN = re.compile(r"\s*(?:(\d+|[xyp+\-^/])|(\S))")

_RATIONAL = re.compile(r"-?\d+(/0*[1-9]\d*)?\Z")


def _tokenize(text: str) -> list[tuple[str | None, int]]:
    """The tokens of text with their positions, closed by ``(None, len(text))``."""
    tokens: list[tuple[str | None, int]] = []
    for match in _TOKEN.finditer(text):
        token, junk = match.groups()
        if junk is not None:
            raise ValidationError(f"position {match.start(2)}: unexpected character {junk!r}")
        tokens.append((token, match.start(1)))
    tokens.append((None, len(text)))
    return tokens


def _natural(token: str | None, at: int, what: str) -> int:
    """The value of a number token; any other token is reported as not ``what``."""
    if token is None or not token.isdigit():
        raise ValidationError(f"position {at}: expected {what}")
    try:
        return int(token)
    except ValueError as err:  # more digits than sys.get_int_max_str_digits()
        raise ValidationError(f"position {at}: {err}") from None


def parse_germ(text: str, n: int, m: int) -> Germ:
    """Parse an expression into an exact polynomial germ with weights (n, m)."""
    tokens = _tokenize(text)
    if tokens[0][0] is None:
        raise ValidationError("position 0: empty expression")
    coeffs: dict[tuple[int, int, int], Fraction] = {}
    sign = -1 if tokens[0][0] == "-" else 1
    i = 1 if tokens[0][0] in ("+", "-") else 0
    while True:
        start = i
        coeff = Fraction(1)
        token, at = tokens[i]
        if token is not None and token.isdigit():
            coeff = Fraction(_natural(token, at, "an integer"))
            i += 1
            if tokens[i][0] == "/":
                slash_at = tokens[i][1]
                denominator = _natural(*tokens[i + 1], "an integer after '/'")
                if denominator == 0:
                    raise ValidationError(f"position {slash_at}: division by zero")
                coeff /= denominator
                i += 2
        exponents = [0, 0, 0]
        while tokens[i][0] in AXES:
            axis = AXES.index(tokens[i][0])
            power = 1
            i += 1
            if tokens[i][0] == "^":
                power = _natural(*tokens[i + 1], "an exponent after '^'")
                i += 2
            exponents[axis] += power
        if i == start:
            raise ValidationError(f"position {at}: expected a term")
        mono = tuple(exponents)
        coeffs[mono] = coeffs.get(mono, Fraction(0)) + sign * coeff
        token, at = tokens[i]
        if token is None:
            break
        if token not in ("+", "-"):
            raise ValidationError(f"position {at}: expected '+' or '-', got {token!r}")
        sign = -1 if token == "-" else 1
        i += 1
    return Germ(contact_weights(n, m), coeffs, math.inf)  # which drops the zeros


def format_scalar(value) -> str:
    """Exact decimal-free rendering, '3/4' style for non-integers."""
    return str(Fraction(value) if isinstance(value, int) else value)


def parse_scalar(text: str) -> Fraction:
    """Strict rational-string reader for document fields."""
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise ValidationError(f"not an integer-over-integer rational with denominator > 0: {text!r}")
    try:
        return Fraction(text)
    except ValueError as err:  # more digits than sys.get_int_max_str_digits()
        raise ValidationError(str(err)) from None


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
