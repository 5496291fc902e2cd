"""Symbolic expansion coefficients of contact monomials along a universal curve.

Work over the polynomial ring Z[a_m, ..., a_{cutoff-1}, mu].  The universal
curve is x = t^n, y = sum a_s t^s, and instead of the honest derivative
coordinate we use the mu-twisted series

    p~ = sum (mu + s - m) a_s t^{s-n},

which restricts to n*p at mu = m and to the "zero twist" at mu = 0.  The
entry of index (J, k) is the t^k coefficient of x^i y^j p~^l for
J = (i, j, l).  Both forms of an entry, ``entry`` and
``entry_closed_form``, share one domain, ``_check_domain``: negative i is
allowed whenever no negative t-exponent survives, and j + l stays below
the exponent limit of ``sympoly``.  Determinants of the arithmetic
families (q+l, N-l, l), l = 0..N turn out not to depend on mu, which is
what makes them usable as curve-genericity certificates.

A context keeps one chain y^j p~^l per (j, l), each power one convolution
from the power a factor lower, at the largest bound asked for so far: the
exponents of y and p~ are positive, so a smaller bound reads the same
chain.  The closed form shares none of that: each multiset alpha of
indices gives one a-monomial times an integer polynomial in mu, and
distinct alphas give distinct monomials, so an entry is their disjoint
union.  The multisets of each (size, weight) and the terms of each
(alpha, l) are formed once per context.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError, _check_int, _check_type
from .sympoly import EXPONENT_LIMIT, Poly, _sum_of_products, pack, unpack

CUTOFF_CAP = 40
DIMENSION_CAP = 6

Multiset = tuple[tuple[int, int], ...]  # (index, count) pairs, counts non-zero


def _check_index(index) -> tuple[int, int, int]:
    """A monomial index (i, j, l): i an ``int``, j and l non-negative ``int``s."""
    try:
        i, j, l = index
    except (TypeError, ValueError):
        raise ValidationError(f"monomial index must be a triple (i, j, l), got {index!r}") from None
    # tested inline, as every memo lookup passes here; _check_int only names the fault
    if type(i) is not int or type(j) is not int or type(l) is not int or j < 0 or l < 0:
        _check_int(i, "x exponent i")
        _check_int(j, "y exponent j", 0)
        _check_int(l, "p exponent l", 0)
    return i, j, l


class ExpansionContext:
    def __init__(self, n: int, m: int):
        _check_type(n, m)
        if n == 2:
            raise ValidationError(
                f"the upsilon checks need n >= 3: for n = 2 the default cutoff, the plane "
                f"conductor (n-1)(m-1) = {m - 1}, is below m = {m}, so no coefficient a_s is "
                f"left to expand"
            )
        cutoff = (n - 1) * (m - 1)  # at least 2(m - 1) >= m + 2
        if cutoff > CUTOFF_CAP:
            raise ValidationError(f"cutoff {cutoff} exceeds the symbolic layer cap {CUTOFF_CAP}")
        self.n, self.m, self.cutoff = n, m, cutoff
        self.gens = ("mu",) + tuple(f"a{s}" for s in range(m, cutoff))
        self._series_memo: dict[tuple[int, int, int], dict[int, Poly]] = {}
        # (j, l) -> (bound, y^j p~^l exact below bound)
        self._powers: dict[tuple[int, int], tuple[float, dict[int, Poly]]] = {
            (0, 0): (math.inf, {0: Poly.const(self.gens, 1)})
        }
        # (size, weight) -> [(alpha, a-monomial key, {l: terms of alpha's twist})]
        self._multisets: dict[tuple[int, int], list[tuple[Multiset, int, dict[int, dict[int, int]]]]] = {}
        self._y, self._p = self.y_series(), self.twisted_p_series()
        self._a_keys = {s: pack((0,) * (s - m + 1) + (1,)) for s in range(m, cutoff)}
        self._mu_key = pack((1,))

    # -- building blocks ------------------------------------------------------

    def coefficient_symbol(self, s: int) -> Poly:
        if not (self.m <= _check_int(s, "coefficient index") < self.cutoff):
            raise ValidationError(f"no symbol a_{s}: indices run over [{self.m}, {self.cutoff})")
        return Poly.variable(self.gens, f"a{s}")

    def mu(self) -> Poly:
        return Poly.variable(self.gens, "mu")

    def y_series(self) -> dict[int, Poly]:
        return {s: self.coefficient_symbol(s) for s in range(self.m, self.cutoff)}

    def twisted_p_series(self) -> dict[int, Poly]:
        mu = self.mu()
        return {
            s - self.n: (mu + (s - self.m)) * self.coefficient_symbol(s)
            for s in range(self.m, self.cutoff)
        }

    def _convolve(self, f: dict[int, Poly], g: dict[int, Poly], bound: int) -> dict[int, Poly]:
        """The product of two t-series below ``bound``; ``g``'s exponents ascend."""
        pairs: dict[int, list[tuple[int, Poly, Poly]]] = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = e1 + e2
                if e >= bound:
                    break
                pairs.setdefault(e, []).append((1, c1, c2))
        out = {e: _sum_of_products(self.gens, triples) for e, triples in pairs.items()}
        return {e: c for e, c in out.items() if c}

    def _power(self, j: int, l: int, bound: int) -> dict[int, Poly]:
        """y^j p~^l, exact below ``bound``; terms at or above it may be present.

        One chain per (j, l) is kept, at the largest bound formed so far.
        The powers the chain lacks at ``bound`` are formed upwards from the
        highest one it holds, one convolution each."""
        missing = []
        while self._powers.get((j, l), (-math.inf,))[0] < bound:
            missing.append((j, l))
            j, l = (j, l - 1) if l else (j - 1, 0)
        series = self._powers[j, l][1]
        for j, l in reversed(missing):
            series = self._convolve(series, self._p if l else self._y, bound)
            self._powers[j, l] = bound, series
        return series

    def _check_domain(self, i: int, j: int, l: int) -> None:
        """Raise unless x^i y^j p~^l lies in the domain of both entry forms.

        Its lowest term mu^l a_m^(j+l) t^(n*i + m*j + (m-n)*l) never cancels,
        so a negative x-power cancels exactly when that order is not negative.
        No exponent of a term exceeds j + l, so below the exponent limit no
        key carries into the next field."""
        if self.n * i + self.m * j + (self.m - self.n) * l < 0:
            raise ValidationError(f"x^{i} y^{j} p^{l} has surviving negative t-exponents; "
                                  "the negative x-power does not cancel")
        if j + l >= EXPONENT_LIMIT:
            raise ValidationError(f"x^{i} y^{j} p^{l}: j + l reaches the exponent limit {EXPONENT_LIMIT}")

    def monomial_series(self, index: tuple[int, int, int]) -> dict[int, Poly]:
        """t-expansion of x^i y^j p~^l below the cutoff (exponent -> Poly)."""
        index = i, j, l = _check_index(index)
        if index in self._series_memo:
            return self._series_memo[index]
        self._check_domain(i, j, l)
        series = self._power(j, l, self.cutoff - self.n * i)
        shifted = {e + self.n * i: c for e, c in series.items() if e + self.n * i < self.cutoff}
        self._series_memo[index] = shifted
        return shifted

    def entry(self, index: tuple[int, int, int], k: int) -> Poly:
        """Coefficient of t^k in the expansion of x^i y^j p~^l, on the domain
        of ``_check_domain``."""
        if not (0 <= _check_int(k, "column k") < self.cutoff):
            raise ValidationError(f"column {k} outside [0, {self.cutoff})")
        return self.monomial_series(index).get(k) or Poly._unchecked(self.gens, {})

    def entry_closed_form(self, index: tuple[int, int, int], k: int) -> Poly:
        """Same entry through the explicit combinatorial sum.

        Sum over multisets alpha of j+l indices in [m, cutoff) with weighted
        size k - (i-l)*n, and over sub-multisets gamma of size l marking
        which factors came from the twisted series; each choice contributes
        the multinomial j! l! / ((alpha-gamma)! gamma!) times
        prod a_s^alpha_s * prod (mu + s - m)^gamma_s.  The multisets of a
        (size, weight) and the terms of an (alpha, l) are memoized.
        """
        i, j, l = _check_index(index)
        if not (0 <= _check_int(k, "column k") < self.cutoff):
            raise ValidationError(f"column {k} outside [0, {self.cutoff})")
        self._check_domain(i, j, l)
        size_weight = j + l, k - (i - l) * self.n
        if size_weight not in self._multisets:
            self._multisets[size_weight] = [
                (alpha, sum(count * self._a_keys[s] for s, count in alpha), {})
                for alpha in _multisets(self.m, self.cutoff, *size_weight)
            ]
        terms: dict[int, int] = {}
        for alpha, base, twists in self._multisets[size_weight]:
            if l not in twists:
                twists[l] = {base + d * self._mu_key: c for d, c in enumerate(self._twist(alpha, j, l)) if c}
            terms.update(twists[l])
        return Poly._unchecked(self.gens, terms)

    def _twist(self, alpha: Multiset, j: int, l: int) -> list[int]:
        """The mu-coefficients of the sum over gamma for one multiset alpha.

        The sum of prod C(alpha_s, gamma_s) (mu + s - m)^gamma_s over the
        gamma of size l is the z^l coefficient of prod (1 + z(mu + s - m))^alpha_s,
        built one factor at a time; times j! l! / alpha! it is the sum of the
        multinomials, an integer polynomial, so the division is exact."""
        layers = [[1]] + [[0] * (r + 1) for r in range(1, l + 1)]  # z^r: degree r in mu
        for s, count in alpha:
            shift = s - self.m
            for _ in range(count):
                for r in range(l, 0, -1):  # times (1 + z(mu + shift)), top layer first
                    layer = layers[r]
                    for d, v in enumerate(layers[r - 1]):
                        layer[d] += shift * v
                        layer[d + 1] += v
        scale = math.factorial(j) * math.factorial(l)
        denominator = math.prod(math.factorial(count) for _, count in alpha)
        return [scale * v // denominator for v in layers[l]]

    # -- arithmetic families ----------------------------------------------------

    def family_indices(self, q: int, count: int) -> list[tuple[int, int, int]]:
        """The count+1 monomial indices (q+l, count-l, l) sharing the weighted
        valuation n*q + m*count."""
        _check_int(q, "q")
        if _check_int(count, "family size") < 0:
            raise ValidationError("family size must be non-negative")
        if self.family_valuation(q, count) < 0:
            raise ValidationError("family valuation must be non-negative")
        return [(q + l, count - l, l) for l in range(count + 1)]

    def family_valuation(self, q: int, count: int) -> int:
        return self.n * q + self.m * count

    def family_matrix(self, q: int, count: int, columns: list[int], rows: list[int] | None = None) -> list[list[Poly]]:
        indices = self.family_indices(q, count)
        if rows is None:
            rows = list(range(count + 1))
        matrix = []
        for l in rows:
            if not (0 <= _check_int(l, "row") <= count):
                raise ValidationError(f"row {l} outside the family 0..{count}")
            matrix.append([self.entry(indices[l], k) for k in columns])
        return matrix

    def family_determinant(self, q: int, count: int, columns: list[int], rows: list[int] | None = None) -> Poly:
        matrix = self.family_matrix(q, count, columns, rows)
        if len(matrix) != len(columns):
            raise ValidationError(
                f"determinant needs a square block: {len(matrix)} rows, {len(columns)} columns"
            )
        return determinant(matrix)

    def mu_derivative_matches(self, index: tuple[int, int, int], k: int) -> bool:
        """Check d(entry)/d(mu) = l * entry at index (i-1, j+1, l-1).

        The twisted series is linear in mu with Y as the mu-coefficient, so
        differentiating x^i y^j p~^l trades one p~ factor for a y factor and
        an x^-1; the check runs on both sides as polynomials.
        """
        i, j, l = index
        if l < 1 or i < 1:
            raise ValidationError("the derivative identity needs i >= 1 and l >= 1")
        lhs = self.entry(index, k).diff("mu")
        rhs = self.entry((i - 1, j + 1, l - 1), k) * l
        return lhs == rhs

    def minor_survives_twist(self, low: int, count: int, q: int, columns: list[int]) -> bool:
        """Determinant of family rows low..count on the given columns: accept
        when it is the zero polynomial or does not vanish at mu = m."""
        if not (0 <= _check_int(low, "low") <= count):
            raise ValidationError(f"need 0 <= {low} <= {count}")
        if len(columns) != count - low + 1:
            raise ValidationError(
                f"need {count - low + 1} columns for rows {low}..{count}, got {len(columns)}"
            )
        det = self.family_determinant(q, count, list(columns), rows=list(range(low, count + 1)))
        if not det:
            return True
        return bool(det.substitute({"mu": self.m}))


def _multisets(low: int, high: int, size: int, weight: int) -> list[Multiset]:
    """The multisets of ``size`` integers in [low, high) summing to
    ``weight``, as (value, count) pairs with non-zero counts."""
    found = []

    def walk(s: int, remaining: int, weight_left: int, alpha: list[tuple[int, int]]):
        if remaining == 0:
            if weight_left == 0:
                found.append(tuple(alpha))
            return
        if not remaining * s <= weight_left <= remaining * (high - 1):
            return
        walk(s + 1, remaining, weight_left, alpha)
        for count in range(1, min(remaining, weight_left // s) + 1):
            alpha.append((s, count))
            walk(s + 1, remaining - count, weight_left - count * s, alpha)
            alpha.pop()

    walk(low, size, weight, [])
    return found


def determinant(matrix: list[list[Poly]]) -> Poly:
    """Division-free determinant by memoized Laplace expansion along the last
    row, so the memoized minors span the first rows.  Each minor is one call
    of the sum-of-products kernel over its signed (entry, minor) cofactors."""
    d = len(matrix)
    if d == 0:
        raise ValidationError("empty determinant")
    if any(len(row) != d for row in matrix):
        raise ValidationError("matrix is not square")
    if d > DIMENSION_CAP:
        raise ValidationError(f"determinant dimension {d} exceeds cap {DIMENSION_CAP}")
    first = next((entry for row in matrix for entry in row if isinstance(entry, Poly)), None)
    if first is None:
        raise ValidationError("determinant needs a polynomial entry to fix its generators")
    gens = first.gens
    matrix = [[first._coerce(entry) for entry in row] for row in matrix]
    if any(entry is None for row in matrix for entry in row):
        raise ValidationError("determinant entries must be polynomials or rational scalars")
    memo: dict[tuple[int, ...], Poly] = {(): Poly.const(gens, 1)}

    def expand(cols: tuple[int, ...]) -> Poly:
        if cols not in memo:
            row = len(cols) - 1
            memo[cols] = _sum_of_products(gens, [
                (-1 if (row + pos) % 2 else 1, matrix[row][col], expand(cols[:pos] + cols[pos + 1:]))
                for pos, col in enumerate(cols)
                if matrix[row][col]
            ])
        return memo[cols]

    return expand(tuple(range(d)))


def leading_monomial(poly: Poly) -> tuple[dict[str, int], Fraction]:
    """Top term under lex order reading symbol exponents from the highest
    curve coefficient downwards.  Only defined for mu-free polynomials."""
    if not poly:
        raise ValidationError("the zero polynomial has no leading monomial")
    if poly.degree_in("mu"):
        raise ValidationError("leading monomials are only taken for mu-free polynomials")

    # Packed keys compare lex from the last generator down; mu is 0 here.
    best = max(poly.terms)
    named = {name: k for name, k in zip(poly.gens, unpack(best, len(poly.gens))) if k}
    return named, Fraction(poly.terms[best])
