"""Symbolic expansion coefficients of contact monomials along a universal curve.

Work over the polynomial ring Z[a_m, ..., a_{cutoff-1}, mu].  The universal
curve is x = t^n, y = sum a_s t^s, and instead of the honest derivative
coordinate we use the mu-twisted series

    p~ = sum (mu + s - m) a_s t^{s-n},

which restricts to n*p at mu = m and to the "zero twist" at mu = 0.  The
entry of index (J, k) is the t^k coefficient of x^i y^j p~^l for
J = (i, j, l); negative i is allowed whenever no negative t-exponent
survives.  Determinants of the arithmetic families (q+l, N-l, l), l = 0..N
turn out not to depend on mu, which is what makes them usable as
curve-genericity certificates.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError
from .sympoly import Poly, unpack

CUTOFF_CAP = 40
DIMENSION_CAP = 6


class ExpansionContext:
    def __init__(self, n: int, m: int, cutoff: int | None = None):
        if not (0 < n < m) or math.gcd(n, m) != 1:
            raise ValidationError(f"need coprime 0 < n < m, got ({n}, {m})")
        if cutoff is None:
            cutoff = (n - 1) * (m - 1)
        if cutoff <= m:
            raise ValidationError("cutoff must exceed m so at least a_m is present")
        if cutoff > CUTOFF_CAP:
            raise ValidationError(
                f"cutoff {cutoff} exceeds the symbolic layer cap {CUTOFF_CAP}"
            )
        self.n = n
        self.m = m
        self.cutoff = cutoff
        self.gens = ("mu",) + tuple(f"a{s}" for s in range(m, cutoff))
        self._series_memo: dict[tuple[int, int, int], dict[int, Poly]] = {}

    # -- building blocks ------------------------------------------------------

    def coefficient_symbol(self, s: int) -> Poly:
        if not (self.m <= s < self.cutoff):
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
        out: dict[int, Poly] = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = e1 + e2
                if e < bound:
                    prev = out.get(e)
                    out[e] = c1 * c2 if prev is None else prev + c1 * c2
        return {e: c for e, c in out.items() if c}

    def monomial_series(self, index: tuple[int, int, int]) -> dict[int, Poly]:
        """t-expansion of x^i y^j p~^l below the cutoff (exponent -> Poly)."""
        index = tuple(index)
        if index in self._series_memo:
            return self._series_memo[index]
        i, j, l = index
        if j < 0 or l < 0:
            raise ValidationError("y and p exponents must be non-negative")
        bound = self.cutoff - self.n * i
        series: dict[int, Poly] = {0: Poly.const(self.gens, 1)}
        for factor, count in ((self.y_series(), j), (self.twisted_p_series(), l)):
            for _ in range(count):
                series = self._convolve(series, factor, bound)
        shifted = {e + self.n * i: c for e, c in series.items() if e + self.n * i < self.cutoff}
        if any(e < 0 for e in shifted):
            raise ValidationError(
                f"x^{i} y^{j} p^{l} has surviving negative t-exponents; "
                "the negative x-power does not cancel"
            )
        self._series_memo[index] = shifted
        return shifted

    def entry(self, index: tuple[int, int, int], k: int) -> Poly:
        """Coefficient of t^k in the expansion of x^i y^j p~^l."""
        if not (0 <= k < self.cutoff):
            raise ValidationError(f"column {k} outside [0, {self.cutoff})")
        return self.monomial_series(index).get(k, Poly.const(self.gens, 0))

    def entry_closed_form(self, index: tuple[int, int, int], k: int) -> Poly:
        """Same entry through the explicit combinatorial sum.

        Sum over multisets alpha of j+l indices in [m, cutoff) with weighted
        size k - (i-l)*n, and over sub-multisets gamma of size l marking
        which factors came from the twisted series; each choice contributes
        the multinomial j! l! / ((alpha-gamma)! gamma!) times
        prod a_s^alpha_s * prod (mu + s - m)^gamma_s.
        """
        i, j, l = index
        if not (0 <= k < self.cutoff):
            raise ValidationError(f"column {k} outside [0, {self.cutoff})")
        target = k - (i - l) * self.n
        total = j + l
        indices = range(self.m, self.cutoff)
        mu = self.mu()
        result = Poly.const(self.gens, 0)
        jl_factor = math.factorial(j) * math.factorial(l)

        def walk(pos: int, remaining: int, weight_left: int, alpha: list[int]):
            nonlocal result
            if remaining == 0:
                if weight_left != 0:
                    return
                result = result + self._closed_form_term(alpha, l, jl_factor, mu)
                return
            if pos >= len(indices):
                return
            s = indices[pos]
            if weight_left < remaining * self.m:
                return
            max_count = min(remaining, weight_left // s) if s else remaining
            for count in range(max_count + 1):
                alpha.append(count)
                walk(pos + 1, remaining - count, weight_left - count * s, alpha)
                alpha.pop()

        if target >= 0:
            walk(0, total, target, [])
        return result

    def _closed_form_term(self, alpha: list[int], l: int, jl_factor: int, mu: Poly) -> Poly:
        indices = list(range(self.m, self.m + len(alpha)))
        base = Poly.const(self.gens, 1)
        for s, count in zip(indices, alpha):
            if count:
                base = base * self.coefficient_symbol(s) ** count
        total = Poly.const(self.gens, 0)

        def pick(pos: int, left: int, gamma: list[int]):
            nonlocal total
            if left == 0:
                gamma_full = gamma + [0] * (len(alpha) - len(gamma))
                coeff = jl_factor
                twist = Poly.const(self.gens, 1)
                for s, a_count, g_count in zip(indices, alpha, gamma_full):
                    coeff //= math.factorial(a_count - g_count) * math.factorial(g_count)
                    if g_count:
                        twist = twist * (mu + (s - self.m)) ** g_count
                total = total + twist * coeff
                return
            if pos >= len(alpha):
                return
            for g in range(min(alpha[pos], left) + 1):
                gamma.append(g)
                pick(pos + 1, left - g, gamma)
                gamma.pop()

        pick(0, l, [])
        return base * total

    # -- arithmetic families ----------------------------------------------------

    def family_indices(self, q: int, count: int) -> list[tuple[int, int, int]]:
        """The count+1 monomial indices (q+l, count-l, l) sharing the weighted
        valuation n*q + m*count."""
        if count < 0:
            raise ValidationError("family size must be non-negative")
        if self.n * q + self.m * count < 0:
            raise ValidationError("family valuation must be non-negative")
        return [(q + l, count - l, l) for l in range(count + 1)]

    def family_valuation(self, q: int, count: int) -> int:
        return self.n * q + self.m * count

    def family_matrix(
        self,
        q: int,
        count: int,
        columns: list[int],
        rows: list[int] | None = None,
        mu_value=None,
    ) -> list[list[Poly]]:
        indices = self.family_indices(q, count)
        if rows is None:
            rows = list(range(count + 1))
        matrix = []
        for l in rows:
            if not (0 <= l <= count):
                raise ValidationError(f"row {l} outside the family 0..{count}")
            row = [self.entry(indices[l], k) for k in columns]
            if mu_value is not None:
                row = [p.substitute({"mu": mu_value}) for p in row]
            matrix.append(row)
        return matrix

    def family_determinant(
        self,
        q: int,
        count: int,
        columns: list[int],
        rows: list[int] | None = None,
        mu_value=None,
    ) -> Poly:
        matrix = self.family_matrix(q, count, columns, rows, mu_value)
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
        if not (0 <= low <= count):
            raise ValidationError(f"need 0 <= {low} <= {count}")
        if len(columns) != count - low + 1:
            raise ValidationError(
                f"need {count - low + 1} columns for rows {low}..{count}, got {len(columns)}"
            )
        det = self.family_determinant(q, count, list(columns), rows=list(range(low, count + 1)))
        if not det:
            return True
        return bool(det.substitute({"mu": self.m}))


def determinant(matrix: list[list[Poly]]) -> Poly:
    """Division-free determinant by memoized Laplace expansion."""
    d = len(matrix)
    if d == 0:
        raise ValidationError("empty determinant")
    if any(len(row) != d for row in matrix):
        raise ValidationError("matrix is not square")
    if d > DIMENSION_CAP:
        raise ValidationError(f"determinant dimension {d} exceeds cap {DIMENSION_CAP}")
    gens = matrix[0][0].gens
    memo: dict[tuple[int, ...], Poly] = {(): Poly.const(gens, 1)}

    def expand(cols: tuple[int, ...]) -> Poly:
        if cols in memo:
            return memo[cols]
        row = d - len(cols)
        total = Poly.const(gens, 0)
        sign = 1
        for pos, col in enumerate(cols):
            entry = matrix[row][col]
            if entry:
                rest = cols[:pos] + cols[pos + 1:]
                term = entry * expand(rest)
                total = total + (term if sign > 0 else -term)
            sign = -sign
        memo[cols] = total
        return total

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
