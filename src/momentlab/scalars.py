"""Exact scalars in the rational span of declared real constants.

The scalar domain is a finite-dimensional vector space over the rationals
spanned by named constants, the first of which is always 1.  Declaring the
constants linearly independent over the rationals is a trusted input: it
cannot be verified for arbitrary reals, so the library documents the
contract instead of checking it.

The domain is a vector space, not a ring.  Products exist only when one
factor is rational or when the product of two constants has been declared
(e.g. sqrt2 * sqrt2 = 2); anything else raises UnsupportedScalarOperation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, isqrt
from typing import Callable, Iterable, NamedTuple, Sequence

RationalLike = int | Fraction


class ScalarError(ValueError):
    pass


class BasisMismatchError(ScalarError):
    """Two scalars from different constant bases were combined."""


class UnsupportedScalarOperation(ScalarError):
    """The requested operation leaves the declared rational span."""


class SignUndecidableError(ScalarError):
    """Interval arithmetic straddles zero and no symbolic rule applies."""


# Error radius assumed for a declared double: a few ulp, to absorb both the
# representation error of the double and the user's rounding of the constant.
_FLOAT_SLACK = Fraction(1, 2**48)


class ConstantBasis:
    """Named real constants spanning the scalar domain over the rationals.

    The first constant is always ``one`` with value 1.  Optional product
    declarations record that the real product of two non-unit constants is a
    known element of the span; they are what make division by quadratic
    surds such as sqrt2 possible.
    """

    __slots__ = ("names", "float_values", "_index", "_products", "_one")

    def __init__(
        self,
        names: Sequence[str] = ("one",),
        float_values: Sequence[float] = (1.0,),
    ):
        names = tuple(names)
        float_values = tuple(float(v) for v in float_values)
        if len(names) != len(float_values):
            raise ScalarError("names and float_values must have equal length")
        if not names or names[0] != "one" or float_values[0] != 1.0:
            raise ScalarError('first constant must be "one" with value 1.0')
        if len(set(names)) != len(names):
            raise ScalarError("constant names must be distinct")
        for name, value in zip(names[1:], float_values[1:]):
            # a zero constant depends on 1, and no sign rule applies to nan
            if not isfinite(value) or value == 0:
                raise ScalarError(f"constant {name!r} needs a finite nonzero value")
        self.names = names
        self.float_values = float_values
        self._index = {n: i for i, n in enumerate(names)}
        self._products: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        self._one = ExtScalar(self, (Fraction(1),) + (Fraction(0),) * (len(names) - 1))

    @property
    def size(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ScalarError(f"unknown constant {name!r}") from None

    def declare_product(self, a: str, b: str, coeffs: Sequence[RationalLike]) -> None:
        """Record that the real product a*b equals the span element `coeffs`.

        A rational square a*a must be positive and not the square of a
        rational: a would then be rational, and not independent of 1, while
        exact elimination and rationality tests treat it as irrational."""
        i, j = self.index_of(a), self.index_of(b)
        if i == 0 or j == 0:
            raise ScalarError("products with the unit need no declaration")
        value = _canon(coeffs, self.size)
        if i == j and not any(value[1:]):
            q = value[0]
            if q <= 0:
                raise ScalarError(f"declared square {q} of {a} is not positive")
            if all(isqrt(x) ** 2 == x for x in (q.numerator, q.denominator)):
                raise ScalarError(f"declared square {q} of {a} is a rational square, "
                                  f"so {a} would be rational")
        self._products[(i, j)] = value
        self._products[(j, i)] = value

    def product(self, i: int, j: int) -> tuple[Fraction, ...] | None:
        return self._products.get((i, j))

    def surd_square(self) -> Fraction | None:
        """q when the basis is {1, c} with a declared rational square c*c = q."""
        if self.size != 2:
            return None
        sq = self._products.get((1, 1))
        if sq is None or sq[1] != 0:
            return None
        return sq[0]

    def with_constant(
        self, name: str, float_value: float, square: RationalLike | None = None
    ) -> "ConstantBasis":
        """Return a new basis extended by one constant, optionally with a
        declared square (making it behave as a quadratic surd)."""
        basis = ConstantBasis(self.names + (name,), self.float_values + (float_value,))
        basis._products.update(self._products)
        if square is not None:
            sq = [Fraction(0)] * basis.size
            sq[0] = Fraction(square)
            basis.declare_product(name, name, sq)
        return basis

    @staticmethod
    def rationals() -> "ConstantBasis":
        return ConstantBasis()

    @staticmethod
    def with_sqrt(name: str = "sqrt2", radicand: RationalLike = 2) -> "ConstantBasis":
        radicand = Fraction(radicand)
        if radicand <= 0:
            raise ScalarError("radicand must be positive")
        value = float(radicand) ** 0.5
        return ConstantBasis().with_constant(name, value, square=radicand)

    def zero(self) -> "ExtScalar":
        return ExtScalar(self, (Fraction(0),) * self.size)

    def one(self) -> "ExtScalar":
        """The unit, one scalar per basis: scalars are immutable."""
        return self._one

    def from_rational(self, q: RationalLike) -> "ExtScalar":
        coeffs = [Fraction(0)] * self.size
        coeffs[0] = Fraction(q)
        return ExtScalar(self, tuple(coeffs))

    def constant(self, name: str) -> "ExtScalar":
        coeffs = [Fraction(0)] * self.size
        coeffs[self.index_of(name)] = Fraction(1)
        return ExtScalar(self, tuple(coeffs))

    def scalar(self, coeffs: Sequence[RationalLike]) -> "ExtScalar":
        return ExtScalar(self, _canon(coeffs, self.size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstantBasis):
            return NotImplemented
        return (
            self.names == other.names
            and self.float_values == other.float_values
            and self._products == other._products
        )

    def __hash__(self):
        return hash((self.names, self.float_values))

    def __repr__(self):
        return f"ConstantBasis({list(self.names)!r})"


def _canon(coeffs: Iterable[RationalLike], size: int) -> tuple[Fraction, ...]:
    out = tuple(Fraction(c) for c in coeffs)
    if len(out) != size:
        raise ScalarError(f"expected {size} coefficients, got {len(out)}")
    return out


@dataclass(frozen=True)
class ExtScalar:
    """Immutable exact number sum(coeffs[i] * constant[i]).

    The constructor trusts `coeffs` to match the basis, as every scalar the
    package builds does; ConstantBasis.scalar checks coefficients from
    outside.
    """

    basis: ConstantBasis
    coeffs: tuple[Fraction, ...]

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise UnsupportedScalarOperation(f"{self} is not rational")
        return self.coeffs[0]

    # -- vector-space arithmetic -------------------------------------------

    def _check(self, other: "ExtScalar") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("scalars use different constant bases")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return ExtScalar(
            self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return ExtScalar(
            self.basis, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return ExtScalar(self.basis, tuple(-a for a in self.coeffs))

    def scale(self, q: RationalLike) -> "ExtScalar":
        q = Fraction(q)
        return ExtScalar(self.basis, tuple(q * a for a in self.coeffs))

    def _coerce(self, other) -> "ExtScalar":
        if isinstance(other, ExtScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return self.basis.from_rational(other)
        raise TypeError(f"cannot combine ExtScalar with {type(other).__name__}")

    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerce(other) - self

    # -- partial products ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ExtScalar):
            return NotImplemented
        self._check(other)
        if self.is_rational():
            return other.scale(self.coeffs[0])
        if other.is_rational():
            return self.scale(other.coeffs[0])
        return self._mul_irrational(other)

    __rmul__ = __mul__

    def _mul_irrational(self, other: "ExtScalar") -> "ExtScalar":
        size = self.basis.size
        acc = [Fraction(0)] * size
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                ab = a * b
                if i == 0:
                    acc[j] += ab
                elif j == 0:
                    acc[i] += ab
                else:
                    prod = self.basis.product(i, j)
                    if prod is None:
                        raise UnsupportedScalarOperation(
                            f"product {self.basis.names[i]}*{self.basis.names[j]} "
                            "is not declared; the scalar domain is not a ring"
                        )
                    for t, p in enumerate(prod):
                        acc[t] += ab * p
        return ExtScalar(self.basis, tuple(acc))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self.scale(Fraction(1, 1) / q)
        if not isinstance(other, ExtScalar):
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if other.is_rational():
            return self.scale(Fraction(1) / other.coeffs[0])
        return _divide(self, other)

    # -- evaluation and ordering ---------------------------------------------

    def to_float(self) -> float:
        return float(
            sum(float(c) * v for c, v in zip(self.coeffs, self.basis.float_values))
        )

    def sign(self) -> int:
        """Exact sign where decidable; raises SignUndecidableError otherwise."""
        nonzero = [i for i, c in enumerate(self.coeffs) if c != 0]
        if not nonzero:
            return 0
        if nonzero == [0]:
            return 1 if self.coeffs[0] > 0 else -1
        if len(nonzero) == 1:
            # single declared constant with a known (positive) float value
            i = nonzero[0]
            const_sign = 1 if self.basis.float_values[i] > 0 else -1
            return const_sign if self.coeffs[i] > 0 else -const_sign
        if len(nonzero) == 2 and nonzero[0] == 0:
            i = nonzero[1]
            sq = self.basis.product(i, i)
            if sq is not None and all(c == 0 for c in sq[1:]):
                # the constant is +sqrt(q) or -sqrt(q), by its declared value
                value = self.basis.float_values[i]
                if value == 0:
                    raise SignUndecidableError("declared square with a zero constant")
                b = self.coeffs[i] if value > 0 else -self.coeffs[i]
                return _surd_sign(self.coeffs[0], b, sq[0])
        return self._sign_interval()

    def _sign_interval(self) -> int:
        value = Fraction(0)
        radius = Fraction(0)
        for c, v in zip(self.coeffs, self.basis.float_values):
            if c == 0:
                continue
            fv = Fraction(v)
            value += c * fv
            radius += abs(c) * abs(fv) * _FLOAT_SLACK
        if value > radius:
            return 1
        if value < -radius:
            return -1
        raise SignUndecidableError(
            f"sign of {self} cannot be certified from declared float values"
        )

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    # -- text form -------------------------------------------------------------

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif abs(c) == 1:
                sign = "-" if c < 0 else ""
                terms.append(f"{sign}{self.basis.names[i]}")
            else:
                terms.append(f"{c}*{self.basis.names[i]}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        return f"ExtScalar({self})"


def _surd_sign(a, b, q) -> int:
    """Sign of a + b*sqrt(q) for rationals a, b and q > 0, decided from a^2
    against b^2*q; exact on integers too."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    lhs, rhs = a * a, b * b * q
    if lhs == rhs:
        return 0
    return (1 if a > 0 else -1) if lhs > rhs else (1 if b > 0 else -1)


def _divide(num: ExtScalar, den: ExtScalar) -> ExtScalar:
    """Solve x*den = num over the rational span, if the products allow it:
    the rational system whose columns are constant[t] * den, over the
    constants t for which that product is declared; a solution using any
    other constant would make x*den undefined.
    """
    basis = num.basis
    size = basis.size
    used, columns = [], []
    for t, name in enumerate(basis.names):
        try:
            columns.append((basis.constant(name) * den).coeffs)
        except UnsupportedScalarOperation:
            continue
        used.append(t)
    k = len(used)
    reduced, pivots, last = _eliminate_rational(
        [[col[r] for col in columns] + [num.coeffs[r]] for r in range(size)]
    )
    if pivots and pivots[-1] == k:
        raise UnsupportedScalarOperation(
            f"cannot divide {num} by {den} within the declared span"
        )
    x = [Fraction(0)] * size
    for row, c in zip(reduced, pivots):
        x[used[c]] = Fraction(row[k], last)
    return ExtScalar(basis, tuple(x))


# -- the elimination kernel ------------------------------------------------------


def _eliminate(D: "_Domain", rows: list[list]):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) over the
    integral domain D; the one elimination loop of the package.

    Each step with pivot p replaces every other row by
    (p*row - f*pivot_row) / prev, where f is that row's entry in the pivot
    column and prev the previous pivot (initially D.one).  The division is
    exact because every entry stays a minor of the input.  Earlier pivot rows
    then carry p in their pivot columns, so on return every nonzero row
    carries the last pivot in its pivot column; dividing by it gives the
    reduced row-echelon form.  D.step does one row update.  `rows` is
    consumed.

    Returns the nonzero rows, their pivot columns and the last pivot.
    """
    nonzero, combine = D.nonzero, D.step
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = D.one
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, n) if nonzero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n):
            if i != r:
                rows[i] = combine(rows[i], prow, p, rows[i][c], prev)
        prev = p
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivots, prev


def _z_step(row: list[int], prow: list[int], p: int, f: int, prev: int) -> list[int]:
    """The Bareiss row update over Z."""
    if f == 0:
        return [p * a // prev for a in row]
    return [(p * a - f * b) // prev for a, b in zip(row, prow)]


def _z_comb(x: int, u: Sequence[int], y: int, v: Sequence[int]) -> tuple[int, ...]:
    w = [x * a - y * b for a, b in zip(u, v)]
    g = gcd(*w)
    return tuple(c // g for c in w) if g > 1 else tuple(w)


def _z_prim(v: Sequence[int]) -> tuple[int, ...]:
    """The nonzero v over the gcd of its entries, first nonzero entry positive."""
    g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
    return tuple(x // g for x in v)


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the least common multiple of their denominators, and
    that multiple."""
    lcm = 1
    for x in values:
        d = x.denominator
        if lcm % d:
            lcm *= Fraction(lcm, d).denominator  # lcm(lcm, d)
    return [x.numerator * (lcm // x.denominator) for x in values], lcm


class _SurdRing:
    """Z[s] for a basis {1, c} with a declared square c*c = q = n/m, where
    s = m*c and s*s = n*m.  An element is a pair (a, b) of integers meaning
    a + b*s; elimination and double description run on these."""

    __slots__ = ("basis", "m", "s2", "positive")

    def __init__(self, basis: ConstantBasis, q: Fraction):
        self.basis = basis
        self.m = q.denominator
        self.s2 = q.numerator * q.denominator
        self.positive = basis.float_values[1] > 0

    def clear(self, row: Sequence[ExtScalar]) -> tuple[tuple, tuple[int, int]]:
        """A row of scalars as pairs, scaled by the positive integer that
        clears its denominators, and that integer as an element of Z[s]."""
        m = self.m
        if m == 1:  # an integer square, as for sqrt2: s is c itself
            values = [x for e in row for x in e.coeffs]
        else:
            values = [x for e in row for x in (e.coeffs[0], e.coeffs[1] / m)]
        flat, lcm = _clear_denominators(values)
        return tuple(zip(flat[::2], flat[1::2])), (lcm, 0)

    def sign(self, x: tuple[int, int]) -> int:
        """Exact sign, with c the positive or the negative root as its
        declared value says."""
        return _surd_sign(x[0], x[1] if self.positive else -x[1], self.s2)

    def norm(self, d: tuple[int, int]) -> int:
        """d times its conjugate, nonzero for nonzero d: the declared square
        is not a rational square (ConstantBasis.declare_product)."""
        d0, d1 = d
        return d0 * d0 - d1 * d1 * self.s2

    def dot(self, a: Sequence[tuple[int, int]], v: Sequence[tuple[int, int]]) -> tuple[int, int]:
        x0 = x1 = y = 0
        for (a0, a1), (b0, b1) in zip(a, v):
            x0 += a0 * b0
            y += a1 * b1
            x1 += a0 * b1 + a1 * b0
        return (x0 + y * self.s2, x1)

    def _msub(self, x, u, y, v) -> list[tuple[int, int]]:
        """x*u - y*v for x, y in Z[s] and vectors u, v."""
        (x0, x1), (y0, y1), s2 = x, y, self.s2
        return [
            (x0 * a0 - y0 * b0 + (x1 * a1 - y1 * b1) * s2,
             x0 * a1 + x1 * a0 - y0 * b1 - y1 * b0)
            for (a0, a1), (b0, b1) in zip(u, v)
        ]

    def comb(self, x, u, y, v) -> tuple[tuple[int, int], ...]:
        """x*u - y*v divided by the gcd of its integers."""
        w = self._msub(x, u, y, v)
        g = gcd(*(c for e in w for c in e))
        return tuple((c0 // g, c1 // g) for c0, c1 in w) if g > 1 else tuple(w)

    def step(self, row, prow, p, f, prev) -> list[tuple[int, int]]:
        """The Bareiss update (p*row - f*prow) / prev: multiply by the
        conjugate of prev, then divide by its norm."""
        c0, c1 = prev
        norm, s2 = self.norm(prev), self.s2
        return [
            ((x0 * c0 - x1 * c1 * s2) // norm, (x1 * c0 - x0 * c1) // norm)
            for x0, x1 in self._msub(p, row, f, prow)
        ]

    def canon(self, v: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
        """v times the absolute value of the conjugate of its first nonzero
        entry, which makes that entry rational, then made primitive."""
        e0, e1 = next(e for e in v if e[0] or e[1])
        if not e1:
            return v
        conj = (e0, -e1) if self.sign((e0, -e1)) > 0 else (-e0, e1)
        return self.comb(conj, v, (0, 0), v)

    def prim(self, v: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        """The nonzero v times the conjugate of its first nonzero entry e,
        made primitive (comb), where e becomes its norm over a positive
        integer, and negated if that is negative."""
        e = next(e for e in v if e[0] or e[1])
        w = self.comb((e[0], -e[1]), v, (0, 0), v)
        return w if self.norm(e) > 0 else tuple((-a, -b) for a, b in w)

    def quotients(self, v: Sequence[tuple[int, int]], d: tuple[int, int]) -> tuple[ExtScalar, ...]:
        """The entries of v divided by d, as scalars: directly when d is an
        integer, else multiply by the conjugate of d, then divide by its
        norm."""
        d0, d1 = d
        m, basis = self.m, self.basis
        if not d1:
            return tuple(ExtScalar(basis, (Fraction(a0, d0), Fraction(a1 * m, d0))) for a0, a1 in v)
        norm, s2 = self.norm(d), self.s2
        return tuple(
            ExtScalar(basis, (Fraction(a0 * d0 - a1 * d1 * s2, norm),
                              Fraction((a1 * d0 - a0 * d1) * m, norm)))
            for a0, a1 in v
        )


# -- the number domain -----------------------------------------------------------


class _Domain(NamedTuple):
    """One number domain for exact elimination, products, double description
    and the signs decided around them; `_domain` picks it."""

    conv: Callable  # a row of scalars in this domain, times a positive number
    one: object  # the unit of the domain, the first Bareiss divisor
    zero: object
    unit: Callable  # unit(n, i): the i-th unit vector of length n
    nonzero: Callable
    step: Callable  # the Bareiss row update of _eliminate
    dot: Callable
    sign: Callable
    comb: Callable  # comb(x, u, y, v): a positive multiple of x*u - y*v
    canon: Callable  # the representative of a ray up to positive scaling
    neg: Callable  # vector negation
    div: Callable  # div(v, d): the entries of v divided by d, as scalars
    lift: Callable  # a row over Z in this domain, canonical if the row is
    coeff_rows: Callable  # a row's coefficient rows, one per constant, as integers
    prim: Callable  # the representative of a nonzero row up to nonzero scaling
    ints: Callable  # a row of integers in this domain, exactly


def _scaled(D: _Domain, basis: ConstantBasis, row: Sequence[ExtScalar]) -> tuple[list, object]:
    """D.conv(row) and the positive number it multiplies the row by, in D."""
    *out, mult = D.conv((*row, basis.one()))
    return out, mult


# Z for rational scalars in any basis; `_domain` adds the basis's `div`.
_Z = _Domain(
    conv=lambda row: tuple(_clear_denominators([e.coeffs[0] for e in row])[0]),
    one=1, zero=0, unit=lambda n, i: tuple(int(j == i) for j in range(n)),
    nonzero=bool, step=_z_step,
    dot=lambda a, v: sum(x * y for x, y in zip(a, v)),
    sign=lambda x: (x > 0) - (x < 0), comb=_z_comb, canon=lambda v: v,
    neg=lambda v: tuple(-x for x in v),
    div=None, lift=tuple, coeff_rows=lambda v: [v], prim=_z_prim, ints=tuple,
)


def _eliminate_rational(rows: Sequence[Sequence[Fraction]]):
    """_eliminate over Z on a matrix of Fractions, each row first cleared of
    its denominators: the nonzero integer rows, their pivots and the last
    pivot, which each row carries in its pivot column."""
    return _eliminate(_Z, [_clear_denominators(row)[0] for row in rows])


def _surd_lift(v: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((x, 0) for x in v)


def _surd_coeff_rows(v: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    return [tuple(a for a, _ in v), tuple(b for _, b in v)]


def _domain(basis: ConstantBasis, rows: Sequence[Sequence[ExtScalar]]) -> _Domain:
    """The number domain for vectors like `rows`: the package's one choice
    between Z, Z[s] and the scalars.

    All-rational rows run over Z after clearing each row's denominators (a
    positive row scaling keeps every sign), where primitive vectors are
    canonical.  Rows over a declared surd run on pairs in Z[s] (_SurdRing),
    whose signs follow the sign of the constant.  Any other basis runs on
    the scalars, where a ray is divided by the absolute value of its first
    nonzero entry and signs come from ExtScalar.sign().  Converting a
    normalized ray with `conv` gives its canonical form.  A row's coefficient
    rows, one per constant of the domain (1 over Z; 1 and s over Z[s]; the
    basis's constants over the scalars), span the smallest rational subspace
    containing it, since the constants are independent over the rationals.
    `prim` gives a row's representative up to nonzero scaling: first nonzero
    entry a positive integer (one on the scalars) and, over Z and Z[s], no
    common integer factor.
    """
    if all(not any(e.coeffs[1:]) for row in rows for e in row):
        tail = (Fraction(0),) * (basis.size - 1)
        return _Z._replace(
            div=lambda v, d: tuple(ExtScalar(basis, (Fraction(x, d),) + tail) for x in v))
    q = basis.surd_square()
    if q is not None:
        ring = _SurdRing(basis, q)
        return _Domain(
            conv=lambda row: ring.clear(row)[0],
            one=(1, 0), zero=(0, 0), unit=lambda n, i: tuple((int(j == i), 0) for j in range(n)),
            nonzero=lambda e: e[0] or e[1], step=ring.step, dot=ring.dot,
            sign=ring.sign, comb=ring.comb, canon=ring.canon,
            neg=lambda v: tuple((-a, -b) for a, b in v), div=ring.quotients,
            lift=_surd_lift, coeff_rows=_surd_coeff_rows, prim=ring.prim, ints=_surd_lift,
        )
    one, zero = basis.one(), basis.zero()

    def msub(x, u, y, v):
        return [x * a - y * b for a, b in zip(u, v)]

    def dot(a, v):
        acc = zero
        for x, y in zip(a, v):
            acc = acc + x * y
        return acc

    def canon(v):
        for e in v:
            s = e.sign()
            if s:
                scale = e if s > 0 else -e
                return tuple(x / scale for x in v)
        return v

    def prim(v):
        first = next(e for e in v if not e.is_zero())
        return tuple(x / first for x in v)

    def ints(v):
        return tuple(map(basis.from_rational, v))

    return _Domain(
        conv=tuple, one=one, zero=zero,
        unit=lambda n, i: tuple(one if j == i else zero for j in range(n)),
        nonzero=lambda e: not e.is_zero(),
        step=lambda row, prow, p, f, prev: [e / prev for e in msub(p, row, f, prow)],
        dot=dot, sign=lambda x: x.sign(), comb=lambda x, u, y, v: tuple(msub(x, u, y, v)),
        canon=canon, neg=lambda v: tuple(-x for x in v),
        div=lambda v, d: tuple(x / d for x in v),
        lift=lambda v: canon(ints(v)),
        coeff_rows=lambda v: [_clear_denominators([e.coeffs[t] for e in v])[0]
                              for t in range(basis.size)],
        prim=prim, ints=ints,
    )


def _same(v):
    return v


def _common(D: _Domain, E: _Domain) -> tuple[_Domain, Callable, Callable]:
    """One domain for rows of D and rows of E over the same basis, and the
    maps taking each side's rows into it.  Two domains over one basis differ
    only when one is Z; its rows are then lifted into the other's, so each
    row stays a positive multiple of its scalars and keeps every sign."""
    if D.step is _z_step and E.step is not _z_step:
        return E, E.lift, _same
    if E.step is _z_step and D.step is not _z_step:
        return D, _same, D.lift
    return D, _same, _same


# -- parsing ---------------------------------------------------------------------

_TERM = re.compile(
    r"^(?P<coef>\d+(?:/\d+)?)?\s*\*?\s*(?P<name>[A-Za-z_]\w*)?$"
)


def parse_scalar(text: str | int | float, basis: ConstantBasis) -> ExtScalar:
    """Parse text like ``"1 + 1/2*sqrt2"`` or ``"-3/2"`` into a scalar."""
    if isinstance(text, (int, float)):
        return _from_number(text, basis)
    s = text.strip()
    if not s:
        raise ScalarError("empty scalar")
    coeffs = [Fraction(0)] * basis.size
    for i, term in enumerate(s.replace("-", "+-").split("+")):
        term = term.strip()
        if not term:
            if i == 0:
                continue
            raise ScalarError(f"dangling operator in scalar {text!r}")
        negative = term.startswith("-")
        if negative:
            term = term[1:].strip()
        m = _TERM.match(term)
        if not m or (m.group("coef") is None and m.group("name") is None):
            raise ScalarError(f"cannot parse scalar term {term!r} in {text!r}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError:
            raise ScalarError(f"zero denominator in scalar {text!r}") from None
        if negative:
            coef = -coef
        idx = basis.index_of(m.group("name")) if m.group("name") else 0
        coeffs[idx] += coef
    return ExtScalar(basis, tuple(coeffs))


def _from_number(value, basis: ConstantBasis) -> ExtScalar:
    if isinstance(value, bool):
        raise ScalarError(f"{value!r} is not a number")
    if isinstance(value, int):
        return basis.from_rational(value)
    try:
        frac = Fraction(value)
    except (ValueError, OverflowError):
        raise ScalarError(f"float {value!r} is not a finite number") from None
    if frac.denominator > 10**6:
        raise ScalarError(
            f"float {value!r} is not an exact small rational; write it as 'p/q'"
        )
    return basis.from_rational(frac)
