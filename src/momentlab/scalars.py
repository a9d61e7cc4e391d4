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
from math import gcd
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

    __slots__ = ("names", "float_values", "_index", "_products")

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
        self.names = names
        self.float_values = float_values
        self._index = {n: i for i, n in enumerate(names)}
        self._products: dict[tuple[int, int], tuple[Fraction, ...]] = {}

    @property
    def size(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ScalarError(f"unknown constant {name!r}") from None

    def declare_product(self, a: str, b: str, coeffs: Sequence[RationalLike]) -> None:
        """Record that the real product a*b equals the span element `coeffs`."""
        i, j = self.index_of(a), self.index_of(b)
        if i == 0 or j == 0:
            raise ScalarError("products with the unit need no declaration")
        value = _canon(coeffs, self.size)
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
        return self.from_rational(1)

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
    """Immutable exact number sum(coeffs[i] * constant[i])."""

    basis: ConstantBasis
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.basis.size:
            raise ScalarError("coefficient count does not match basis")

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
    """Solve x*den = num over the rational span, if the products allow it.

    Over a quadratic surd c with c*c = q this is the conjugate formula
    (a + b*c) / (e + f*c) = (a + b*c)(e - f*c) / (e^2 - f^2*q); any other
    basis solves the rational system whose columns are constant[t] * den.
    """
    basis = num.basis
    size = basis.size
    q = basis.surd_square()
    if q is not None:
        (a, b), (e, f) = num.coeffs, den.coeffs
        norm = e * e - f * f * q
        if norm == 0:
            raise UnsupportedScalarOperation(
                f"cannot divide {num} by {den}: declared square is a rational square"
            )
        return ExtScalar(basis, ((a * e - b * f * q) / norm, (b * e - a * f) / norm))
    columns = []
    for t in range(size):
        unit = [Fraction(0)] * size
        unit[t] = Fraction(1)
        columns.append((ExtScalar(basis, tuple(unit)) * den).coeffs)
    reduced, pivots = _rat_rref(
        [[col[r] for col in columns] + [num.coeffs[r]] for r in range(size)]
    )
    if pivots and pivots[-1] == size:
        raise UnsupportedScalarOperation(
            f"cannot divide {num} by {den} within the declared span"
        )
    x = [Fraction(0)] * size
    for row, c in zip(reduced, pivots):
        x[c] = row[size]
    return ExtScalar(basis, tuple(x))


# -- the elimination kernel ------------------------------------------------------


def _eliminate(rows: list[list], nonzero, combine, one):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) over an
    integral domain; the one elimination loop of the package.

    Each step with pivot p replaces every other row by
    (p*row - f*pivot_row) / prev, where f is that row's entry in the pivot
    column and prev the previous pivot (initially `one`).  The division is
    exact because every entry stays a minor of the input.  Earlier pivot rows
    then carry p in their pivot columns, so on return every nonzero row
    carries the last pivot in its pivot column; dividing by it gives the
    reduced row-echelon form.  `combine(row, pivot_row, p, f, prev)` does one
    row update in the caller's domain.  `rows` is consumed.

    Returns the nonzero rows, their pivot columns and the last pivot.
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = one
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


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the least common multiple of their denominators, and
    that multiple."""
    lcm = 1
    for x in values:
        d = x.denominator
        if lcm % d:
            lcm *= Fraction(lcm, d).denominator  # lcm(lcm, d)
    return [x.numerator * (lcm // x.denominator) for x in values], lcm


def _z_clear(row: Sequence[ExtScalar]) -> tuple[tuple[int, ...], int]:
    """A row of rational scalars as integers, scaled by the positive integer
    that clears its denominators, and that integer."""
    ints, lcm = _clear_denominators([e.coeffs[0] for e in row])
    return tuple(ints), lcm


def _rat_rref(rows: Sequence[Sequence[RationalLike]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form of a rational matrix, eliminated over the
    integers after clearing each row's denominators."""
    work = [_clear_denominators([Fraction(x) for x in row])[0] for row in rows]
    reduced, pivots, last = _eliminate(work, bool, _z_step, 1)
    return [[Fraction(a, last) for a in row] for row in reduced], pivots


class _SurdRing:
    """Z[s] for a basis {1, c} with a declared square c*c = q = n/m, where
    s = m*c and s*s = n*m.  An element is a pair (a, b) of integers meaning
    a + b*s; elimination and double description run on these."""

    __slots__ = ("basis", "q", "m", "s2", "positive")

    def __init__(self, basis: ConstantBasis, q: Fraction):
        self.basis, self.q = basis, q
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
        """d times its conjugate.  That is nonzero for nonzero d unless the
        declared square is a rational square, which raises."""
        d0, d1 = d
        norm = d0 * d0 - d1 * d1 * self.s2
        if norm == 0:
            raise UnsupportedScalarOperation(
                f"declared square {self.q} of {self.basis.names[1]} is a rational square"
            )
        return norm

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
        self.norm((e0, e1))  # raises if the declared square is a rational square
        conj = (e0, -e1) if self.sign((e0, -e1)) > 0 else (-e0, e1)
        return self.comb(conj, v, (0, 0), v)

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
    scaled: Callable  # (conv(row), that positive number in this domain)
    one: object  # the unit of the domain, the first Bareiss divisor
    unit: Callable  # unit(n, i): the i-th unit vector of length n
    nonzero: Callable
    step: Callable  # the Bareiss row update of _eliminate
    dot: Callable
    sign: Callable
    comb: Callable  # comb(x, u, y, v): a positive multiple of x*u - y*v
    canon: Callable  # the representative of a ray up to positive scaling
    neg: Callable  # vector negation
    div: Callable  # div(v, d): the entries of v divided by d, as scalars


def _domain(basis: ConstantBasis, rows: Sequence[Sequence[ExtScalar]]) -> _Domain:
    """The number domain for vectors like `rows`: the package's one choice
    between Z, Z[s] and the scalars.

    All-rational rows run over Z after clearing each row's denominators (a
    positive row scaling keeps every sign), where primitive vectors are
    canonical.  Rows over a declared surd with a nonzero constant run on
    pairs in Z[s] (_SurdRing), whose signs follow the sign of the constant.
    Any other basis runs on the scalars, where a ray is divided by the
    absolute value of its first nonzero entry and signs come from
    ExtScalar.sign().  Converting a normalized ray with `conv` gives its
    canonical form.
    """
    if all(not any(e.coeffs[1:]) for row in rows for e in row):
        tail = (Fraction(0),) * (basis.size - 1)
        return _Domain(
            conv=lambda row: tuple(_clear_denominators([e.coeffs[0] for e in row])[0]),
            scaled=_z_clear,
            one=1, unit=lambda n, i: tuple(int(j == i) for j in range(n)),
            nonzero=bool, step=_z_step,
            dot=lambda a, v: sum(x * y for x, y in zip(a, v)),
            sign=lambda x: (x > 0) - (x < 0), comb=_z_comb, canon=lambda v: v,
            neg=lambda v: tuple(-x for x in v),
            div=lambda v, d: tuple(ExtScalar(basis, (Fraction(x, d),) + tail) for x in v),
        )
    q = basis.surd_square()
    if q is not None and basis.float_values[1]:
        ring = _SurdRing(basis, q)
        return _Domain(
            conv=lambda row: ring.clear(row)[0], scaled=ring.clear,
            one=(1, 0), unit=lambda n, i: tuple((int(j == i), 0) for j in range(n)),
            nonzero=lambda e: e[0] or e[1], step=ring.step, dot=ring.dot,
            sign=ring.sign, comb=ring.comb, canon=ring.canon,
            neg=lambda v: tuple((-a, -b) for a, b in v), div=ring.quotients,
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

    return _Domain(
        conv=tuple, scaled=lambda row: (tuple(row), one), one=one,
        unit=lambda n, i: tuple(one if j == i else zero for j in range(n)),
        nonzero=lambda e: not e.is_zero(),
        step=lambda row, prow, p, f, prev: [e / prev for e in msub(p, row, f, prow)],
        dot=dot, sign=lambda x: x.sign(), comb=lambda x, u, y, v: tuple(msub(x, u, y, v)),
        canon=canon, neg=lambda v: tuple(-x for x in v),
        div=lambda v, d: tuple(x / d for x in v),
    )


# -- whole-vector utilities ----------------------------------------------------


def is_rational_direction(v: Sequence[ExtScalar]) -> bool:
    """True iff some nonzero real multiple of v has all entries rational.

    Equivalent to the rational coefficient matrix (entries x constants)
    having rank at most 1: all entries must lie on a single rational line
    through one common factor.
    """
    rows = [x.coeffs for x in v if not x.is_zero()]
    if not rows:
        raise ScalarError("zero vector has no direction")
    first = rows[0]
    for row in rows[1:]:
        # all 2x2 minors against the first nonzero row must vanish
        for i in range(len(first)):
            for j in range(i + 1, len(first)):
                if first[i] * row[j] - first[j] * row[i] != 0:
                    return False
    # remaining rows are automatically proportional to the first
    return True


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
