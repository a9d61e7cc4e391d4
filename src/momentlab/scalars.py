"""Exact scalars in the rational span of up to three square roots and their
products.

A ConstantBasis is built from its roots c_1..c_k, k <= 3, each a name, a
float value and a positive rational square.  Its constants are the 2^k
products of the roots, listed by bitmask (1, c_1, c_2, c_1*c_2, c_3, ...).
No product of roots has a rational square, so by Besicovitch's theorem (J.
London Math. Soc. 1940) the constants are linearly independent over the
rationals, and every product is fixed: c_t*c_u = squares[t & u]*c_(t ^ u).
Exact elimination, division and signs run in one of two rings: Z for
rational rows, and Z[s_1..s_k] (_SurdRing) for the others.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt
from typing import Callable, Iterable, NamedTuple, Sequence

RationalLike = int | Fraction
# the largest finite double; a larger integer cannot be read as a float
_MAX_FLOAT = sys.float_info.max


class ScalarError(ValueError):
    pass


class BasisMismatchError(ScalarError):
    """Two scalars from different constant bases were combined."""


class UnsupportedScalarOperation(ScalarError):
    """The requested operation leaves the span."""


def _is_positive_number(value) -> bool:
    return (isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)
            and 0 < value <= _MAX_FLOAT)


class ConstantBasis:
    """The constants 1, c_1, c_2, c_1*c_2, c_3, ... derived by bitmask from
    up to three roots (name, value, square), with their names, float values
    and squares.  A product of roots named sqrt<k> is named sqrt<n>, any
    other by its factors' names joined with "_"."""

    __slots__ = ("roots", "names", "float_values", "squares", "_index", "_one", "_ring")

    def __init__(self, roots: Sequence[tuple[str, float, RationalLike]] = ()):
        roots = tuple(roots)
        if len(roots) > 3:
            raise ScalarError("at most three square roots can be declared")
        names, values, squares, checked = ["one"], [1.0], [Fraction(1)], []
        for k, (name, value, square) in enumerate(roots):
            # a zero constant depends on 1, and no sign rule applies to nan
            if not _is_positive_number(abs(value)):
                raise ScalarError(f"{name} needs a finite nonzero value")
            if not _is_positive_number(square):
                raise ScalarError(f"{name}: square must be a positive number")
            value, square = float(value), Fraction(square)
            checked.append((name, value, square))
            for i in range(1 << k):
                sqrt_names = names[i] == f"sqrt{squares[i]}" and name == f"sqrt{square}"
                names.append(name if i == 0 else f"sqrt{squares[i] * square}" if sqrt_names
                             else f"{names[i]}_{name}")
                values.append(values[i] * value)
                squares.append(squares[i] * square)
            # the subsets of roots holding this one, in bitmask order
            for mask in range(1 << k, 2 << k):
                q = squares[mask]
                if all(isqrt(x) ** 2 == x for x in (q.numerator, q.denominator)):
                    factors = "*".join(r[0] for i, r in enumerate(checked) if mask >> i & 1)
                    raise ScalarError(f"{factors} has the rational square {q}, "
                                      "so the square roots are not independent")
        if len(set(names)) != len(names):
            raise ScalarError("constant names must be distinct")
        self.roots = tuple(checked)
        self.names, self.float_values, self.squares = tuple(names), tuple(values), tuple(squares)
        self._index = {n: i for i, n in enumerate(names)}
        self._one = ExtScalar(self, (Fraction(1),) + (Fraction(0),) * (len(names) - 1))
        self._ring = None

    @property
    def size(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ScalarError(f"unknown constant {name!r}") from None

    def ring(self) -> "_SurdRing":
        """The basis as Z[s_1..s_k] (_SurdRing), built on first use."""
        if self._ring is None:
            self._ring = _SurdRing(self)
        return self._ring

    def with_root(self, name: str, value: float, square: RationalLike) -> "ConstantBasis":
        """A new basis with one more root."""
        return ConstantBasis(self.roots + ((name, value, square),))

    @staticmethod
    def rationals() -> "ConstantBasis":
        return ConstantBasis()

    @staticmethod
    def with_sqrt(name: str = "sqrt2", radicand: RationalLike = 2) -> "ConstantBasis":
        if not _is_positive_number(radicand):  # before its root overflows a float
            raise ScalarError(f"{name}: square must be a positive number")
        return ConstantBasis([(name, float(radicand) ** 0.5, radicand)])

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
        return self.roots == other.roots

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
        return ExtScalar(
            self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._coerce(other)
        return ExtScalar(
            self.basis, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return ExtScalar(self.basis, tuple(-a for a in self.coeffs))

    def scale(self, q: RationalLike) -> "ExtScalar":
        q = Fraction(q)
        return ExtScalar(self.basis, tuple(q * a for a in self.coeffs))

    def _coerce(self, other) -> "ExtScalar":
        """other, a scalar of this basis or a rational, as a scalar."""
        if isinstance(other, ExtScalar):
            self._check(other)
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
        """The product by the bitmask rule c_t*c_u = squares[t & u]*c_(t ^ u)."""
        squares = self.basis.squares
        acc = [Fraction(0)] * len(squares)
        for t, a in enumerate(self.coeffs):
            if a:
                for u, b in enumerate(other.coeffs):
                    if b:
                        acc[t ^ u] += a * b * squares[t & u] if t & u else a * b
        return ExtScalar(self.basis, tuple(acc))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(1 / Fraction(other))
        if not isinstance(other, ExtScalar):
            return NotImplemented
        self._check(other)
        if other.is_rational():  # 1 / 0 raises ZeroDivisionError
            return self.scale(1 / other.coeffs[0])
        return _divide(self, other)

    # -- evaluation and ordering ---------------------------------------------

    def to_float(self) -> float:
        return float(
            sum(float(c) * v for c, v in zip(self.coeffs, self.basis.float_values))
        )

    def sign(self) -> int:
        """Exact sign: a single constant has the sign of its float value, the
        product of its roots', and any other irrational scalar is signed in
        the basis's ring."""
        nonzero = [i for i, c in enumerate(self.coeffs) if c != 0]
        if len(nonzero) > 1:
            ring = self.basis.ring()
            return ring.sign(ring.clear((self,))[0])
        for i in nonzero:
            return 1 if (self.coeffs[i] > 0) == (self.basis.float_values[i] > 0) else -1
        return 0

    def _cmp(self, other) -> int:
        return (self - other).sign()

    __lt__ = lambda self, other: self._cmp(other) < 0
    __le__ = lambda self, other: self._cmp(other) <= 0
    __gt__ = lambda self, other: self._cmp(other) > 0
    __ge__ = lambda self, other: self._cmp(other) >= 0

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
    """Sign of a + b*sqrt(q) for a positive integer q and a, b ints or
    elements of one floor of a tower (_Surd), decided from a^2 against
    b^2*q."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    lhs, rhs = a * a, b * b * q
    if lhs == rhs:
        return 0
    return (1 if a > 0 else -1) if lhs > rhs else (1 if b > 0 else -1)


def _divide(num: ExtScalar, den: ExtScalar) -> ExtScalar:
    """num / den for an irrational den, in the basis's ring."""
    ring = num.basis.ring()
    n, d = ring.clear((num, den))
    return ring.quotients((n,), d)[0]


# -- the elimination kernel ------------------------------------------------------


def _eliminate(D: "_Domain", rows: list[list], start: int = 0):
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

    A row with f = 0 would only be scaled by p/prev, so it is left stale and
    keeps den, the pivot it was last brought to.  The skipped factors
    telescope, p_k/p_(k-1) * ... * p_(j+1)/p_j = p_k/den, so its next update
    (p*row - f*pivot_row) / den gives the same row; a pivot row is brought
    up to date first, and each stale row kept is multiplied by last/den at
    the end.

    A row whose pivot column is before `start` is frozen: it clears only the
    rows below it and is never updated after its own step.  Those rows come
    back in echelon form, each carrying its own pivot; only the rows with
    pivots at or after `start` are reduced as above and carry the last
    pivot.  The pivots and the last pivot do not depend on `start`; a caller
    reading only them passes the number of columns.

    Returns the nonzero rows, their pivot columns and the last pivot.
    """
    nonzero, step, zero = D.nonzero, D.step, D.zero
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    den, pivots, prev = [D.one] * n, [], D.one  # den[i]: the pivot rows[i] was brought to
    r = frozen = 0  # rows[:frozen] are frozen
    for c in range(ncols):
        pr = next((i for i in range(r, n) if nonzero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        den[r], den[pr] = den[pr], den[r]
        prow = rows[r]
        if den[r] is not prev:
            prow = rows[r] = step(prow, prow, prev, zero, den[r])
        p = den[r] = prow[c]
        for i in range(frozen if c >= start else r + 1, n):
            f = rows[i][c]
            if i != r and nonzero(f):
                rows[i], den[i] = step(rows[i], prow, p, f, den[i]), p
        prev = p
        pivots.append(c)
        r += 1
        if c < start:
            frozen = r
        if r == n:
            break
    for i in range(frozen, r):
        if den[i] is not prev:
            rows[i] = step(rows[i], rows[i], prev, zero, den[i])
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


@total_ordering
class _Surd:
    """An element a + b*s of a floor K_i = K_(i-1)[s] below the top of a tower,
    a and b in K_(i-1) (ints on the first floor).  The operators take an int
    or an element of the same floor, // an exact integer divisor."""

    __slots__ = ("a", "b", "floor")

    def __init__(self, a, b, floor: tuple[int, bool]):
        self.a, self.b, self.floor = a, b, floor

    def __add__(self, o):
        if isinstance(o, _Surd):
            return _Surd(self.a + o.a, self.b + o.b, self.floor)
        return _Surd(self.a + o, self.b, self.floor)

    def __neg__(self):
        return _Surd(-self.a, -self.b, self.floor)

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        if isinstance(o, _Surd):
            a, b, c, d = self.a, self.b, o.a, o.b
            return _Surd(a * c + b * d * self.floor[0], a * d + b * c, self.floor)
        return _Surd(self.a * o, self.b * o, self.floor)

    def __floordiv__(self, n: int):
        return _Surd(self.a // n, self.b // n, self.floor)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, o):
        if isinstance(o, _Surd):
            return self.a == o.a and self.b == o.b
        return not self.b and self.a == o

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, o):
        return (self - o).sign() < 0

    def sign(self) -> int:
        s2, positive = self.floor
        return _surd_sign(self.a, self.b if positive else -self.b, s2)


def _conj_norm(a, b, s2) -> tuple[tuple, int]:
    """For x = a + b*s with s*s = s2, a and b one floor below: the product of
    the Galois conjugates of x other than x, as a pair (c, d) meaning c + d*s,
    and x times that product, the norm of x, a nonzero integer for nonzero x."""
    n = a * a - b * b * s2
    if not isinstance(n, _Surd):
        return (a, -b), n
    (c, d), norm = _conj_norm(n.a, n.b, n.floor[0])
    p = _Surd(c, d, n.floor)
    return (a * p, -b * p), norm


def _flat(x) -> tuple[int, ...]:
    """The integer coordinates of an int or a _Surd, by monomial."""
    return _flat(x.a) + _flat(x.b) if isinstance(x, _Surd) else (x,)


def _up(xs: Sequence[int], floors: Sequence[tuple[int, bool]]):
    """The element of the top of `floors` (an int below the first floor) with
    integer coordinates xs."""
    if not floors:
        return xs[0]
    h = len(xs) // 2
    return _Surd(_up(xs[:h], floors[:-1]), _up(xs[h:], floors[:-1]), floors[-1])


class _SurdRing:
    """Z[s_1..s_k] for a basis of k <= 3 roots c_i with squares n_i/m_i,
    where s_i = m_i*c_i and s_i*s_i = n_i*m_i.  An element is a pair (a, b)
    meaning a + b*s_k, a and b in K_(k-1) = Z[s_1..s_(k-1)]: ints for k = 1,
    _Surd above; the arithmetic is written once, with Python operators, for
    both.  An element's integer coordinates are its coefficients on the
    monomials, the products of the s_i, listed by bitmask as the basis lists
    its constants."""

    def __init__(self, basis: ConstantBasis):
        n = basis.size
        # one floor K_i = K_(i-1)[s_i] per root: (s_i*s_i, whether s_i is
        # positive); constant t is monomial t over scale[t], the product of
        # the m_i of its roots
        floors, scale = [], [1]
        for _, value, square in basis.roots:
            floors.append((square.numerator * square.denominator, value > 0))
            scale += [m * square.denominator for m in scale]
        below, h = floors[:-1], n // 2
        self.basis, (self.s2, self.positive), self._scale = basis, floors[-1], scale
        self._into = None if scale[-1] == 1 else [Fraction(1, m) for m in scale]
        cz = self._czero = _up((0,) * h, below)
        up = lambda x: _up((x,) + (0,) * (h - 1), below)
        if h == 1:  # pairs of ints are their own integer coordinates
            self._pairs = lambda flat: tuple(zip(flat[::2], flat[1::2]))
            self._flatten, ints = _same, lambda v: tuple((x, 0) for x in v)
        else:
            self._pairs = lambda flat: tuple(
                (_up(flat[i:i + h], below), _up(flat[i + h:i + n], below))
                for i in range(0, len(flat), n))
            self._flatten = lambda v: [_flat(a) + _flat(b) for a, b in v]
            ints = lambda v: tuple((up(x), cz) for x in v)
        one, zero = (up(1), cz), (cz, cz)
        self.domain = _Domain(
            conv=self.clear, one=one, zero=zero,
            unit=lambda n, i: tuple(one if j == i else zero for j in range(n)),
            nonzero=lambda e: e[0] or e[1], step=self.step, dot=self.dot, sign=self.sign,
            comb=lambda x, u, y, v: self._primitive(self._msub(x, u, y, v)),
            canon=self.canon, neg=lambda v: tuple((-a, -b) for a, b in v), div=self.quotients,
            coeff_rows=lambda v: list(zip(*self._flatten(v))), prim=self.prim, ints=ints,
        )

    def clear(self, row: Sequence[ExtScalar]) -> tuple:
        """A row of scalars as elements, times the integer clearing its denominators."""
        if self._into is None:
            values = [x for e in row for x in e.coeffs]
        else:
            values = [x * f for e in row for x, f in zip(e.coeffs, self._into)]
        return self._pairs(_clear_denominators(values)[0])

    def sign(self, x) -> int:
        """Exact sign, each root with the sign of its value."""
        return _surd_sign(x[0], x[1] if self.positive else -x[1], self.s2)

    def dot(self, a, v):
        x0 = x1 = y = self._czero
        for (a0, a1), (b0, b1) in zip(a, v):
            x0 += a0 * b0
            y += a1 * b1
            x1 += a0 * b1 + a1 * b0
        return (x0 + y * self.s2, x1)

    def _msub(self, x, u, y, v) -> list[tuple]:
        """x*u - y*v for ring elements x, y and vectors u, v."""
        (x0, x1), (y0, y1), s2 = x, y, self.s2
        return [
            (x0 * a0 - y0 * b0 + (x1 * a1 - y1 * b1) * s2,
             x0 * a1 + x1 * a0 - y0 * b1 - y1 * b0)
            for (a0, a1), (b0, b1) in zip(u, v)
        ]

    def _times(self, x, v) -> list[tuple]:
        (c0, c1), s2 = x, self.s2
        return [(a * c0 + b * c1 * s2, a * c1 + b * c0) for a, b in v]

    def _primitive(self, w) -> tuple:
        """w divided by the gcd of its integers."""
        g = gcd(*(c for x in self._flatten(w) for c in x))
        return tuple((c0 // g, c1 // g) for c0, c1 in w) if g > 1 else tuple(w)

    def step(self, row, prow, p, f, prev) -> list[tuple]:
        """The Bareiss update (p*row - f*prow) / prev: multiply by the product
        of the other conjugates of prev, then divide by its norm, an integer.
        With one root, p*row - f*prow is formed in the same pass, and an
        integer prev divides it directly."""
        (c0, c1), s2 = prev, self.s2
        if type(c0) is not int:  # a tower
            (c0, c1), norm = _conj_norm(c0, c1, s2)
            return [((x0 * c0 + x1 * c1 * s2) // norm, (x1 * c0 + x0 * c1) // norm)
                    for x0, x1 in self._msub(p, row, f, prow)]
        (p0, p1), (f0, f1) = p, f
        if c1:
            norm, c1s2 = c0 * c0 - c1 * c1 * s2, c1 * s2
            return [((x0 * c0 - x1 * c1s2) // norm, (x1 * c0 - x0 * c1) // norm)
                    for (a0, a1), (b0, b1) in zip(row, prow)
                    for x0 in [p0 * a0 - f0 * b0 + (p1 * a1 - f1 * b1) * s2]
                    for x1 in [p0 * a1 + p1 * a0 - f0 * b1 - f1 * b0]]
        if c0 == 1:
            return [(p0 * a0 - f0 * b0 + (p1 * a1 - f1 * b1) * s2,
                     p0 * a1 + p1 * a0 - f0 * b1 - f1 * b0)
                    for (a0, a1), (b0, b1) in zip(row, prow)]
        return [((p0 * a0 - f0 * b0 + (p1 * a1 - f1 * b1) * s2) // c0,
                 (p0 * a1 + p1 * a0 - f0 * b1 - f1 * b0) // c0)
                for (a0, a1), (b0, b1) in zip(row, prow)]

    def canon(self, v: tuple) -> tuple:
        """v times the positive multiple of the other conjugates of its first
        nonzero entry, which makes that entry rational, then made primitive."""
        e = next(e for e in v if e[0] or e[1])
        if not e[1] and (type(e[0]) is int or not any(_flat(e[0])[1:])):  # e is an integer
            return v
        (c0, c1), _ = _conj_norm(*e, self.s2)
        conj = (c0, c1) if self.sign((c0, c1)) > 0 else (-c0, -c1)
        return self._primitive(self._times(conj, v))

    def prim(self, v: Sequence[tuple]) -> tuple:
        """The nonzero v times the other conjugates of its first nonzero entry
        e, made primitive (comb), where e becomes its norm over a positive
        integer, and negated if that is negative."""
        e = next(e for e in v if e[0] or e[1])
        conj, norm = _conj_norm(*e, self.s2)
        w = self._primitive(self._times(conj, v))
        return w if norm > 0 else tuple((-a, -b) for a, b in w)

    def quotients(self, v: Sequence[tuple], d: tuple) -> tuple[ExtScalar, ...]:
        """The entries of v divided by d, as scalars: directly when d is an
        integer, else times the other conjugates of d, over its norm."""
        if not d[1] and (type(d[0]) is int or not any(_flat(d[0])[1:])):
            d = _flat(d[0])[0]
        else:
            conj, d = _conj_norm(*d, self.s2)
            v = self._times(conj, v)
        basis, scale = self.basis, self._scale
        if len(scale) == 2:  # one root: pairs of ints
            return tuple(ExtScalar(basis, (Fraction(a, d), Fraction(b * scale[1], d)))
                         for a, b in v)
        return tuple(ExtScalar(basis, tuple(Fraction(c * m, d) for c, m in zip(x, scale)))
                     for x in self._flatten(v))


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
    coeff_rows: Callable  # a row's coefficient rows, one per constant, as integers
    prim: Callable  # the representative of a nonzero row up to nonzero scaling
    ints: Callable  # a row of integers in this domain, exactly, canonical if the row is


def _scaled(D: _Domain, basis: ConstantBasis, row: Sequence[ExtScalar]) -> tuple[list, object]:
    """D.conv(row) and the positive number it multiplies the row by, in D."""
    *out, mult = D.conv((*row, basis.one()))
    return out, mult


# Z for rational scalars in any basis; `_domain` adds the basis's `div`.
_Z = _Domain(
    conv=lambda row: tuple(_clear_denominators([e.coeffs[0] for e in row])[0]),
    one=1, zero=0, unit=lambda n, i: tuple(int(j == i) for j in range(n)),
    nonzero=bool, step=_z_step,
    dot=lambda a, v: sum(map(operator.mul, a, v)),
    sign=lambda x: (x > 0) - (x < 0), comb=_z_comb, canon=lambda v: v,
    neg=lambda v: tuple(-x for x in v),
    div=None, coeff_rows=lambda v: [v], prim=_z_prim, ints=tuple,
)


def _domain(basis: ConstantBasis, rows: Sequence[Sequence[ExtScalar]]) -> _Domain:
    """The number domain for vectors like `rows`, the package's one choice:
    Z for all-rational rows, each cleared of its denominators, else the
    basis's ring Z[s_1..s_k] (ConstantBasis.ring).  A row's integer
    coefficient rows, one per constant of the domain (1; the 2^k monomials),
    span the smallest rational subspace containing it.  `canon` and `prim` give a row's representative
    up to positive and to nonzero scaling: primitive, first nonzero entry
    an integer."""
    if all(not any(e.coeffs[1:]) for row in rows for e in row):
        tail = (Fraction(0),) * (basis.size - 1)
        return _Z._replace(
            div=lambda v, d: tuple(ExtScalar(basis, (Fraction(x, d),) + tail) for x in v))
    return basis.ring().domain


def _same(v):
    return v


def _common(D: _Domain, E: _Domain) -> tuple[_Domain, Callable, Callable]:
    """One domain for rows of D and rows of E over the same basis, and the
    maps taking each side's rows into it.  Two domains over one basis differ
    only when one is Z; its rows are then lifted into the other's, so each
    row stays a positive multiple of its scalars and keeps every sign."""
    if D.step is not _z_step:
        return D, _same, (D.ints if E.step is _z_step else _same)
    return (D, _same, _same) if E.step is _z_step else (E, E.ints, _same)


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
