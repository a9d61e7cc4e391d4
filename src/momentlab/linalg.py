"""Exact vector and matrix helpers over the extended scalar domain.

Row reduction divides by pivots, so matrices with irrational entries are
reducible exactly when the constant basis declares the needed products
(quadratic surds such as sqrt2 do).  Purely rational questions about
coefficient expansions live in the rat_* helpers, which never multiply
constants at all.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import (
    ConstantBasis,
    ExtScalar,
    RationalLike,
    ScalarError,
    _SurdRing,
    _eliminate,
    _rat_rref,
)

Vector = tuple[ExtScalar, ...]
Matrix = list[Vector]


def zeros(basis: ConstantBasis, n: int) -> Vector:
    return tuple(basis.zero() for _ in range(n))


def unit(basis: ConstantBasis, n: int, i: int) -> Vector:
    return tuple(basis.one() if j == i else basis.zero() for j in range(n))


def as_vector(basis: ConstantBasis, entries: Sequence) -> Vector:
    from .scalars import parse_scalar

    out = []
    for e in entries:
        if isinstance(e, ExtScalar):
            out.append(e)
        elif isinstance(e, str):
            out.append(parse_scalar(e, basis))
        else:
            try:
                out.append(basis.from_rational(Fraction(e)))
            except (TypeError, ValueError, OverflowError):
                raise ScalarError(f"cannot read {e!r} as a scalar") from None
    return tuple(out)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u: Vector, s: ExtScalar | RationalLike) -> Vector:
    return tuple(a * s if isinstance(s, ExtScalar) else a.scale(s) for a in u)


def vec_neg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vec_is_zero(u: Vector) -> bool:
    return all(a.is_zero() for a in u)


def dot(u: Vector, v: Vector) -> ExtScalar:
    if len(u) != len(v):
        raise ScalarError("dimension mismatch in dot product")
    acc = u[0].basis.zero() if u else None
    if acc is None:
        raise ScalarError("empty vectors have no dot product")
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def mat_vec(m: Sequence[Vector], v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def format_matrix(rows: Iterable[Vector]) -> str:
    return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in rows)


def rref(rows: Sequence[Vector]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form with pivots normalized to 1.

    Returns the nonzero rows and their pivot columns.  All-rational matrices
    are eliminated over Z and matrices over a quadratic surd over Z[sqrt q],
    both fraction-free; any other basis runs the same loop on the scalars.
    """
    if not rows or not rows[0]:
        return [], []
    basis = rows[0][0].basis
    size = basis.size
    if all(not any(e.coeffs[1:]) for row in rows for e in row):
        reduced, pivots = _rat_rref([[e.coeffs[0] for e in row] for row in rows])
        tail = (Fraction(0),) * (size - 1)
        return [
            tuple(ExtScalar(basis, (x,) + tail) for x in row) for row in reduced
        ], pivots
    q = basis.surd_square()
    if q is not None:
        return _surd_rref(basis, q, rows)
    reduced, pivots, last = _eliminate(
        [list(row) for row in rows],
        lambda e: not e.is_zero(),
        lambda row, prow, p, f, prev: [(p * a - f * b) / prev for a, b in zip(row, prow)],
        basis.one(),
    )
    return [tuple(e / last for e in row) for row in reduced], pivots


def _surd_rref(basis: ConstantBasis, q: Fraction, rows: Sequence[Vector]):
    """rref over Q(c), c*c = q, eliminated on integer pairs in Z[s]
    (scalars._SurdRing)."""
    ring = _SurdRing(basis, q)
    s2 = ring.s2

    def combine(row, prow, p, f, prev):
        (p0, p1), (f0, f1), (c0, c1) = p, f, prev
        # multiply by the conjugate of prev, then divide by its norm
        norm = ring.norm(prev)
        out = []
        for (a0, a1), (b0, b1) in zip(row, prow):
            x0 = p0 * a0 - f0 * b0 + (p1 * a1 - f1 * b1) * s2
            x1 = p0 * a1 + p1 * a0 - f0 * b1 - f1 * b0
            out.append(((x0 * c0 - x1 * c1 * s2) // norm, (x1 * c0 - x0 * c1) // norm))
        return out

    reduced, pivots, last = _eliminate(
        ring.clear(rows), lambda e: e[0] or e[1], combine, (1, 0)
    )
    return [ring.quotients(row, last) for row in reduced], pivots


def rank(rows: Sequence[Vector]) -> int:
    return len(rref(rows)[0])


def kernel(rows: Sequence[Vector], basis: ConstantBasis, ncols: int) -> Matrix:
    """Basis of the right kernel {v : A v = 0}."""
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        v = [basis.zero()] * ncols
        v[f] = basis.one()
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        out.append(tuple(v))
    return out


def solve(columns: Sequence[Vector], target: Vector, basis: ConstantBasis):
    """Coefficients x with sum(x_i * columns_i) = target, or None."""
    if not columns:
        return [] if vec_is_zero(target) else None
    n = len(target)
    rows_t = list(zip(*columns))
    # aug rows: [col_1[i], ..., col_k[i], target[i]]
    aug = [tuple(rows_t[i]) + (target[i],) for i in range(n)]
    reduced, pivots = rref(aug)
    k = len(columns)
    if k in pivots:
        return None
    x = [basis.zero()] * k
    for i, p in enumerate(pivots):
        x[p] = reduced[i][k]
    return x


# -- purely rational helpers on coefficient expansions -------------------------


def rat_rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    return _rat_rref(rows)


def rat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rat_rref(rows)[0])


def rat_kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    reduced, pivots = rat_rref(rows)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        out.append(v)
    return out


def flatten_coeffs(v: Vector) -> list[list[Fraction]]:
    """Per-constant rational coefficient rows of a vector of scalars.

    Row t is the rational vector of coefficients of constant t across the
    entries of v.
    """
    if not v:
        return []
    size = v[0].basis.size
    return [[e.coeffs[t] for e in v] for t in range(size)]
