"""Exact vector and matrix helpers over the extended scalar domain.

Row reduction runs fraction-free in the one number domain that
scalars._domain picks for the rows: Z, Z[sqrt q] or the scalars themselves.
On the scalars it divides by pivots, so matrices with irrational entries are
reducible exactly when the constant basis declares the needed products.
Kernels, solves and basis extensions are each one reduction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import (
    ConstantBasis,
    ExtScalar,
    RationalLike,
    ScalarError,
    _domain,
    _eliminate,
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

    Returns the nonzero rows and their pivot columns.  The rows are
    eliminated fraction-free in the number domain scalars._domain picks for
    them, and divided by the last pivot once, at the end.
    """
    if not rows or not rows[0]:
        return [], []
    D = _domain(rows[0][0].basis, rows)
    reduced, pivots, last = _eliminate(list(map(D.conv, rows)), D.nonzero, D.step, D.one)
    return [D.div(row, last) for row in reduced], pivots


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


def solve(columns: Sequence[Vector], targets: Sequence[Vector], basis: ConstantBasis):
    """For each target t, coefficients x with sum(x_i * columns_i) = t, or
    None when t is outside the span of the columns.

    One reduction of [columns | targets] (as columns): a target is in the
    span iff its column vanishes in every row whose pivot is a target column,
    and then the rows with column pivots give x, free coefficients zero.
    """
    if not columns or not targets:
        return [[] if vec_is_zero(t) else None for t in targets]
    k = len(columns)
    reduced, pivots = rref(list(zip(*columns, *targets)))
    r = sum(p < k for p in pivots)
    out = []
    for j in range(k, k + len(targets)):
        if any(not row[j].is_zero() for row in reduced[r:]):
            out.append(None)
            continue
        x = [basis.zero()] * k
        for row, p in zip(reduced, pivots[:r]):
            x[p] = row[j]
        out.append(x)
    return out


def extend_basis(rows: Sequence[Vector], candidates: Sequence[Vector]) -> list[Vector]:
    """The candidates that a greedy pass adds to the span of `rows`: each one
    not in the span of the rows and the candidates before it.

    Those are the candidates whose columns are pivots, at or after column
    len(rows), when [rows | candidates] (as columns) is reduced.
    """
    k = len(rows)
    _, pivots = rref(list(zip(*rows, *candidates)))
    return [candidates[p - k] for p in pivots if p >= k]
