"""Exact vector and matrix helpers over the extended scalar domain.

Row reduction and matrix-vector products run in the one number domain that
scalars._domain picks for their operands: Z, Z[sqrt q] or the scalars
themselves.  Every reduction is scalars._eliminate in that domain,
fraction-free; on the scalars it divides by pivots, so matrices with
irrational entries are reducible exactly when the constant basis declares
the needed products.  Products clear denominators with one multiplier for
the matrix and one per vector, and divide each image back once.  Solves and
basis extensions are each one reduction, kernels two in one domain; ranks
(and so Subspace.contains) and basis extensions read only the pivot
columns, so their rows are never divided back into scalars.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import (
    ConstantBasis,
    ExtScalar,
    RationalLike,
    ScalarError,
    _Domain,
    _domain,
    _eliminate,
    parse_scalar,
)

Vector = tuple[ExtScalar, ...]
Matrix = list[Vector]


def zeros(basis: ConstantBasis, n: int) -> Vector:
    return tuple(basis.zero() for _ in range(n))


def unit(basis: ConstantBasis, n: int, i: int) -> Vector:
    return tuple(basis.one() if j == i else basis.zero() for j in range(n))


def as_vector(basis: ConstantBasis, entries: Sequence) -> Vector:
    """Scalars, strings like "1 + 1/2*sqrt2", integers and fractions read
    exactly; a float only when it is a small exact rational.  Booleans are
    rejected."""
    out = []
    for e in entries:
        if isinstance(e, ExtScalar):
            out.append(e)
        elif isinstance(e, (str, float)):
            out.append(parse_scalar(e, basis))
        elif isinstance(e, (int, Fraction)) and not isinstance(e, bool):
            out.append(basis.from_rational(e))
        else:
            raise ScalarError(f"cannot read {e!r} as a scalar")
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


def mat_vecs(m: Sequence[Vector], vectors: Sequence[Vector], basis: ConstantBasis) -> Matrix:
    """The products m v for each of the vectors.

    They run in the number domain scalars._domain picks for the matrix and
    the vectors together.  The matrix is converted once with one multiplier
    common to all its entries (one per row would rescale the entries of m v
    against each other), each vector with its own, and each image is divided
    back by the product of the two.
    """
    if not vectors:
        return []
    ncols = len(vectors[0])
    if any(len(x) != ncols for x in (*m, *vectors)):
        raise ScalarError("dimension mismatch in matrix-vector product")
    D = _domain(basis, [*m, *vectors])
    flat, mm = D.scaled([e for row in m for e in row])
    rows = [flat[i * ncols:(i + 1) * ncols] for i in range(len(m))]
    out = []
    for v in vectors:
        w, mv = D.scaled(v)
        # dot of 1-vectors: the product of the two multipliers in the domain
        out.append(D.div([D.dot(row, w) for row in rows], D.dot((mm,), (mv,))))
    return out


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
    reduced, pivots, last = _eliminate(D, list(map(D.conv, rows)))
    return [D.div(row, last) for row in reduced], pivots


def _pivots(rows: Sequence[Vector]) -> list[int]:
    """The pivot columns of rref(rows), from the elimination alone: no row is
    divided back into scalars."""
    if not rows or not rows[0]:
        return []
    D = _domain(rows[0][0].basis, rows)
    return _eliminate(D, list(map(D.conv, rows)))[1]


def rank(rows: Sequence[Vector]) -> int:
    return len(_pivots(rows))


def kernel(rows: Sequence[Vector], basis: ConstantBasis, ncols: int) -> tuple[Matrix, list[int]]:
    """The canonical basis of {v : A v = 0}, as rref would give it, and its
    pivots, in one domain: the reduced rows carry the last pivot L in their
    pivot columns, so sum_i row_i[f] e_(p_i) - L e_f is a kernel vector for
    each free column f, with no division.  Those are reduced in turn and
    divided back once."""
    D = _domain(basis, rows)
    null, pivots, last = _kernel(D, list(map(D.conv, rows)), ncols)
    return [D.div(row, last) for row in null], pivots


def _kernel(D: _Domain, rows: list, ncols: int) -> tuple[list, list[int], object]:
    """kernel on rows of the domain D, which are consumed: the kernel rows
    eliminated in D, their pivots and the last pivot, which each row carries
    in its pivot column."""
    reduced, pivots, last = _eliminate(D, rows)
    pivot_rows, (minus_last,) = dict(zip(pivots, reduced)), D.neg((last,))
    null = [[pivot_rows[c][f] if c in pivot_rows else minus_last if c == f else D.zero
             for c in range(ncols)] for f in range(ncols) if f not in pivot_rows]
    return _eliminate(D, null)


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
    return [candidates[p - k] for p in _pivots(list(zip(*rows, *candidates))) if p >= k]
