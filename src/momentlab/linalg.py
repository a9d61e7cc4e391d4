"""Exact vector and matrix helpers over the extended scalar domain.

Matrices live as blocks of rows in one number domain (scalars._Domain): Z
or the basis's ring Z[s_1..s_k], which scalars._domain picks once, when
scalars come in.  Each kept row is a positive multiple of its scalar row.
The block routines (_rref, _kernel, _pivots, _mat_vecs) take such rows and
return such rows; Subspace and PresympForm keep theirs between calls.  Every
reduction is scalars._eliminate, fraction-free in the domain; _pivots
freezes every row, with no back-substitution.  A reduced basis is kept
canonical, each row by its representative up to scaling (D.prim), so its
scalar row is the row divided by its pivot entry.  The public functions
below convert scalar input once and divide canonical rows back into scalars
once, at the end.
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
    _scaled,
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
    the vectors together.  The matrix is converted with one multiplier
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
    rows, mm = _matrix(D, basis, m, ncols)
    out = []
    for v in vectors:
        w, mv = _scaled(D, basis, v)
        out.append(D.div(tuple(D.dot(row, w) for row in rows), _times(D, mm, (mv,))[0]))
    return out


def format_matrix(rows: Iterable[Vector]) -> str:
    return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in rows)


def rref(rows: Sequence[Vector]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form with pivots normalized to 1: the nonzero
    rows and their pivot columns, from one reduction in the number domain
    scalars._domain picks for the rows."""
    if not rows or not rows[0]:
        return [], []
    reduced, pivots, D = _rref(*_block(rows[0][0].basis, rows))
    return _scalar_rows(D, reduced, pivots), pivots


def _scalar_pivots(rows: Sequence[Vector]) -> list[int]:
    """The pivot columns of rref(rows), with no row divided back."""
    return _pivots(*_block(rows[0][0].basis, rows)) if rows and rows[0] else []


def rank(rows: Sequence[Vector]) -> int:
    return len(_scalar_pivots(rows))


def kernel(rows: Sequence[Vector], basis: ConstantBasis, ncols: int) -> tuple[Matrix, list[int]]:
    """The canonical basis of {v : A v = 0}, as rref would give it, and its
    pivots (_kernel)."""
    null, pivots, D = _kernel(*_block(basis, rows), ncols)
    return _scalar_rows(D, null, pivots), pivots


# -- blocks: rows in a number domain -----------------------------------------------


def _block(basis: ConstantBasis, rows: Sequence[Vector]) -> tuple[_Domain, list]:
    """The domain scalars._domain picks for the rows, and each row in it."""
    D = _domain(basis, rows)
    return D, list(map(D.conv, rows))


def _matrix(D: _Domain, basis: ConstantBasis, rows: Sequence[Vector], ncols: int):
    """A scalar matrix's rows in D, with one positive multiplier for all
    entries, and that multiplier."""
    flat, mult = _scaled(D, basis, [e for row in rows for e in row])
    return [tuple(flat[i * ncols:(i + 1) * ncols]) for i in range(len(rows))], mult


def _times(D: _Domain, x, v) -> tuple:
    """x * v in D: the Bareiss update with nothing subtracted, divisor one."""
    return tuple(D.step(v, v, x, D.zero, D.one))


def _scalar_rows(D: _Domain, rows, pivots: Sequence[int]) -> Matrix:
    """Canonical rows of D as scalars: each divided by its pivot entry."""
    return [D.div(row, row[p]) for row, p in zip(rows, pivots)]


def _rref(D: _Domain, rows: list) -> tuple[list, list[int], _Domain]:
    """The canonical rows (D.prim) spanning the rows of D, which are
    consumed, their pivots and D."""
    reduced, pivots, _ = _eliminate(D, rows)
    return list(map(D.prim, reduced)), pivots, D


def _pivots(D: _Domain, rows: list) -> list[int]:
    return _eliminate(D, rows, len(rows[0]) if rows else 0)[1]


def _kernel(D: _Domain, rows: list, ncols: int) -> tuple[list, list[int], _Domain]:
    """The canonical basis of {v : A v = 0} for the rows of A in D (consumed),
    as _rref gives it.  The reduced rows carry the last pivot L in their
    pivot columns, so sum_i row_i[f] e_(p_i) - L e_f is a kernel vector for
    each free column f, with no division; those are reduced in turn."""
    reduced, pivots, last = _eliminate(D, rows)
    pivot_rows, (minus_last,) = dict(zip(pivots, reduced)), D.neg((last,))
    null = [[pivot_rows[c][f] if c in pivot_rows else minus_last if c == f else D.zero
             for c in range(ncols)] for f in range(ncols) if f not in pivot_rows]
    return _rref(D, null)


def _mat_vecs(D: _Domain, m, vectors) -> list[tuple]:
    """The products m v in D: positive multiples of the scalar products when
    m has one multiplier for all entries."""
    return [tuple(D.dot(row, v) for row in m) for v in vectors]


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
    return [candidates[p - k] for p in _scalar_pivots(list(zip(*rows, *candidates))) if p >= k]
