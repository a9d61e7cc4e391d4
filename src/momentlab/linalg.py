"""Exact vectors over the extended scalar domain, and the block routines
every elimination goes through.

The public surface is the scalar vector vocabulary: reading entries
(as_vector, which refuses a scalar of another basis), zeros, units, sums,
scalings, dots and printing.  Matrices live as blocks of rows in one number
domain (scalars._Domain): Z or the basis's ring Z[s_1..s_k], which
scalars._domain picks once, when scalars come in.  Each kept row is a
positive multiple of its scalar row.  The block routines (_rref, _kernel,
_pivots, _mat_vecs) take such rows and return such rows; Subspace and
PresympForm keep theirs between calls, and reductions, kernels and ranks of
scalar vectors go through them.  Every reduction is one scalars._eliminate,
fraction-free in the domain; _pivots freezes every row, with no
back-substitution, and _kernel eliminates the columns reversed, which
leaves the canonical kernel basis to be read off the reduced rows.  A
reduced basis is kept canonical, each row by its representative up to
scaling (D.prim), so its scalar row is the row divided by its pivot entry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import (
    BasisMismatchError,
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
    exactly; a float only when it is a small exact rational.  Booleans and
    scalars of another basis are rejected."""
    out = []
    for e in entries:
        if isinstance(e, ExtScalar):
            if e.basis is not basis and e.basis != basis:
                raise BasisMismatchError("scalar uses a different constant basis")
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


def format_matrix(rows: Iterable[Vector]) -> str:
    return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in rows)


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
    """The canonical basis of {v : A v = 0} for the rows of A in D, as _rref
    gives it, from one elimination of the rows with their columns reversed.
    That pass pivots on the rightmost column basis of A: each reduced row
    carries the last pivot L at its pivot p_i, is zero at the other pivots
    and at every column after p_i.  So for each free column f,
    sum_i row_i[f] e_(p_i) - L e_f is a kernel vector with no division, zero
    at the other free columns and before f: up to scaling, the reduced
    basis's row with pivot f, made canonical by D.prim alone."""
    last_col = ncols - 1
    reduced, pivots, last = _eliminate(D, [row[::-1] for row in rows])
    pivot_rows = {last_col - p: row for p, row in zip(pivots, reduced)}
    (minus_last,), free = D.neg((last,)), [f for f in range(ncols) if f not in pivot_rows]
    return [D.prim([pivot_rows[c][last_col - f] if c in pivot_rows else minus_last if c == f
                    else D.zero for c in range(ncols)]) for f in free], free, D


def _mat_vecs(D: _Domain, m, vectors) -> list[tuple]:
    """The products m v in D: positive multiples of the scalar products when
    m has one multiplier for all entries."""
    return [tuple(D.dot(row, v) for row in m) for v in vectors]
