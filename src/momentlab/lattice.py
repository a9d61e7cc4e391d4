"""Rationality of subspaces with respect to the standard integer lattice,
and quasilattice ranks on quotient spaces.

A subspace is rational when it admits an all-rational basis.  The test used
here never multiplies constants: it compares the dimension of the subspace
with the rational dimension of the span of all per-constant coefficient
rows of its basis (the smallest rational subspace containing it).  Those
coefficient rows are read off rows of any number domain (scalars._Domain.
coeff_rows) as integers and eliminated over Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vector
from .presymlin import Subspace
from .scalars import _Z, _Domain, _eliminate


@dataclass(frozen=True)
class QuasiLattice:
    """Image of the standard lattice in exact coordinates on the quotient by
    a subspace.  rank > quotient_dim detects an irrational subspace."""

    quotient_dim: int
    generators: tuple[Vector, ...]
    rank: int


def _coefficient_rows(D: _Domain, rows) -> list:
    """The nonzero integer coefficient rows of rows of the domain D."""
    return [c for r in rows for c in D.coeff_rows(r) if any(c)]


def rational_rank(D: _Domain, rows) -> int:
    """The dimension of the smallest rational subspace containing the rows,
    vectors of the number domain D: the rank of their coefficient rows."""
    coefficient_rows = _coefficient_rows(D, rows)
    ncols = len(coefficient_rows[0]) if coefficient_rows else 0
    return len(_eliminate(_Z, coefficient_rows, ncols)[1])


def rational_fan(D: _Domain, normals: list, facet_normals: list) -> bool:
    """Whether the span N of the independent `normals` is rational and every
    facet normal is a real multiple of a rational vector modulo N, for
    vectors of the number domain D; a polyhedron's normal fan is rational
    exactly when this holds for its equality and facet normals.

    N is rational iff the coefficient rows of its normals have rank
    len(normals); the quasilattice of the quotient by N then has rank equal
    to its dimension.  Modulo a rational N, a facet normal f = sum_t c_t f_t
    (c_t the constants, f_t its rational coefficient rows) is a real
    multiple of a rational vector iff the f_t span at most a line: a
    rational functional vanishing on the multiple vanishes on every f_t,
    the constants being independent over the rationals.  So f passes iff
    its coefficient rows add at most one to the rank of N's."""
    cut = _eliminate(_Z, _coefficient_rows(D, normals))[0]
    if len(cut) != len(normals):
        return False
    for f in facet_normals:
        rows = _coefficient_rows(D, [f])
        if len(rows) > 1 and len(_eliminate(_Z, cut + rows)[0]) > len(cut) + 1:
            return False
    return True


def is_rational_subspace(n: Subspace) -> bool:
    """Read off the subspace's canonical rows in their number domain."""
    return rational_rank(n._D, n._rows) == n.dim


def quasilattice(n: Subspace) -> QuasiLattice:
    """Quotient coordinates with kernel n, the images of the standard basis,
    and the rank of the additive group they generate (computed as a rational
    dimension; the group is torsion-free).  The generators are the columns
    of the functionals' rows, so the rank is rational_rank of those rows:
    their coefficient rows are, up to row scalings, the generators'
    coefficient matrix transposed."""
    functionals = n.annihilator()
    m = functionals.dim
    generators = tuple(
        tuple(row[j] for row in functionals.rows) for j in range(n.ambient_dim)
    )
    rank = rational_rank(functionals._D, functionals._rows)
    if rank < m:
        raise AssertionError("quasilattice rank below quotient dimension")
    return QuasiLattice(quotient_dim=m, generators=generators, rank=rank)


def null_subgroup_closed(model) -> bool:
    """Whether the immersed subgroup generated by the null ideal is closed,
    i.e. whether the null ideal is a rational subspace."""
    ideal = model if isinstance(model, Subspace) else model.null_ideal()
    return is_rational_subspace(ideal)
