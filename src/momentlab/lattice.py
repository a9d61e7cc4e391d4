"""Rationality of subspaces with respect to the standard integer lattice,
and quasilattice ranks on quotient spaces.

A subspace is rational when it admits an all-rational basis.  The test used
here never multiplies constants: it compares the dimension of the subspace
with the rational dimension of the span of all per-constant coefficient
rows of its basis (the smallest rational subspace containing it).  Those
coefficient rows are plain rationals, eliminated over Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vector
from .presymlin import Subspace
from .scalars import UnsupportedScalarOperation, _eliminate_rational


@dataclass(frozen=True)
class QuasiLattice:
    """Image of the standard lattice in exact coordinates on the quotient by
    a subspace.  rank > quotient_dim detects an irrational subspace."""

    quotient_dim: int
    generators: tuple[Vector, ...]
    rank: int


def is_rational_subspace(n: Subspace) -> bool:
    rows = [
        tuple(e.coeffs[t] for e in b)
        for b in n.rows
        for t in range(n.scalar_basis.size)
    ]
    return len(_eliminate_rational(rows)[1]) == n.dim


def quasilattice(n: Subspace) -> QuasiLattice:
    """Quotient coordinates with kernel n, the images of the standard basis,
    and the rank of the additive group they generate (computed as a rational
    dimension; the group is torsion-free)."""
    functionals = n.annihilator()
    m = functionals.dim
    d = n.ambient_dim
    generators = tuple(
        tuple(row[j] for row in functionals.rows) for j in range(d)
    )
    coeff_rows = [
        tuple(g[i].coeffs[t] for i in range(m) for t in range(n.scalar_basis.size))
        for g in generators
    ]
    rank = len(_eliminate_rational(coeff_rows)[1])
    if rank < m:
        raise AssertionError("quasilattice rank below quotient dimension")
    return QuasiLattice(quotient_dim=m, generators=generators, rank=rank)


def null_subgroup_closed(model) -> bool:
    """Whether the immersed subgroup generated by the null ideal is closed,
    i.e. whether the null ideal is a rational subspace."""
    ideal = model if isinstance(model, Subspace) else model.null_ideal()
    return is_rational_subspace(ideal)


def ray_meets_rational_span(vec: Vector, generators: tuple[Vector, ...]) -> bool:
    """Whether some nonzero real multiple of vec is a rational combination of
    the generators.

    The multipliers range over the rational span of the constants whose
    products with vec's constants are declared (the rational multiplier is
    always available).  In the rational columns [generators | scaled copies
    of vec], such a multiple exists iff some scaled copy depends on the
    generators and the copies before it: iff fewer than all the copies are
    pivot columns.
    """
    m = len(vec)
    if m == 0:
        return False
    basis = vec[0].basis
    size = basis.size
    scaled = []
    for name in basis.names:
        try:
            scaled.append([basis.constant(name) * vi for vi in vec])
        except UnsupportedScalarOperation:
            continue
    n_t = len(generators)
    rows = [
        tuple(g[i].coeffs[t] for g in generators) + tuple(w[i].coeffs[t] for w in scaled)
        for i in range(m)
        for t in range(size)
    ]
    return sum(1 for c in _eliminate_rational(rows)[1] if c >= n_t) < len(scaled)
