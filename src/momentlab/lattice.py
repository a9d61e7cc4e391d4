"""Rationality of subspaces with respect to the standard integer lattice,
and quasilattice ranks on quotient spaces.

A subspace is rational when it admits an all-rational basis.  The test used
here never multiplies constants: it compares the dimension of the subspace
with the rational dimension of the span of all per-constant coefficient
rows of its basis (the smallest rational subspace containing it).  Those
coefficient rows are reduced as scalars over the rationals, which linalg
eliminates over Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .linalg import Vector
from .presymlin import Subspace
from .scalars import ConstantBasis, ExtScalar, UnsupportedScalarOperation


@dataclass(frozen=True)
class QuasiLattice:
    """Image of the standard lattice in exact coordinates on the quotient by
    a subspace.  rank > quotient_dim detects an irrational subspace."""

    quotient_dim: int
    generators: tuple[Vector, ...]
    rank: int


def is_rational_subspace(n: Subspace) -> bool:
    if n.dim == 0:
        return True
    q = ConstantBasis.rationals()
    rows = [
        tuple(ExtScalar(q, (e.coeffs[t],)) for e in b)
        for b in n.rows
        for t in range(n.scalar_basis.size)
    ]
    return linalg.rank(rows) == n.dim


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
    q = ConstantBasis.rationals()
    coeff_rows = [
        tuple(
            ExtScalar(q, (g[i].coeffs[t],))
            for i in range(m)
            for t in range(n.scalar_basis.size)
        )
        for g in generators
    ]
    rank = linalg.rank(coeff_rows) if m else 0
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

    Solved as a rational linear system in the coefficients of the multiplier
    (over constants whose products with vec's constants are declared; the
    rational multiplier is always available) and the combination coefficients.
    """
    m = len(vec)
    if m == 0:
        return False
    basis = vec[0].basis
    size = basis.size
    scaled: list[tuple[int, list]] = []
    for u in range(size):
        try:
            cu = basis.constant(basis.names[u]) if u else basis.one()
            scaled.append((u, [cu * vi for vi in vec]))
        except UnsupportedScalarOperation:
            continue
    n_s = len(scaled)
    n_t = len(generators)
    q = ConstantBasis.rationals()
    rows = [
        tuple(ExtScalar(q, (w[i].coeffs[t],)) for _, w in scaled)
        + tuple(ExtScalar(q, (-g[i].coeffs[t],)) for g in generators)
        for i in range(m)
        for t in range(size)
    ]
    null = linalg.kernel(rows, q, n_s + n_t)
    return any(not linalg.vec_is_zero(sol[:n_s]) for sol in null)
