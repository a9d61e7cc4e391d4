import random

import pytest

from momentlab import linalg
from momentlab.lattice import (
    is_rational_subspace,
    null_subgroup_closed,
    quasilattice,
    rational_rank,
)
from momentlab.presymlin import Subspace
from momentlab.scalars import (
    ConstantBasis,
    ExtScalar,
    UnsupportedScalarOperation,
    _domain,
)

from conftest import DOMAIN_BASES, _eliminate_rational, random_fraction, random_scalar, ray_meets_rational_span


def rational_basis_by_elimination(n: Subspace) -> bool:
    """Oracle: over Q(sqrt2) the canonical reduced basis of a rational
    subspace is the rational reduced basis, so the subspace is rational iff
    every canonical entry is rational."""
    return all(e.is_rational() for row in n.rows for e in row)


def random_subspace(rng, basis, dim, irrational_rows=1):
    n_rows = rng.randint(0, dim)
    rows = []
    for i in range(n_rows):
        chance = 0.5 if i < irrational_rows else 0.0
        rows.append([random_scalar(rng, basis, chance) for _ in range(dim)])
    return Subspace.from_vectors(basis, dim, rows)


def test_rational_subspace_examples(sqrt2_basis):
    assert is_rational_subspace(Subspace.from_vectors(sqrt2_basis, 2, [[1, 1]]))
    assert not is_rational_subspace(
        Subspace.from_vectors(sqrt2_basis, 2, [[1, "sqrt2"]])
    )
    assert is_rational_subspace(Subspace.zero(sqrt2_basis, 3))


def test_rational_subspace_matches_elimination_oracle(sqrt2_basis):
    rng = random.Random(314)
    for _ in range(200):
        dim = rng.randint(1, 5)
        n = random_subspace(rng, sqrt2_basis, dim)
        assert is_rational_subspace(n) == rational_basis_by_elimination(n)


def test_rational_subspace_invariant_under_change_of_basis(sqrt2_basis):
    rng = random.Random(159)
    s2 = sqrt2_basis.constant("sqrt2")
    for _ in range(60):
        dim = rng.randint(1, 4)
        n = random_subspace(rng, sqrt2_basis, dim)
        if n.dim == 0:
            continue
        # rescale rows by sqrt2 and add rational multiples of the first row
        rows = [linalg.vec_scale(r, s2) for r in n.rows]
        rows += [
            linalg.vec_add(n.rows[0], linalg.vec_scale(r, random_fraction(rng)))
            for r in n.rows
        ]
        m = Subspace.from_vectors(sqrt2_basis, dim, rows)
        assert m == n
        assert is_rational_subspace(m) == is_rational_subspace(n)


def test_quasilattice_rational_line(sqrt2_basis):
    n = Subspace.from_vectors(sqrt2_basis, 2, [[1, 1]])
    ql = quasilattice(n)
    assert ql.quotient_dim == 1
    assert ql.rank == 1
    g1, g2 = ql.generators
    # generators are opposite up to sign: the functional kills (1, 1)
    assert (g1[0] + g2[0]).is_zero()


def test_quasilattice_irrational_line(sqrt2_basis):
    n = Subspace.from_vectors(sqrt2_basis, 2, [[1, "sqrt2"]])
    ql = quasilattice(n)
    assert ql.quotient_dim == 1
    assert ql.rank == 2


def test_quasilattice_zero_subspace(sqrt2_basis):
    for d in (1, 2, 3, 4):
        ql = quasilattice(Subspace.zero(sqrt2_basis, d))
        assert ql.quotient_dim == d
        assert ql.rank == d


def test_rank_detects_rationality(sqrt2_basis):
    rng = random.Random(2718)
    for _ in range(150):
        dim = rng.randint(1, 5)
        n = random_subspace(rng, sqrt2_basis, dim)
        ql = quasilattice(n)
        assert (ql.rank == ql.quotient_dim) == is_rational_subspace(n)
        assert ql.rank >= ql.quotient_dim


def test_rank_invariant_under_quotient_coordinates(sqrt2_basis):
    # independent choice: permute the ambient coordinates before quotienting
    rng = random.Random(64)
    for _ in range(60):
        dim = rng.randint(2, 5)
        n = random_subspace(rng, sqrt2_basis, dim)
        perm = list(range(dim))
        rng.shuffle(perm)
        permuted = Subspace.from_vectors(
            sqrt2_basis, dim, [[r[p] for p in perm] for r in n.rows]
        )
        assert quasilattice(n).rank == quasilattice(permuted).rank


def test_null_subgroup_closed_on_subspaces(sqrt2_basis):
    assert null_subgroup_closed(Subspace.from_vectors(sqrt2_basis, 2, [[1, 1]]))
    assert not null_subgroup_closed(
        Subspace.from_vectors(sqrt2_basis, 2, [[1, "sqrt2"]])
    )
    assert null_subgroup_closed(Subspace.zero(sqrt2_basis, 2))


def test_ray_meets_rational_span(sqrt2_basis):
    one = sqrt2_basis.one()
    zero = sqrt2_basis.zero()
    s2 = sqrt2_basis.constant("sqrt2")
    rational_gens = ((one, zero), (zero, one))
    # in one coordinate every nonzero class rescales into the span: 1 + sqrt2
    # has the unit inverse sqrt2 - 1
    assert ray_meets_rational_span((one + s2,), ((one,),))
    # in two coordinates the test is substantive
    assert ray_meets_rational_span((one, one.scale(2)), rational_gens)
    assert ray_meets_rational_span((s2, s2.scale(2)), rational_gens)
    assert not ray_meets_rational_span((one, s2), rational_gens)
    assert not ray_meets_rational_span((s2, one.scale(2)), rational_gens)
    # an irrational generator set can absorb a mixed class
    assert ray_meets_rational_span((one, s2), ((one, zero), (zero, s2)))


def ray_meets_by_kernel(vec, generators) -> bool:
    """Reference: the formulation as a kernel, solving for the multiplier
    coefficients s and the combination coefficients t of
    sum_u s_u c_u vec - sum_g t_g g = 0 and asking for a solution with s != 0."""
    basis = vec[0].basis
    size = basis.size
    scaled = []
    for u in range(size):
        try:
            cu = basis.constant(basis.names[u]) if u else basis.one()
            scaled.append([cu * vi for vi in vec])
        except UnsupportedScalarOperation:
            continue
    q = ConstantBasis.rationals()
    rows = [
        tuple(ExtScalar(q, (w[i].coeffs[t],)) for w in scaled)
        + tuple(ExtScalar(q, (-g[i].coeffs[t],)) for g in generators)
        for i in range(len(vec))
        for t in range(size)
    ]
    null = Subspace.kernel_of(q, len(scaled) + len(generators), rows).rows
    return any(not linalg.vec_is_zero(sol[:len(scaled)]) for sol in null)


def test_ray_meets_rational_span_matches_kernel_reference(sqrt2_basis):
    rng = random.Random(2718)
    seen = set()
    for _ in range(300):
        m = rng.randint(1, 4)
        chance = rng.choice((0.0, 0.3, 0.7))
        vec = tuple(random_scalar(rng, sqrt2_basis, chance) for _ in range(m))
        gens = tuple(
            tuple(random_scalar(rng, sqrt2_basis, chance) for _ in range(m))
            for _ in range(rng.randint(0, m))
        )
        got = ray_meets_rational_span(vec, gens)
        assert got == ray_meets_by_kernel(vec, gens), (vec, gens)
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("name", sorted(DOMAIN_BASES))
def test_rational_subspace_matches_scalar_coefficient_rows(name):
    """is_rational_subspace reads the coefficient rows of the rows in their
    number domain; the scalars' own coefficient rows, eliminated over Q,
    give the same verdict, as does rational_rank of the rows with every row
    scaled by a nonzero scalar."""
    basis = DOMAIN_BASES[name]
    rng = random.Random(77 + len(name))
    consts = [basis.constant(c) for c in basis.names[1:]]
    seen = set()
    for _ in range(60):
        dim = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(0, dim)):
            row = [basis.from_rational(random_fraction(rng)) for _ in range(dim)]
            if consts and rng.random() < 0.5:
                j = rng.randrange(dim)
                row[j] = row[j] + rng.choice(consts).scale(random_fraction(rng))
            rows.append(row)
        n = Subspace.from_vectors(basis, dim, rows)
        coefficient_rows = [tuple(e.coeffs[t] for e in b) for b in n.rows for t in range(basis.size)]
        verdict = len(_eliminate_rational(coefficient_rows)[1]) == n.dim
        assert is_rational_subspace(n) == verdict
        scale = basis.one() + (rng.choice(consts) if consts else basis.one())
        scaled = [tuple(e * scale for e in b) for b in n.rows]
        D = _domain(basis, scaled)
        assert (rational_rank(D, map(D.conv, scaled)) == n.dim) == verdict
        seen.add(verdict)
    assert seen == ({True, False} if consts else {True})
