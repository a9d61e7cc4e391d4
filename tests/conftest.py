import random
from fractions import Fraction

import pytest

from momentlab.scalars import (
    ConstantBasis,
    ScalarError,
    _Z,
    _clear_denominators,
    _conj_norm,
    _eliminate,
)


@pytest.fixture(scope="session")
def rat_basis():
    return ConstantBasis.rationals()


@pytest.fixture(scope="session")
def sqrt2_basis():
    return ConstantBasis.with_sqrt("sqrt2", 2)


def three_surds():
    """{1, sqrt2, sqrt3, sqrt6}, the products of two roots: exact layers run
    on Z[sqrt2, sqrt3], a tower of two square roots."""
    return ConstantBasis([("sqrt2", 2 ** 0.5, 2), ("sqrt3", 3 ** 0.5, 3)])


@pytest.fixture(scope="session")
def three_surds_basis():
    return three_surds()


# One basis per route through the number domains: Z; Z[s] for sqrt2, for
# sqrt(3/2) (s = 2c, a square with a denominator) and for the negative root
# of 2; Z[s1, s2] for three surds, the products of two roots.
DOMAIN_BASES = {
    "q": ConstantBasis.rationals(),
    "sqrt2": ConstantBasis.with_sqrt("sqrt2", 2),
    "sqrt3/2": ConstantBasis.with_sqrt("c", Fraction(3, 2)),
    "-sqrt2": ConstantBasis([("c", -(2 ** 0.5), 2)]),
    "three": three_surds(),
}


def _reference_step(D, row, prow, p, f, prev):
    """(p*row - f*prow) / prev, written apart from D.step: over Z directly,
    in a ring through its x*u - y*v, times the other conjugates of prev,
    over the norm of prev."""
    if D.step is _Z.step:
        return [(p * a - f * b) // prev for a, b in zip(row, prow)]
    ring = D.step.__self__  # the _SurdRing whose update D.step is
    conj, norm = _conj_norm(*prev, ring.s2)
    return [(a // norm, b // norm) for a, b in ring._times(conj, ring._msub(p, row, f, prow))]


def _eliminate_reference(D, rows):
    """The textbook loop scalars._eliminate reproduces: at each pivot p,
    every other row becomes (p*row - f*pivot_row) / prev, and no row is left
    stale or frozen.  `rows` is consumed."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots, prev, r = [], D.one, 0
    for c in range(ncols):
        pr = next((i for i in range(r, n) if D.nonzero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n):
            if i != r:
                rows[i] = _reference_step(D, rows[i], prow, p, rows[i][c], prev)
        prev = p
        pivots.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivots, prev


def _eliminate_rational(rows):
    """_eliminate over Z on a matrix of Fractions, each row first cleared of
    its denominators: the nonzero integer rows, their pivots and the last
    pivot, which each row carries in its pivot column."""
    return _eliminate(_Z, [_clear_denominators(row)[0] for row in rows])


def random_fraction(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_scalar(rng: random.Random, basis, irrational_chance: float = 0.3):
    coeffs = [random_fraction(rng)] + [Fraction(0)] * (basis.size - 1)
    if basis.size > 1 and rng.random() < irrational_chance:
        coeffs[1] = random_fraction(rng)
    return basis.scalar(coeffs)


def form_pairing(form, u, v):
    """sigma(u, v) = sum of u_i M_ij v_j, entry by entry in scalar arithmetic."""
    acc = form.scalar_basis.zero()
    for i, row in enumerate(form.matrix):
        for j, m in enumerate(row):
            acc = acc + u[i] * m * v[j]
    return acc


def is_rational_direction(v):
    """True iff some nonzero real multiple of v has all entries rational.

    Equivalent to the rational coefficient matrix (entries x constants)
    having rank at most 1: all entries must lie on a single rational line
    through one common factor.
    """
    if all(x.is_zero() for x in v):
        raise ScalarError("zero vector has no direction")
    return len(_eliminate_rational([x.coeffs for x in v])[1]) <= 1


def ray_meets_rational_span(vec, generators) -> bool:
    """Whether some nonzero real multiple of vec is a rational combination of
    the generators: the scalar route of the facet test of
    polyhedra.is_rational_polyhedral, kept as its reference.

    The multipliers range over the rational span of the constants.  In the
    rational columns [generators | scaled copies of vec], such a multiple
    exists iff some scaled copy depends on the generators and the copies
    before it: iff fewer than all the copies are pivot columns.
    """
    m = len(vec)
    if m == 0:
        return False
    basis = vec[0].basis
    size = basis.size
    scaled = [[basis.constant(name) * vi for vi in vec] for name in basis.names]
    n_t = len(generators)
    rows = [
        tuple(g[i].coeffs[t] for g in generators) + tuple(w[i].coeffs[t] for w in scaled)
        for i in range(m)
        for t in range(size)
    ]
    return sum(1 for c in _eliminate_rational(rows)[1] if c >= n_t) < len(scaled)
