import random
from fractions import Fraction

import pytest

from momentlab.presymlin import PresympForm, Subspace
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


# -- scalar references for the elimination the package does on domain rows -------


def reference_rref(rows, n):
    """Gauss-Jordan on ExtScalars, dividing by each pivot: the canonical rows
    and pivots of the span."""
    rows, pivots = [list(r) for r in rows], []
    for c in range(n):
        p = next((i for i in range(len(pivots), len(rows)) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        r = len(pivots)
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(r) for r in rows[:len(pivots)]], pivots


def reference_kernel(rows, basis, n):
    """One kernel vector per free column of reference_rref, then reduced."""
    reduced, pivots = reference_rref(rows, n)
    null = []
    for f in (f for f in range(n) if f not in pivots):
        v = [basis.zero()] * n
        v[f] = basis.one()
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        null.append(v)
    return reference_rref(null, n)


def reference_rank(rows, n):
    return len(reference_rref(rows, n)[1])


def reference_product(matrix, v, basis):
    out = []
    for row in matrix:
        acc = basis.zero()
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return tuple(out)


def reference_solve(columns, targets, basis):
    """For each target t, the coefficients x with sum(x_i * columns_i) = t,
    free coefficients zero, or None when t is outside the span of the
    columns: read off reference_rref of [columns | t] (as columns)."""
    k = len(columns)
    out = []
    for t in targets:
        if not columns:
            out.append([] if all(e.is_zero() for e in t) else None)
            continue
        reduced, pivots = reference_rref(list(zip(*columns, t)), k + 1)
        if k in pivots:
            out.append(None)
            continue
        x = [basis.zero()] * k
        for row, p in zip(reduced, pivots):
            x[p] = row[k]
        out.append(x)
    return out


def in_span(span, v):
    """Containment by reduction in scalar arithmetic: clear v's entry at each
    pivot of the canonical rows, then test for zero."""
    for row, p in zip(span.rows, span.pivots):
        if not v[p].is_zero():
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return all(a.is_zero() for a in v)


def greedy_extension(basis, m, rows, candidates):
    """The reference: keep each candidate not yet in the span."""
    span = Subspace.from_vectors(basis, m, rows)
    chosen = []
    for v in candidates:
        if not in_span(span, v):
            chosen.append(v)
            span = span.add(Subspace.from_vectors(basis, m, [v]))
    return chosen


def standard_form(basis, n_complex, masked=()):
    """The standard form on n complex lines, each x paired with its y;
    masked lines carry the zero form."""
    n = 2 * n_complex
    rows = [[0] * n for _ in range(n)]
    for j in range(n_complex):
        if j not in masked:
            rows[2 * j][2 * j + 1], rows[2 * j + 1][2 * j] = -1, 1
    return PresympForm.from_rows(basis, rows)


def weight_pairing(module, j, xi):
    """<alpha_j, xi> for the weight alpha_j of coordinate j."""
    acc = module.scalar_basis.zero()
    for k, a in enumerate(module.weights[j]):
        if a:
            acc = acc + xi[k].scale(a)
    return acc


def dphi_rows_reference(module, x):
    """The moment differential in the adapted frame, 2n columns, one row per
    torus generator k: 2 mu_j alpha_jk in the radial slot 2j of each
    supported unmasked j."""
    basis, n = module.scalar_basis, 2 * module.n_coords
    rows = []
    for k in range(module.torus_rank):
        row = [basis.zero()] * n
        for j in x.support:
            if j not in module.masked:
                row[2 * j] = x.mu[j].scale(2 * module.weights[j][k])
        rows.append(row)
    return rows


def orbit_rows_reference(module, x):
    """The orbit tangent's spanning rows in the adapted frame, 2n columns,
    one per torus generator k: alpha_jk in the angular slot 2j + 1 of each
    supported j."""
    basis, n = module.scalar_basis, 2 * module.n_coords
    rows = []
    for k in range(module.torus_rank):
        row = [basis.zero()] * n
        for j in x.support:
            row[2 * j + 1] = basis.from_rational(module.weights[j][k])
        rows.append(row)
    return rows
