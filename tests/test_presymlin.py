import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from momentlab import linalg
from momentlab.presymlin import (
    PresympForm,
    Subspace,
    natural_quotient,
    sigma_orthogonal,
    symplectization,
)
from momentlab.scalars import ScalarError

from conftest import (
    DOMAIN_BASES,
    form_pairing,
    greedy_extension,
    natural_quotient_radical_route,
    random_fraction,
    random_scalar,
    reference_kernel,
    reference_product,
    reference_rref,
    reference_solve,
    standard_form,
)


def random_skew_form(rng, basis, dim, irrational_chance=0.0):
    rows = [[basis.zero() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            x = random_scalar(rng, basis, irrational_chance)
            rows[i][j] = x
            rows[j][i] = -x
    return PresympForm.from_rows(basis, rows)


def random_subspace(rng, basis, dim, irrational_rows=0):
    n_rows = rng.randint(0, dim)
    rows = []
    for i in range(n_rows):
        chance = 0.5 if i < irrational_rows else 0.0
        rows.append([random_scalar(rng, basis, chance) for _ in range(dim)])
    return Subspace.from_vectors(basis, dim, rows)


def brute_force_orthogonal(form, F):
    """Definitional kernel of v -> (sigma(v, f))_f, assembled entry by entry."""
    basis = form.scalar_basis
    rows = []
    for f in F.rows:
        row = [form_pairing(form, linalg.unit(basis, form.dim, i), f) for i in range(form.dim)]
        rows.append(tuple(row))
    return Subspace.from_vectors(basis, form.dim, reference_kernel(rows, basis, form.dim)[0])


def test_canonical_basis_is_presentation_independent(sqrt2_basis):
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(1, 5)
        S = random_subspace(rng, sqrt2_basis, dim, irrational_rows=1)
        vecs = list(S.rows)
        if not vecs:
            continue
        rng.shuffle(vecs)
        # rational recombinations of later rows with the first preserve the span
        recombined = [vecs[0]] + [
            linalg.vec_add(v, linalg.vec_scale(vecs[0], random_fraction(rng)))
            for v in vecs[1:]
        ]
        assert Subspace.from_vectors(sqrt2_basis, dim, recombined) == S


def annihilator_cases(rng, basis):
    """The zero subspace and the whole space in dimensions 0 and 3, then
    random subspaces of dimensions 1..5."""
    yield from (Subspace.zero(basis, 0), Subspace.full(basis, 0),
                Subspace.zero(basis, 3), Subspace.full(basis, 3))
    for _ in range(40):
        yield random_subspace(rng, basis, rng.randint(1, 5), irrational_rows=2)


def test_annihilator_is_kept_and_paired(rat_basis, sqrt2_basis):
    """S.annihilator() is computed once and equals a fresh kernel of S's
    rows; its own annihilator is S itself, which is what a fresh kernel of
    its rows gives; and keeping it changes neither equality nor hash."""
    rng = random.Random(2024)
    for basis in (rat_basis, sqrt2_basis):
        for S in annihilator_cases(rng, basis):
            n = S.ambient_dim
            copy, before = Subspace.from_vectors(basis, n, S.rows), hash(S)
            ann = S.annihilator()
            assert S.annihilator() is ann
            assert ann.annihilator() is S
            assert ann == Subspace.kernel_of(basis, n, S.rows)
            assert S == Subspace.kernel_of(basis, n, ann.rows)
            assert ann.dim == n - S.dim
            assert S == copy and hash(S) == before == hash(copy)


def test_sigma_orthogonal_standard_pairs(sqrt2_basis):
    form = standard_form(sqrt2_basis, 2)
    F = Subspace.from_vectors(sqrt2_basis, 4, [[1, 0, 0, 0]])
    orth = sigma_orthogonal(form, F)
    expected = Subspace.from_vectors(
        sqrt2_basis, 4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert orth == expected


def test_sigma_orthogonal_zero_form(sqrt2_basis):
    zero = PresympForm.from_rows(
        sqrt2_basis, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    )
    F = Subspace.from_vectors(sqrt2_basis, 3, [[1, 2, 3]])
    assert sigma_orthogonal(zero, F) == Subspace.full(sqrt2_basis, 3)


def rank2_form_on_r3(basis):
    return PresympForm.from_rows(basis, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])


def test_sigma_orthogonal_rank2(sqrt2_basis):
    form = rank2_form_on_r3(sqrt2_basis)
    F = Subspace.from_vectors(sqrt2_basis, 3, [[1, 0, 0]])
    expected = Subspace.from_vectors(sqrt2_basis, 3, [[1, 0, 0], [0, 0, 1]])
    assert sigma_orthogonal(form, F) == expected


def test_dimension_identity_random(sqrt2_basis):
    rng = random.Random(2024)
    for _ in range(150):
        dim = rng.randint(1, 8)
        form = random_skew_form(rng, sqrt2_basis, dim)
        F = random_subspace(rng, sqrt2_basis, dim, irrational_rows=1)
        orth = sigma_orthogonal(form, F)
        ker = form.kernel()
        assert orth.dim == dim - F.dim + F.intersect(ker).dim
        assert orth == brute_force_orthogonal(form, F)


def test_double_orthogonal_is_sum_with_kernel(sqrt2_basis):
    rng = random.Random(99)
    for _ in range(100):
        dim = rng.randint(1, 6)
        form = random_skew_form(rng, sqrt2_basis, dim)
        F = random_subspace(rng, sqrt2_basis, dim, irrational_rows=1)
        assert sigma_orthogonal(form, sigma_orthogonal(form, F)) == F.add(form.kernel())


def test_natural_quotient_whole_plane(sqrt2_basis):
    form = standard_form(sqrt2_basis, 1)
    F = Subspace.full(sqrt2_basis, 2)
    red = natural_quotient(form, F, "sub")
    assert red.quotient_dim == 2
    assert red.induced_form.rank() == 2


def test_natural_quotient_collapses_to_zero(sqrt2_basis):
    form = rank2_form_on_r3(sqrt2_basis)
    F = Subspace.from_vectors(sqrt2_basis, 3, [[1, 0, 0], [0, 0, 1]])
    assert sigma_orthogonal(form, F) == F
    red = natural_quotient(form, F, "sub")
    assert red.quotient_dim == 0


def test_reduction_chain_against_definition(sqrt2_basis):
    rng = random.Random(4242)
    for _ in range(100):
        dim = rng.randint(1, 6)
        form = random_skew_form(rng, sqrt2_basis, dim)
        F = random_subspace(rng, sqrt2_basis, dim, irrational_rows=1)
        orth = sigma_orthogonal(form, F)
        # kernel of the restricted form must be (orth meet F) + ker(sigma)
        degenerate = orth.intersect(sigma_orthogonal(form, orth))
        assert degenerate == orth.intersect(F).add(form.kernel())
        red = natural_quotient(form, F, "orth")
        assert red.quotient_dim == orth.dim - degenerate.dim
        assert red.induced_form.rank() == red.quotient_dim


def test_ambient_reduction_nondegenerate(sqrt2_basis):
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(1, 6)
        form = random_skew_form(rng, sqrt2_basis, dim)
        red = natural_quotient(form, Subspace.full(sqrt2_basis, dim), "ambient")
        assert red.quotient_dim == form.rank()
        assert red.induced_form.rank() == red.quotient_dim


def degenerate_skew_form(rng, basis, dim):
    """sum of u v^T - v u^T over fewer than dim / 2 random pairs (u, v): a
    skew form with a kernel, its entries irrational in any root.  Returns
    the form and the drawer of its scalars."""
    def scalar():
        return basis.scalar([random_fraction(rng, 3)] + [
            random_fraction(rng, 2) if rng.random() < 0.4 else 0 for _ in range(basis.size - 1)])

    rows = [[basis.zero()] * dim for _ in range(dim)]
    for _ in range(rng.randint(0, (dim - 1) // 2)):
        u, v = [scalar() for _ in range(dim)], [scalar() for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                rows[i][j] = rows[i][j] + u[i] * v[j] - v[i] * u[j]
    return PresympForm.from_rows(basis, rows), scalar


@pytest.mark.parametrize("name", ["q", "sqrt2", "three"])
def test_natural_quotient_matches_the_radical_route(name):
    """natural_quotient reads its representatives off the Gram matrix's
    pivot columns; the radical route (conftest) meets the domain with its
    sigma-orthogonal and extends that radical greedily.  On forms with a
    kernel and subspaces that often meet it, every variant chooses the same
    rows, with the same quotient dimension and induced form."""
    basis = DOMAIN_BASES[name]
    rng = random.Random(f"natural-quotient:{name}")
    pivots, seen = linalg._pivots, []

    def spy(D, rows):
        seen.append(pivots(D, rows))
        return seen[-1]

    meets = 0
    for _ in range(60):
        dim = rng.randint(1, 6)
        form, scalar = degenerate_skew_form(rng, basis, dim)
        ker = form.kernel()
        rows = [[scalar() for _ in range(dim)] for _ in range(rng.randint(0, dim - 1))]
        if rng.random() < 0.6:
            rows += rng.sample(ker.rows, rng.randint(1, ker.dim))
        rng.shuffle(rows)
        F = Subspace.from_vectors(basis, dim, rows)
        meets += F.intersect(ker).dim > 0
        for variant in ("sub", "orth", "ambient"):
            chosen, induced = natural_quotient_radical_route(form, F, variant)
            seen.clear()
            with mock.patch.object(linalg, "_pivots", spy):
                red = natural_quotient(form, F, variant)
            assert seen[0] == chosen, (variant, dim)
            assert red.quotient_dim == len(chosen)
            assert red.induced_form == induced
    assert meets >= 20


def test_symplectization_is_symplectic_and_preserves_orbit(sqrt2_basis):
    rng = random.Random(31)
    for _ in range(40):
        dim = rng.randint(1, 5)
        form = random_skew_form(rng, sqrt2_basis, dim)
        F = random_subspace(rng, sqrt2_basis, dim)
        big_form, big_F = symplectization(form, F)
        assert big_form.dim == dim + form.kernel().dim
        assert big_form.rank() == big_form.dim
        assert big_F.dim == F.dim


def completed_basis_symplectization(form, F):
    """symplectization with the ker coordinates read through a completed
    basis: ker's rows extended by standard units to a basis, whose inverse
    gives the coordinates of each unit."""
    basis, n = form.scalar_basis, form.dim
    ker = form.kernel()
    k = ker.dim
    units = [linalg.unit(basis, n, i) for i in range(n)]
    full = list(ker.rows) + greedy_extension(basis, n, ker.rows, units)
    unit_coords = reference_solve(full, units, basis)
    zero = basis.zero()
    rows = [list(r) + [zero] * k for r in form.matrix] + [[zero] * (n + k) for _ in range(k)]
    for a in range(k):
        for i in range(n):
            rows[i][n + a] = unit_coords[i][a]
            rows[n + a][i] = -unit_coords[i][a]
    embedded = Subspace.from_vectors(basis, n + k, [tuple(r) + (zero,) * k for r in F.rows])
    return PresympForm.from_rows(basis, rows), embedded


def test_symplectization_slice_independent_of_ker_complement(sqrt2_basis):
    """The pivot covectors and a completed basis give different enlarged
    forms but the same slice dimension: the rank of the form on the
    orthogonal of F + 0."""
    rng = random.Random(37)
    differ = 0
    for _ in range(60):
        dim = rng.randint(1, 6)
        form = random_skew_form(rng, sqrt2_basis, dim, irrational_chance=0.3)
        F = random_subspace(rng, sqrt2_basis, dim, irrational_rows=1)
        pivot, completed = symplectization(form, F), completed_basis_symplectization(form, F)
        slice_dims = []
        for big_form, big_F in (pivot, completed):
            assert big_form.rank() == big_form.dim
            slice_dims.append(big_form.restrict(sigma_orthogonal(big_form, big_F).rows).rank())
        assert slice_dims[0] == slice_dims[1]
        differ += pivot[0] != completed[0]
    assert differ >= 10


# -- the block route against entry-by-entry scalar arithmetic -----------------------


def assert_matches(S, expected):
    """Canonical rows, pivots, == and hash agree with the reference."""
    rows, pivots = expected
    assert S.rows == tuple(rows) and S.pivots == tuple(pivots)
    born = Subspace.from_vectors(S.scalar_basis, S.ambient_dim, rows)
    assert S == born and born == S and hash(S) == hash(born)


block_entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def block_cases(draw):
    """A basis from every route (Z, Z[s] for sqrt2, sqrt(3/2) and -sqrt2, the
    scalars for three surds), an ambient dimension 1..4, two lists of 0..3
    vectors (the second often combining the first) and a skew matrix, each
    entry rational or with irrational parts."""
    name = draw(st.sampled_from(sorted(DOMAIN_BASES)))
    basis = DOMAIN_BASES[name]
    n = draw(st.integers(1, 4))

    def scalar(irrational):
        coeffs = [draw(block_entry)] + [draw(block_entry) if irrational and draw(st.booleans())
                                        else 0 for _ in range(basis.size - 1)]
        return basis.scalar(coeffs)

    def vectors():
        irrational = draw(st.booleans())
        return [tuple(scalar(irrational) for _ in range(n))
                for _ in range(draw(st.integers(0, 3)))]

    us, vs = vectors(), vectors()
    if us and vs and draw(st.booleans()):
        vs[0] = linalg.vec_add(us[0], linalg.vec_scale(vs[0], draw(block_entry)))
    irrational = draw(st.booleans())
    matrix = [[basis.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = scalar(irrational)
            matrix[j][i] = -matrix[i][j]
    return name, basis, n, us, vs, matrix


@given(block_cases())
@settings(deadline=None, max_examples=30)
def test_intersect_freezes_exactly_the_rows_it_drops(case):
    """The Zassenhaus meet keeps the reduced rows with pivots at or after n,
    so it freezes the rows with pivots before n (start = n) and no other:
    a dropped row is never updated after its own step, and every kept row
    is fully reduced."""
    _, basis, n, us, vs, _ = case
    U, V = Subspace.from_vectors(basis, n, us), Subspace.from_vectors(basis, n, vs)
    eliminate, seen = linalg._eliminate, []

    def spy(D, rows, start=0):
        out = eliminate(D, rows, start)
        seen.append((start, out[1]))
        return out

    with mock.patch.object(linalg, "_eliminate", spy):
        U.intersect(V)
    ((start, pivots),) = seen
    assert [p < start for p in pivots] == [p < n for p in pivots]


@given(block_cases())
@settings(deadline=None, max_examples=30)
def test_block_route_matches_scalar_reference(case):
    """Every Subspace and PresympForm operation, run on rows in the number
    domain, gives the canonical rows, pivots, equality and hash of the same
    computation done entry by entry in ExtScalar arithmetic."""
    _, basis, n, us, vs, matrix = case
    U, V = Subspace.from_vectors(basis, n, us), Subspace.from_vectors(basis, n, vs)
    ref_u, ref_v = reference_rref(us, n), reference_rref(vs, n)
    assert_matches(U, ref_u)
    assert_matches(V, ref_v)
    assert_matches(Subspace.kernel_of(basis, n, us), reference_kernel(us, basis, n))
    assert_matches(U.add(V), reference_rref(ref_u[0] + ref_v[0], n))
    ann_u, ann_v = reference_kernel(ref_u[0], basis, n), reference_kernel(ref_v[0], basis, n)
    assert_matches(U.annihilator(), ann_u)
    # the meet is the kernel of both annihilators, not a Zassenhaus reduction
    assert_matches(U.intersect(V), reference_kernel(ann_u[0] + ann_v[0], basis, n))
    candidates = vs + [linalg.unit(basis, n, i) for i in range(n)] + [linalg.zeros(basis, n)]
    for v in candidates:
        assert U.contains(v) == (len(reference_rref(ref_u[0] + [v], n)[1]) == U.dim)

    form = PresympForm.from_rows(basis, matrix)
    constraints = [reference_product(matrix, f, basis) for f in ref_u[0]]
    assert_matches(sigma_orthogonal(form, U), reference_kernel(constraints, basis, n))
    for vectors, restricted in ((ref_u[0], form.restrict(U)), (us, form.restrict(us))):
        gram = [tuple(reference_product([u], reference_product(matrix, v, basis), basis)[0]
                      for v in vectors) for u in vectors]
        assert restricted.matrix == tuple(gram) and restricted.dim == len(vectors)
        rank = len(reference_rref(gram, len(vectors))[1])
        assert restricted.rank() == rank
        assert form.restricted_rank(U if vectors is ref_u[0] else us) == rank

    big_form, big_F = symplectization(form, U)
    ker_rows, ker_pivots = reference_kernel(matrix, basis, n)
    k = len(ker_rows)
    zero, one = basis.zero(), basis.one()
    big = [list(r) + [zero] * k for r in matrix] + [[zero] * (n + k) for _ in range(k)]
    for a, p in enumerate(ker_pivots):
        big[p][n + a], big[n + a][p] = one, -one
    assert big_form.matrix == tuple(map(tuple, big))
    assert big_form == PresympForm.from_rows(basis, big)
    assert_matches(big_F, ([r + (zero,) * k for r in ref_u[0]], ref_u[1]))


@pytest.mark.parametrize("name", sorted(DOMAIN_BASES))
def test_block_route_on_zero_and_full_subspaces(name):
    """The zero and the whole space, and the operations that produce them,
    against the reference, with a rank-two form."""
    basis = DOMAIN_BASES[name]
    c = basis.scalar([1] + [1] * (basis.size - 1))
    form = PresympForm.from_rows(basis, [[0, c, 0], [-c, 0, 0], [0, 0, 0]])
    units = [linalg.unit(basis, 3, i) for i in range(3)]
    zero, full = Subspace.zero(basis, 3), Subspace.full(basis, 3)
    assert_matches(zero, ([], []))
    assert_matches(full, (units, [0, 1, 2]))
    assert_matches(zero.annihilator(), (units, [0, 1, 2]))
    assert_matches(full.annihilator(), ([], []))
    assert_matches(zero.add(full), (units, [0, 1, 2]))
    assert_matches(zero.intersect(full), ([], []))
    assert_matches(Subspace.kernel_of(basis, 3, []), (units, [0, 1, 2]))
    assert_matches(sigma_orthogonal(form, zero), (units, [0, 1, 2]))
    assert_matches(sigma_orthogonal(form, full), (units[2:], [2]))
    assert_matches(form.kernel(), (units[2:], [2]))
    assert form.restrict(zero).dim == 0 and form.restricted_rank(zero) == 0
    assert form.restrict(full) == form and form.restricted_rank(full) == 2
    assert not zero.contains(units[0]) and zero.contains(linalg.zeros(basis, 3))


@pytest.mark.parametrize("name", sorted(DOMAIN_BASES))
def test_rational_form_on_irrational_vectors_matches_scalar_reference(name):
    """A rational form meets irrational vectors in their domain: its rows
    are carried there exactly, not one by one up to scaling, so their
    common multiplier survives."""
    basis = DOMAIN_BASES[name]
    c = basis.scalar([2] + [1] * (basis.size - 1))
    matrix = [[basis.from_rational(x) for x in row]
              for row in ([0, 2, 1], [-2, 0, 3], [-1, -3, 0])]
    form = PresympForm.from_rows(basis, matrix)
    zero, one = basis.zero(), basis.one()
    for vectors in ([(c, one, zero)], [(c, one, zero), (zero, c, one)]):
        F = Subspace.from_vectors(basis, 3, vectors)
        constraints = [reference_product(matrix, f, basis) for f in F.rows]
        assert_matches(sigma_orthogonal(form, F), reference_kernel(constraints, basis, 3))
        gram = [tuple(reference_product([u], reference_product(matrix, v, basis), basis)[0]
                      for v in F.rows) for u in F.rows]
        assert form.restrict(F).matrix == tuple(gram) == form.restrict(F.rows).matrix
        assert form.restricted_rank(F) == len(reference_rref(gram, len(gram))[1])


@pytest.mark.parametrize("name", [n for n in sorted(DOMAIN_BASES) if n != "q"])
def test_rational_span_of_irrational_vectors_equals_the_rational_one(name):
    """A rational subspace spanned by irrational multiples of rational
    vectors is born in Z[s] (or Z[s1, s2]), the same subspace spanned by
    the rational vectors over Z: equal, with equal hashes and rows, through
    every operation."""
    basis = DOMAIN_BASES[name]
    rng = random.Random(17)
    irrational = basis.scalar([1] + [1] * (basis.size - 1))
    for _ in range(20):
        n = rng.randint(1, 4)
        rational = [tuple(basis.from_rational(random_fraction(rng, 3)) for _ in range(n))
                    for _ in range(rng.randint(1, 3))]
        scaled = [linalg.vec_scale(v, irrational.scale(rng.randint(1, 3))) for v in rational]
        R, S = (Subspace.from_vectors(basis, n, vs) for vs in (rational, scaled))
        assert R == S and S == R and hash(R) == hash(S) and R.rows == S.rows
        assert R.annihilator() == S.annihilator() and S.annihilator().rows == R.annihilator().rows
        assert S.intersect(R) == R and R.add(S) == S and hash(S.add(R)) == hash(R)
        assert Subspace.kernel_of(basis, n, scaled) == Subspace.kernel_of(basis, n, rational)


@pytest.mark.parametrize("name", sorted(DOMAIN_BASES))
def test_from_rows_still_rejects_a_matrix_that_is_not_skew(name):
    basis = DOMAIN_BASES[name]
    c = basis.scalar([2] + [1] * (basis.size - 1))
    for rows in ([[0, 1], [1, 0]], [[1, 0], [0, 0]], [[0, c], [-1, 0]], [[0, c], [c, 0]]):
        with pytest.raises(ScalarError, match="skew"):
            PresympForm.from_rows(basis, rows)
    assert PresympForm.from_rows(basis, [[0, c], [-c, 0]]).rank() == 2
