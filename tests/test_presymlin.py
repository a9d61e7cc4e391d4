import random

from momentlab import linalg
from momentlab.presymlin import (
    PresympForm,
    Subspace,
    natural_quotient,
    sigma_orthogonal,
    symplectization,
)

from conftest import form_pairing, random_fraction, random_scalar


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
    return Subspace.from_vectors(
        basis, form.dim, linalg.kernel(rows, basis, form.dim)[0]
    )


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
            copy, before = Subspace(basis, n, S.rows, S.pivots), hash(S)
            ann = S.annihilator()
            assert S.annihilator() is ann
            assert ann.annihilator() is S
            assert ann == Subspace.kernel_of(basis, n, S.rows)
            assert S == Subspace.kernel_of(basis, n, ann.rows)
            assert ann.dim == n - S.dim
            assert S == copy and hash(S) == before == hash(copy)


def test_sigma_orthogonal_standard_pairs(sqrt2_basis):
    form = PresympForm.standard(sqrt2_basis, 2)
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
    form = PresympForm.standard(sqrt2_basis, 1)
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
    full = list(ker.rows) + linalg.extend_basis(ker.rows, units)
    unit_coords = linalg.solve(full, units, basis)
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
