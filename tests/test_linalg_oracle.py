"""Differential tests of the elimination kernel against sympy.

Reduced rows, pivots and dimensions of Subspace.from_vectors, kernels
(Subspace.kernel_of), the greedy basis extension reference, containment and
the Zassenhaus meet of subspaces over Q, Q(sqrt2) and Q(sqrt(3/2)) (a
declared square that is not an integer), and conjugate division are compared
with sympy's exact linear algebra, and exact signs and products with
sympy's.  Containment is also compared over three surds.  Kernels,
sigma-orthogonals and Gram restrictions are compared with plain scalar
arithmetic, also over a negative declared root and over three surds.
"""

import functools
import itertools
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from momentlab import linalg
from momentlab.presymlin import DimensionMismatchError, PresympForm, Subspace, sigma_orthogonal
from momentlab.scalars import ConstantBasis

from conftest import greedy_extension, reference_kernel, reference_product

SQUARES = (2, Fraction(3, 2))
small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
entry = st.one_of(st.just(Fraction(0)), small)


def basis_for(square):
    if square is None:
        return ConstantBasis.rationals()
    return ConstantBasis.with_sqrt("c", square)


def three_surds():
    """Q(sqrt2, sqrt3) on the basis {1, sqrt2, sqrt3, sqrt6}: two square roots,
    so elimination runs on the tower Z[sqrt2, sqrt3]."""
    return ConstantBasis([("sqrt2", 2 ** 0.5, 2), ("sqrt3", 3 ** 0.5, 3)])


def rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def to_sympy(x, square):
    value = rational(x.coeffs[0])
    if square is not None:
        value += rational(x.coeffs[1]) * sympy.sqrt(rational(square))
    return value


def sympy_matrix(rows, square):
    return sympy.Matrix([[to_sympy(e, square) for e in row] for row in rows])


def sympy_rref(M):
    reduced, pivots = M.to_DM(extension=True).rref()
    return reduced.to_Matrix(), list(pivots)


def same(A, B):
    return A.shape == B.shape and all(sympy.expand(a - b) == 0 for a, b in zip(A, B))


def sympy_rank(rows, square):
    return len(sympy_rref(sympy_matrix(rows, square))[1]) if rows else 0


def draw_vector(draw, basis, square, m):
    """m entries a, or a + b*c over a declared surd c, with small rationals."""
    return tuple(
        basis.scalar([draw(entry)] if square is None else
                     [draw(entry), draw(entry) if draw(st.booleans()) else Fraction(0)])
        for _ in range(m)
    )


@st.composite
def matrices(draw, irrational):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    square = draw(st.sampled_from(SQUARES)) if irrational else None
    basis = basis_for(square)
    rows = [draw_vector(draw, basis, square, m) for _ in range(n)]
    # a repeated combination makes rank deficiency common
    if n > 1 and draw(st.booleans()):
        rows[-1] = linalg.vec_add(rows[0], linalg.vec_scale(rows[1], draw(small)))
    return basis, square, m, rows


def check_against_sympy(basis, square, m, rows):
    span = Subspace.from_vectors(basis, m, rows)
    reduced, pivots = span.rows, list(span.pivots)
    M = sympy_matrix(rows, square)
    expected, expected_pivots = sympy_rref(M)
    assert pivots == expected_pivots
    assert same(sympy_matrix(reduced, square) if reduced else sympy.zeros(0, m),
                expected[: len(expected_pivots), :])
    assert span.dim == M.rank()
    null = Subspace.kernel_of(basis, m, rows).rows
    assert len(null) == m - len(expected_pivots)
    if null:
        K = sympy_matrix(null, square)
        assert all(sympy.expand(x) == 0 for x in M * K.T)
        assert K.rank() == len(null)


@given(matrices(irrational=False))
@settings(deadline=None, max_examples=40)
def test_rref_rank_kernel_over_q_match_sympy(data):
    check_against_sympy(*data)


@given(matrices(irrational=True))
@settings(deadline=None, max_examples=40)
def test_rref_rank_kernel_over_surd_match_sympy(data):
    check_against_sympy(*data)


@st.composite
def vector_lists(draw, count):
    """`count` lists of 0..3 vectors in one space of dimension 1..5 over Q,
    Q(sqrt2) or Q(sqrt(3/2)).  Vectors often combine earlier ones, so meets
    and dependencies are common."""
    square = draw(st.sampled_from((None,) + SQUARES))
    basis = basis_for(square)
    m = draw(st.integers(1, 5))
    pool, lists = [], []
    for _ in range(count):
        vectors = []
        for _ in range(draw(st.integers(0, 3))):
            if pool and draw(st.booleans()):
                u, v = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
                vectors.append(linalg.vec_add(u, linalg.vec_scale(v, draw(small))))
            else:
                vectors.append(draw_vector(draw, basis, square, m))
        pool += vectors
        lists.append(vectors)
    return basis, square, m, lists


@given(vector_lists(2))
@settings(deadline=None, max_examples=60)
def test_intersect_matches_sympy(data):
    basis, square, m, (us, vs) = data
    U, V = Subspace.from_vectors(basis, m, us), Subspace.from_vectors(basis, m, vs)
    meet = U.intersect(V)
    assert meet.dim == sympy_rank(us, square) + sympy_rank(vs, square) - sympy_rank(us + vs, square)
    for w in meet.rows:
        assert sympy_rank(us + [w], square) == sympy_rank(us, square)
        assert sympy_rank(vs + [w], square) == sympy_rank(vs, square)
    # the meet from sympy's null space of [U^T | -V^T], in canonical form
    expected_rows, expected_pivots = sympy.zeros(0, m), []
    if us and vs:
        A, B = sympy_matrix(us, square), sympy_matrix(vs, square)
        null = A.T.row_join(-B.T).to_DM(extension=True).to_field().nullspace().to_Matrix()
        if null.rows:
            reduced, expected_pivots = sympy_rref(null[:, : len(us)] * A)
            expected_rows = reduced[: len(expected_pivots), :]
    assert list(meet.pivots) == expected_pivots
    assert same(sympy_matrix(meet.rows, square) if meet.rows else sympy.zeros(0, m),
                expected_rows)


def sympy_greedy_extension(rows, candidates, square):
    """Each candidate that raises the sympy rank of the rows and the
    candidates kept before it."""
    chosen = []
    for v in candidates:
        if sympy_rank(rows + chosen + [v], square) > sympy_rank(rows + chosen, square):
            chosen.append(v)
    return chosen


@given(vector_lists(2))
@settings(deadline=None, max_examples=60)
def test_pivot_only_rank_and_extension_match_sympy(data):
    # either list may be empty
    basis, square, m, (rows, candidates) = data
    assert Subspace.from_vectors(basis, m, rows).dim == sympy_rank(rows, square)
    assert (Subspace.from_vectors(basis, m, rows + candidates).dim
            == sympy_rank(rows + candidates, square))
    chosen = greedy_extension(basis, m, rows, candidates)
    assert chosen == sympy_greedy_extension(rows, candidates, square)


CONTAINMENT_BASES = (ConstantBasis.rationals(), basis_for(2), basis_for(Fraction(3, 2)),
                     three_surds())


def sympy_scalar(x):
    """x in sympy: constant t is the root of its square, with the sign of the
    product of its roots, each signed by its value."""
    signs = [1 if value > 0 else -1 for _, value, _ in x.basis.roots]
    value = 0
    for t, (c, square) in enumerate(zip(x.coeffs, x.basis.squares)):
        sign = sympy.prod(s for i, s in enumerate(signs) if t >> i & 1)
        value += rational(c) * sign * sympy.sqrt(rational(square))
    return value


def sympy_span_rank(rows):
    if not rows:
        return 0
    return len(sympy_rref(sympy.Matrix([[sympy_scalar(e) for e in row] for row in rows]))[1])


@st.composite
def containment_cases(draw):
    """Coefficient lists for 0..3 rows and 0..2 free vectors of length 1..4,
    each entry with a coefficient for 1 and for up to three constants, and
    rational weights for combining the rows."""
    m = draw(st.integers(1, 4))

    def vector():
        return [[draw(entry)] + [draw(small) if draw(st.booleans()) else Fraction(0)
                                 for _ in range(3)] for _ in range(m)]

    rows = [vector() for _ in range(draw(st.integers(0, 3)))]
    vectors = [vector() for _ in range(draw(st.integers(0, 2)))]
    return m, rows, vectors, [draw(small) for _ in rows]


@given(containment_cases())
@settings(deadline=None, max_examples=25)
def test_contains_matches_sympy_rank(data):
    """v lies in the span iff appending it keeps the sympy rank, over Q,
    Q(sqrt2), Q(sqrt(3/2)) and three surds; the candidates are the free
    vectors, a rational combination of the rows, each row times the first
    constant, the units and zero."""
    m, coefficient_rows, coefficient_vectors, weights = data
    for basis in CONTAINMENT_BASES:
        def scalars(vector):
            return tuple(basis.scalar(c[:basis.size]) for c in vector)

        rows = [scalars(r) for r in coefficient_rows]
        span = Subspace.from_vectors(basis, m, rows)
        candidates = [scalars(v) for v in coefficient_vectors]
        candidates += [linalg.unit(basis, m, i) for i in range(m)] + [linalg.zeros(basis, m)]
        if rows:
            candidates.append(functools.reduce(
                linalg.vec_add, (linalg.vec_scale(r, t) for r, t in zip(rows, weights))))
        if basis.size > 1:
            candidates += [linalg.vec_scale(r, basis.constant(basis.names[1])) for r in rows]
        rank = sympy_span_rank(rows)
        for v in candidates:
            assert span.contains(v) == (sympy_span_rank(rows + [v]) == rank)


@pytest.mark.parametrize("basis", CONTAINMENT_BASES, ids=["q", "sqrt2", "sqrt3/2", "three"])
def test_contains_on_zero_and_empty_spaces(basis):
    zero, v = linalg.zeros(basis, 2), linalg.unit(basis, 2, 1)
    assert Subspace.zero(basis, 2).contains(zero)
    assert not Subspace.zero(basis, 2).contains(v)
    assert Subspace.from_vectors(basis, 2, [zero]).contains(zero)
    assert Subspace.full(basis, 2).contains(v)
    assert Subspace.zero(basis, 0).contains(())
    assert Subspace.full(basis, 0).contains([])
    for space, wrong in ((Subspace.zero(basis, 2), v + v), (Subspace.full(basis, 2), v[:1]),
                         (Subspace.zero(basis, 0), v)):
        with pytest.raises(DimensionMismatchError):
            space.contains(wrong)


@pytest.mark.parametrize("square", (None,) + SQUARES)
def test_pivot_only_paths_on_empty_inputs(square):
    basis = basis_for(square)
    v, zero = (basis.one(), basis.zero()), linalg.zeros(basis, 2)
    assert Subspace.from_vectors(basis, 2, []).dim == 0
    assert Subspace.from_vectors(basis, 0, [(), ()]).dim == 0
    assert Subspace.from_vectors(basis, 2, [zero]).dim == 0
    assert greedy_extension(basis, 2, [], []) == []
    assert greedy_extension(basis, 2, [v], []) == []
    assert greedy_extension(basis, 2, [], [v]) == [v]
    assert greedy_extension(basis, 2, [], [zero, v, v]) == [v]
    assert greedy_extension(basis, 2, [v], [v, zero]) == []


@given(st.sampled_from(SQUARES), small, small, small, small)
@settings(deadline=None, max_examples=60)
def test_conjugate_division_matches_sympy(square, a, b, e, f):
    basis = basis_for(square)
    num, den = basis.scalar([a, b]), basis.scalar([e, f])
    if den.is_zero():
        with pytest.raises(ZeroDivisionError):
            num / den
        return
    expected = sympy.radsimp(to_sympy(num, square) / to_sympy(den, square))
    assert sympy.expand(to_sympy(num / den, square) - expected) == 0
    assert (num / den) * den == num


def test_division_by_multiple_constants_solves_rational_system():
    basis = three_surds()
    x = basis.scalar([1, 2, -1, Fraction(1, 2)])
    y = basis.scalar([3, -1, 1, 1])
    assert (x / y) * y == x
    one, zero = basis.one(), basis.zero()
    full = Subspace.from_vectors(basis, 2, [(x, y), (y, x + 1)])
    assert (full.rows, full.pivots) == (((one, zero), (zero, one)), (0, 1))
    line = Subspace.from_vectors(basis, 2, [(x, y), (x.scale(2), y.scale(2))])
    assert (line.rows, line.pivots) == (((one, y / x),), (0,))


@st.composite
def near_ties(draw):
    """a + b*c with c*c = q and a*a close to b*b*q, up to huge magnitudes."""
    square = draw(st.sampled_from(SQUARES))
    b = draw(st.integers(1, 10**30)) * Fraction(square).denominator
    a = isqrt(int(b * b * square)) + draw(st.integers(-1, 2))
    signs = draw(st.sampled_from([(1, -1), (-1, 1), (1, 1), (-1, -1)]))
    den = draw(st.integers(1, 7))
    return square, Fraction(signs[0] * a, den), Fraction(signs[1] * b, den)


@given(st.one_of(st.tuples(st.sampled_from(SQUARES), small, small), near_ties()))
@settings(deadline=None, max_examples=120)
def test_sign_matches_sympy(data):
    square, a, b = data
    basis = basis_for(square)
    x = basis.scalar([a, b])
    expected = int(sympy.sign(rational(a) + rational(b) * sympy.sqrt(rational(square))))
    assert x.sign() == expected
    # the integer rule on Z[s], after clearing denominators
    ring = basis.ring()
    (pair,) = ring.clear((x,))
    assert ring.sign(pair) == expected


@given(st.one_of(st.tuples(st.sampled_from(SQUARES), small, small), near_ties()))
@settings(deadline=None, max_examples=60)
def test_sign_on_a_negative_declared_root_matches_sympy(data):
    # c is declared as the negative root of c*c = q
    square, a, b = data
    basis = ConstantBasis([("c", -float(square) ** 0.5, square)])
    x = basis.scalar([a, b])
    root = sympy.sqrt(rational(square))
    expected = int(sympy.sign(rational(a) - rational(b) * root))
    assert x.sign() == expected
    # the integer rule on Z[s] follows the sign of the declared root
    ring = basis.ring()
    (pair,) = ring.clear((x,))
    assert ring.sign(pair) == expected


def test_three_surd_sign_near_a_float_tie_is_exact():
    """sqrt2 + sqrt3 less its nearest double is below the rounding error of
    the declared values, yet its sign is exact in Z[sqrt2, sqrt3]."""
    x = three_surds().scalar([-Fraction(2 ** 0.5 + 3 ** 0.5), 1, 1, 0])
    expected = int(sympy.sign(sympy_scalar(x)))
    assert expected != 0 and x.sign() == expected


def negative_roots():
    """{1, c, sqrt3, c_sqrt3} with c = -sqrt2, so c_sqrt3 = -sqrt6: a tower
    whose first root and product are negative."""
    return ConstantBasis([("c", -(2 ** 0.5), 2), ("sqrt3", 3 ** 0.5, 3)])


def fractional_square():
    """{1, sqrt2, c, sqrt2_c} with c = sqrt(3/2), so sqrt2_c = sqrt3: a tower
    whose second root has a square with a denominator, so s2 = 2c."""
    return ConstantBasis([("sqrt2", 2 ** 0.5, 2), ("c", 1.5 ** 0.5, Fraction(3, 2))])


TOWERS = (three_surds(), negative_roots(), fractional_square())


@given(st.lists(small, min_size=4, max_size=4), st.lists(small, min_size=4, max_size=4))
@settings(deadline=None, max_examples=40)
def test_tower_division_inverts_multiplication(num, den):
    """Division by an irrational scalar runs in the tower (times the other
    conjugates of the divisor, over its norm); multiplying back by the
    bitmask rule, with no ring, gives the dividend."""
    for basis in TOWERS:
        x, y = basis.scalar(num), basis.scalar(den)
        if not y.is_zero():
            assert (x / y) * y == x


@given(st.lists(small, min_size=4, max_size=4), st.lists(small, min_size=4, max_size=4))
@settings(deadline=None, max_examples=40)
def test_products_match_sympy(u, v):
    """x * y by the bitmask rule c_t*c_u = squares[t & u]*c_(t ^ u) against
    sympy's product, over sqrt2 and the towers: negative roots and a square
    with a denominator included."""
    for basis in (ConstantBasis.with_sqrt("sqrt2", 2), *TOWERS):
        x, y = basis.scalar(u[:basis.size]), basis.scalar(v[:basis.size])
        assert sympy.expand(sympy_scalar(x * y) - sympy_scalar(x) * sympy_scalar(y)) == 0


@given(st.lists(st.integers(-10**20, 10**20), min_size=3, max_size=3), st.integers(-1, 2),
       st.integers(1, 7))
@settings(deadline=None, max_examples=40)
def test_three_surd_sign_matches_sympy(irrational, shift, den):
    """The sign in the tower, down from sqrt3 over Z[sqrt2] to Z, against
    sympy's, for a + b*c1 + c*c2 + d*c1*c2 over a common denominator with a
    within two of -(b*c1 + c*c2 + d*c1*c2), for b, c, d up to 10^20, and for
    positive and negative roots and a square with a denominator."""
    for basis in TOWERS:
        tail = sympy_scalar(basis.scalar([0, *irrational]))
        a = -int(sympy.floor(tail)) + shift
        x = basis.scalar([Fraction(v, den) for v in (a, *irrational)])
        expected = int(sympy.sign(sympy_scalar(x)))
        assert x.sign() == expected
        ring = basis.ring()
        (pair,) = ring.clear((x,))
        assert ring.sign(pair) == expected


# -- kernels and forms against plain scalar arithmetic -----------------------------


PRODUCT_BASES = (
    ConstantBasis.rationals(),
    basis_for(2),
    basis_for(Fraction(3, 2)),
    ConstantBasis([("c", -(2 ** 0.5), 2)]),  # c = -sqrt2
    three_surds(),
)


def over_product_bases(coefficient_rows):
    """The rows of coefficient lists as scalar rows in each product basis,
    the matrix (first) and the vectors (second) each rational or not, so that
    the domain must be picked from both."""
    rows, vectors = coefficient_rows
    for basis in PRODUCT_BASES:
        def scalars(part, irrational):
            rational_only = [0] * (basis.size - 1)
            return [tuple(basis.scalar(c[:basis.size] if irrational else c[:1] + rational_only)
                          for c in row) for row in part]

        for irrational_rows, irrational_vectors in itertools.product((False, True), repeat=2):
            yield basis, scalars(rows, irrational_rows), scalars(vectors, irrational_vectors)


@st.composite
def skew_coefficients(draw):
    """Coefficient lists for a skew n x n matrix, n = 1..4, and 0..3 vectors,
    some zero; each entry has a coefficient for 1 and for each of up to
    three constants."""
    def scalar(zero=False):
        return [Fraction(0)] * 4 if zero else [draw(entry)] + [draw(small) for _ in range(3)]

    m = draw(st.integers(1, 4))
    rows = [[scalar(zero=True) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = scalar()
            rows[j][i] = [-x for x in rows[i][j]]
    vectors = []
    for _ in range(draw(st.integers(0, 3))):
        zero = draw(st.booleans()) and draw(st.booleans())  # one vector in four
        vectors.append([scalar(zero) for _ in range(m)])
    return rows, vectors


def two_step_kernel(rows, basis, ncols):
    """The reference route to a canonical kernel basis: reduce the rows,
    read one kernel vector per free column off the reduced rows, and reduce
    those vectors again, as Subspace.from_vectors does."""
    span = Subspace.from_vectors(basis, ncols, rows)
    reduced, pivots = span.rows, span.pivots
    null = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [basis.zero()] * ncols
        v[f] = basis.one()
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        null.append(tuple(v))
    kernel = Subspace.from_vectors(basis, ncols, null)
    return list(kernel.rows), list(kernel.pivots)


@st.composite
def kernel_coefficients(draw):
    """Coefficient lists for 0..4 rows of length 0..5, often rank deficient
    (the last row combines the first two) and often with columns that are
    zero throughout."""
    def scalar():
        return [draw(entry)] + [draw(small) for _ in range(3)]

    ncols = draw(st.integers(0, 5))
    rows = [[scalar() for _ in range(ncols)] for _ in range(draw(st.integers(0, 4)))]
    if len(rows) > 1 and draw(st.booleans()):
        t = draw(small)
        rows[-1] = [[a + t * b for a, b in zip(x, y)] for x, y in zip(rows[0], rows[1])]
    if ncols:
        for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[c] = [Fraction(0)] * 4
    return ncols, rows


@given(kernel_coefficients())
@settings(deadline=None, max_examples=40)
def test_kernel_is_the_canonical_basis(data):
    # Q, Q(sqrt2), Q(sqrt(3/2)), c = -sqrt2 and three surds on Z[sqrt2, sqrt3],
    # each with rational and with irrational entries
    ncols, coefficient_rows = data
    for basis in PRODUCT_BASES:
        for irrational in (False, True):
            rows = [tuple(basis.scalar(c[:basis.size] if irrational
                                       else c[:1] + [0] * (basis.size - 1)) for c in row)
                    for row in coefficient_rows]
            kernel = Subspace.kernel_of(basis, ncols, rows)
            null, pivots = two_step_kernel(rows, basis, ncols)
            assert (list(kernel.rows), list(kernel.pivots)) == (null, pivots)
            assert kernel == Subspace.from_vectors(basis, ncols, null)


@pytest.mark.parametrize("basis", PRODUCT_BASES, ids=["q", "sqrt2", "sqrt3/2", "-sqrt2", "three"])
def test_kernel_of_empty_and_zero_matrices(basis):
    units = [linalg.unit(basis, 3, i) for i in range(3)]

    def kernel(rows, ncols):
        K = Subspace.kernel_of(basis, ncols, rows)
        return list(K.rows), list(K.pivots)

    assert kernel([], 3) == (units, [0, 1, 2])
    assert kernel([linalg.zeros(basis, 3)], 3) == (units, [0, 1, 2])
    assert kernel([], 0) == ([], [])
    assert kernel([(), ()], 0) == ([], [])
    assert kernel(units, 3) == ([], [])
    assert Subspace.kernel_of(basis, 3, []) == Subspace.full(basis, 3)
    assert Subspace.kernel_of(basis, 3, units) == Subspace.zero(basis, 3)


@given(skew_coefficients())
@settings(deadline=None, max_examples=15)
def test_sigma_orthogonal_matches_scalar_arithmetic(data):
    for basis, matrix, vectors in over_product_bases(data):
        form = PresympForm.from_rows(basis, matrix)
        F = Subspace.from_vectors(basis, form.dim, vectors)
        constraints = [reference_product(form.matrix, f, basis) for f in F.rows]
        null, _ = reference_kernel(constraints, basis, form.dim)
        assert sigma_orthogonal(form, F) == Subspace.from_vectors(basis, form.dim, null)


@given(skew_coefficients())
@settings(deadline=None, max_examples=15)
def test_restrict_matches_scalar_arithmetic(data):
    for basis, matrix, vectors in over_product_bases(data):
        form = PresympForm.from_rows(basis, matrix)
        gram = [[reference_product([u], reference_product(form.matrix, v, basis), basis)[0]
                 for v in vectors] for u in vectors]
        assert form.restrict(vectors) == PresympForm.from_rows(basis, gram)
