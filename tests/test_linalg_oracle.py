"""Differential tests of the elimination kernel against sympy.

rref, rank, kernel, solve over several targets, basis extension and the
Zassenhaus meet of subspaces over Q, Q(sqrt2) and Q(sqrt(3/2)) (a declared
square that is not an integer), and conjugate division are compared with
sympy's exact linear algebra, and exact signs with sympy's.  Bases without
declared products must keep raising UnsupportedScalarOperation.
"""

from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from momentlab import linalg
from momentlab.presymlin import Subspace
from momentlab.scalars import ConstantBasis, UnsupportedScalarOperation, _SurdRing

SQUARES = (2, Fraction(3, 2))
small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
entry = st.one_of(st.just(Fraction(0)), small)


def basis_for(square):
    if square is None:
        return ConstantBasis.rationals()
    return ConstantBasis.with_sqrt("c", square)


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
    reduced, pivots = linalg.rref(rows)
    M = sympy_matrix(rows, square)
    expected, expected_pivots = sympy_rref(M)
    assert pivots == expected_pivots
    assert same(sympy_matrix(reduced, square) if reduced else sympy.zeros(0, m),
                expected[: len(expected_pivots), :])
    assert linalg.rank(rows) == M.rank()
    null = linalg.kernel(rows, basis, m)
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


def greedy_extension(basis, m, rows, candidates):
    """The reference: keep each candidate not yet in the span."""
    span = Subspace.from_vectors(basis, m, rows)
    chosen = []
    for v in candidates:
        if not span.contains(v):
            chosen.append(v)
            span = span.add(Subspace.from_vectors(basis, m, [v]))
    return chosen


@given(vector_lists(2))
@settings(deadline=None, max_examples=60)
def test_extend_basis_matches_greedy_choice(data):
    basis, square, m, (rows, vectors) = data
    candidates = vectors + [linalg.unit(basis, m, i) for i in range(m)]
    chosen = linalg.extend_basis(rows, candidates)
    assert chosen == greedy_extension(basis, m, rows, candidates)
    assert sympy_rank(rows + chosen, square) == m


@given(vector_lists(2))
@settings(deadline=None, max_examples=60)
def test_solve_several_targets_matches_sympy(data):
    basis, square, m, (columns, vectors) = data
    # the units lie outside the span whenever the columns do not span
    targets = vectors + [linalg.unit(basis, m, i) for i in range(m)] + [linalg.zeros(basis, m)]
    solutions = linalg.solve(columns, targets, basis)
    assert len(solutions) == len(targets)
    k = len(columns)
    for t, x in zip(targets, solutions):
        if not columns:
            assert x == ([] if linalg.vec_is_zero(t) else None)
            continue
        A = sympy_matrix(columns, square).T
        reduced, pivots = sympy_rref(A.row_join(sympy_matrix([t], square).T))
        if k in pivots:
            assert x is None
            continue
        expected = [0] * k
        for i, p in enumerate(pivots):
            expected[p] = reduced[i, k]
        assert same(sympy.Matrix([to_sympy(e, square) for e in x]), sympy.Matrix(expected))
        assert same(A * sympy.Matrix([to_sympy(e, square) for e in x]), sympy_matrix([t], square).T)


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


def test_undeclared_basis_still_raises():
    basis = ConstantBasis.rationals().with_constant("tau", 6.2831853)
    tau, one = basis.constant("tau"), basis.one()
    zero = basis.zero()
    for rows in ([(tau,)], [(tau, one), (one, zero)], [(one, tau), (tau, one)]):
        with pytest.raises(UnsupportedScalarOperation):
            linalg.rref(rows)
    with pytest.raises(UnsupportedScalarOperation):
        one / tau
    with pytest.raises(UnsupportedScalarOperation):
        (one + tau) / (one - tau)
    # rational matrices need no products and still reduce
    reduced, pivots = linalg.rref([(one, one.scale(2)), (one.scale(2), one)])
    assert pivots == [0, 1] and reduced == [(one, zero), (zero, one)]


def test_division_by_multiple_constants_solves_rational_system():
    basis = (ConstantBasis.with_sqrt("sqrt2", 2).with_constant("sqrt3", 3 ** 0.5, square=3)
             .with_constant("sqrt6", 6 ** 0.5, square=6))
    basis.declare_product("sqrt2", "sqrt3", [0, 0, 0, 1])
    basis.declare_product("sqrt2", "sqrt6", [0, 0, 2, 0])
    basis.declare_product("sqrt3", "sqrt6", [0, 3, 0, 0])
    x = basis.scalar([1, 2, -1, Fraction(1, 2)])
    y = basis.scalar([3, -1, 1, 1])
    assert (x / y) * y == x
    one, zero = basis.one(), basis.zero()
    assert linalg.rref([(x, y), (y, x + 1)]) == ([(one, zero), (zero, one)], [0, 1])
    assert linalg.rref([(x, y), (x.scale(2), y.scale(2))]) == ([(one, y / x)], [0])
    # with an undeclared cross product the surd alone is no longer enough
    partial = ConstantBasis.with_sqrt("sqrt2", 2).with_constant("tau", 6.2831853)
    with pytest.raises(UnsupportedScalarOperation):
        partial.one() / partial.constant("sqrt2")


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
    ring = _SurdRing(basis, Fraction(square))
    ((pair,),) = ring.clear([(x,)])
    assert ring.sign(pair) == expected


@given(st.one_of(st.tuples(st.sampled_from(SQUARES), small, small), near_ties()))
@settings(deadline=None, max_examples=60)
def test_sign_on_a_negative_declared_root_matches_sympy(data):
    # c is declared as the negative root of c*c = q
    square, a, b = data
    basis = ConstantBasis.rationals().with_constant("c", -float(square) ** 0.5, square=square)
    x = basis.scalar([a, b])
    root = sympy.sqrt(rational(square))
    expected = int(sympy.sign(rational(a) - rational(b) * root))
    assert x.sign() == expected
    # the integer rule on Z[s] follows the sign of the declared root
    ring = _SurdRing(basis, Fraction(square))
    ((pair,),) = ring.clear([(x,)])
    assert ring.sign(pair) == expected
