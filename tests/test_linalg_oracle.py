"""Differential tests of the elimination kernel against sympy.

rref, rank and kernel over Q, Q(sqrt2) and Q(sqrt(3/2)) (a declared square
that is not an integer), the rat_* helpers, and conjugate division are
compared with sympy's exact linear algebra, and exact signs with sympy's.
Bases without declared products must keep raising UnsupportedScalarOperation.
"""

from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from momentlab import linalg
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


@st.composite
def matrices(draw, irrational):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    square = draw(st.sampled_from(SQUARES)) if irrational else None
    basis = basis_for(square)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            a = draw(entry)
            b = draw(entry) if irrational and draw(st.booleans()) else Fraction(0)
            row.append(basis.scalar([a, b] if irrational else [a]))
        rows.append(tuple(row))
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


@given(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=1, max_size=4))
@settings(deadline=None, max_examples=40)
def test_rat_helpers_match_sympy(rows):
    M = sympy.Matrix([[rational(x) for x in r] for r in rows])
    expected, expected_pivots = M.rref()
    reduced, pivots = linalg.rat_rref(rows)
    assert pivots == list(expected_pivots)
    assert [[rational(x) for x in r] for r in reduced] == [
        list(expected.row(i)) for i in range(len(pivots))
    ]
    assert linalg.rat_rank(rows) == M.rank()
    null = linalg.rat_kernel(rows, 4)
    assert len(null) == 4 - M.rank()
    for v in null:
        assert all(x == 0 for x in M * sympy.Matrix(v))


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
