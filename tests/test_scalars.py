import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from momentlab.cli import _build_basis
from momentlab.scalars import (
    BasisMismatchError,
    ConstantBasis,
    ScalarError,
    _Z,
    _eliminate,
    parse_scalar,
)

from conftest import DOMAIN_BASES, _eliminate_reference, is_rational_direction, random_fraction

fractions = st.fractions(max_denominator=50)


def pair(basis, a, b):
    return basis.scalar([Fraction(a), Fraction(b)])


def test_addition_is_componentwise(sqrt2_basis):
    one = sqrt2_basis.one()
    s2 = sqrt2_basis.constant("sqrt2")
    assert one + s2 == pair(sqrt2_basis, 1, 1)


def test_scale_by_rational(sqrt2_basis):
    s2 = sqrt2_basis.constant("sqrt2")
    assert s2.scale(Fraction(1, 2)) == pair(sqrt2_basis, 0, Fraction(1, 2))


def test_negation(sqrt2_basis):
    x = pair(sqrt2_basis, Fraction(3, 2), 0)
    assert -x == pair(sqrt2_basis, Fraction(-3, 2), 0)


def test_basis_mismatch_raises(sqrt2_basis, rat_basis):
    with pytest.raises(BasisMismatchError):
        sqrt2_basis.one() + rat_basis.one()


def test_declared_square_product(sqrt2_basis):
    s2 = sqrt2_basis.constant("sqrt2")
    assert (s2 * s2).rational_value() == 2
    x = pair(sqrt2_basis, 1, 1)
    # (1 + sqrt2)^2 = 3 + 2 sqrt2
    assert x * x == pair(sqrt2_basis, 3, 2)


def test_division_by_surd(sqrt2_basis):
    s2 = sqrt2_basis.constant("sqrt2")
    assert sqrt2_basis.one() / s2 == pair(sqrt2_basis, 0, Fraction(1, 2))
    x = pair(sqrt2_basis, 1, 1)
    assert (x / s2) * s2 == x


@pytest.mark.parametrize("basis", [ConstantBasis([("sqrt2", 2 ** 0.5, 2), ("sqrt3", 3 ** 0.5, 3)])],
                         ids=["ring"])
def test_the_ring_checks_every_declared_product_and_sign(basis):
    """A basis of two roots is the ring Z[s1, s2], built once, and signs a
    scalar of three constants in it."""
    x = basis.one() + basis.constant("sqrt2") - basis.constant("sqrt3")
    assert x.sign() == 1 and basis.ring().domain is basis.ring().domain


def test_three_roots_make_a_ring_and_a_fourth_is_outside_it():
    """Up to three roots make the ring Z[s1, s2, s3]; a fourth root is
    refused when the basis is built."""
    three = _build_basis({"constants": {f"sqrt{k}": k ** 0.5 for k in (2, 3, 5)}})
    assert (three.constant("sqrt30") - three.constant("sqrt2").scale(3)).sign() == 1
    assert (three.constant("sqrt15") - three.constant("sqrt6").scale(Fraction(3, 2))).sign() == 1
    with pytest.raises(ScalarError, match="at most three square roots can be declared"):
        three.with_root("sqrt7", 7 ** 0.5, 7)


@pytest.mark.parametrize("roots, message", [
    ([("sqrt2", 2 ** 0.5, 2), ("sqrt8", 8 ** 0.5, 8)],
     "sqrt2\\*sqrt8 has the rational square 16, so the square roots are not independent"),
    ([("sqrt2", 2 ** 0.5, 2), ("sqrt3", 3 ** 0.5, 3), ("sqrt6", 6 ** 0.5, 6)],
     "sqrt2\\*sqrt3\\*sqrt6 has the rational square 36"),
    ([("sqrt2", 2 ** 0.5, 2), ("sqrt3", 3 ** 0.5, 3), ("sqrt6", 7 ** 0.5, 7)],
     "constant names must be distinct"),
    ([("a", 2 ** 0.5, 2), ("a", 3 ** 0.5, 3)], "constant names must be distinct"),
], ids=["dependent-pair", "dependent-triple", "root-named-as-a-product", "repeated-root"])
def test_dependent_or_clashing_roots_are_refused_when_built(roots, message):
    """Every subset of the roots, in bitmask order, must multiply to a
    non-square, and the derived names must be distinct; both are checked as
    each root is added, whether the roots come at once or one by one."""
    with pytest.raises(ScalarError, match=message):
        ConstantBasis(roots)
    with pytest.raises(ScalarError, match=message):
        ConstantBasis(roots[:-1]).with_root(*roots[-1])


def test_a_basis_is_derived_from_its_roots():
    """Names, float values and squares follow from the roots by bitmask, a
    constant negative when an odd number of its roots are, and a basis built
    root by root equals one built at once."""
    roots = [("a", -(1.5 ** 0.5), Fraction(3, 2)), ("sqrt2", 2 ** 0.5, 2), ("sqrt5", 5 ** 0.5, 5)]
    basis = ConstantBasis(roots)
    assert basis.names == ("one", "a", "sqrt2", "a_sqrt2", "sqrt5", "a_sqrt5", "sqrt10",
                           "a_sqrt2_sqrt5")
    assert basis.squares == (1, Fraction(3, 2), 2, 3, 5, Fraction(15, 2), 10, 15)
    assert [v < 0 for v in basis.float_values] == [False, True] * 4
    assert all(abs(v * v - float(q)) < 1e-12 for v, q in zip(basis.float_values, basis.squares))
    stepwise = ConstantBasis.rationals()
    for root in roots:
        stepwise = stepwise.with_root(*root)
    assert stepwise == basis and hash(stepwise) == hash(basis)


def test_float_eval_examples(sqrt2_basis):
    assert abs(pair(sqrt2_basis, 1, 1).to_float() - 2.414213562373095) < 1e-12
    assert sqrt2_basis.zero().to_float() == 0.0
    assert pair(sqrt2_basis, Fraction(-3, 2), 0).to_float() == -1.5


def test_sign_rational(sqrt2_basis):
    assert pair(sqrt2_basis, Fraction(-1, 7), 0).sign() == -1
    assert sqrt2_basis.zero().sign() == 0


def test_sign_quadratic_cases(sqrt2_basis):
    # 1 - sqrt2 < 0 < 3 - 2 sqrt2, and 2 - sqrt2*sqrt2 = 0 via products
    assert pair(sqrt2_basis, 1, -1).sign() < 0
    assert pair(sqrt2_basis, 3, -2).sign() > 0
    assert pair(sqrt2_basis, -1, 1).sign() > 0
    s2 = sqrt2_basis.constant("sqrt2")
    assert (s2 * s2 - 2).sign() == 0


def test_sign_single_opaque_constant():
    """A single constant has the sign of its value: c is the negative root of 2."""
    c = ConstantBasis([("c", -(2 ** 0.5), 2)]).constant("c")
    assert c.scale(-3).sign() == 1 and c.scale(3).sign() == -1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
@pytest.mark.parametrize("square", [None, 2])
def test_constant_needs_a_finite_nonzero_value(value, square):
    """nan compares false with everything, so a sign rule would read it as
    either sign; a zero constant depends on 1."""
    with pytest.raises(ScalarError, match="finite nonzero"):
        ConstantBasis([("c", value, square)])


@pytest.mark.parametrize("value, square, message", [
    (2.0, 4, "rational square"), (1.5, Fraction(9, 4), "rational square"),
    (1.0, 1, "rational square"), (1.0, -1, "square must be a positive number"),
    (1.0, 0, "square must be a positive number"),
], ids=["4", "9/4", "1", "-1", "0"])
def test_declared_square_must_be_positive_and_irrational(value, square, message):
    """A declared square q <= 0 has no real root, and one that is the square
    of a rational makes the constant rational, so 1 and it are dependent
    while Z[s] and the rationality tests treat them as independent."""
    with pytest.raises(ScalarError, match=message):
        ConstantBasis([("c", value, square)])
    with pytest.raises(ScalarError, match=message):
        ConstantBasis.with_sqrt("sqrt2", 2).with_root("c", value, square)
    if square > 0:
        with pytest.raises(ScalarError, match=message):
            ConstantBasis.with_sqrt("r", square)


def test_irrational_declared_squares_are_accepted():
    for square in (Fraction(2, 9), Fraction(9, 2), 8):
        assert ConstantBasis.with_sqrt("r", square).squares == (1, square)


def test_parse_and_format_round_trip(sqrt2_basis):
    for text in ["0", "1", "-3/2", "sqrt2", "1 + 1/2*sqrt2", "2 - sqrt2"]:
        x = parse_scalar(text, sqrt2_basis)
        assert parse_scalar(str(x), sqrt2_basis) == x
    assert parse_scalar(3, sqrt2_basis) == sqrt2_basis.from_rational(3)
    assert parse_scalar(0.5, sqrt2_basis) == sqrt2_basis.from_rational(Fraction(1, 2))


def test_parse_rejects_garbage(sqrt2_basis):
    for text in ["", "1 +", "sqrt3", "1**2"]:
        with pytest.raises(Exception):
            parse_scalar(text, sqrt2_basis)


def test_parse_rejects_booleans_and_inexact_floats(sqrt2_basis):
    for value in [True, False, 0.1, float("nan")]:
        with pytest.raises(ScalarError):
            parse_scalar(value, sqrt2_basis)


def test_scalar_rejects_a_wrong_coefficient_count(sqrt2_basis, rat_basis):
    for basis, coeffs in [(sqrt2_basis, [1]), (sqrt2_basis, [1, 2, 3]), (rat_basis, [1, 2]),
                          (rat_basis, [])]:
        with pytest.raises(ScalarError, match="coefficients"):
            basis.scalar(coeffs)
    assert sqrt2_basis.scalar([1, 2]).coeffs == (1, 2)


@given(a=fractions, b=fractions, c=fractions, d=fractions, e=fractions, f=fractions)
@settings(deadline=None, max_examples=100)
def test_add_associative_commutative(a, b, c, d, e, f):
    basis = ConstantBasis.with_sqrt("sqrt2", 2)
    x, y, z = basis.scalar([a, b]), basis.scalar([c, d]), basis.scalar([e, f])
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


@given(a=fractions, b=fractions, c=fractions, d=fractions, q=fractions)
@settings(deadline=None, max_examples=100)
def test_float_eval_is_additive_and_homogeneous(a, b, c, d, q):
    basis = ConstantBasis.with_sqrt("sqrt2", 2)
    x, y = basis.scalar([a, b]), basis.scalar([c, d])
    lhs = (x + y).to_float()
    rhs = x.to_float() + y.to_float()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
    lhs = x.scale(q).to_float()
    rhs = float(q) * x.to_float()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# -- rational directions -------------------------------------------------------


def brute_force_rational_direction(v, basis):
    """Oracle: over Q(sqrt2) every nonzero entry is invertible, so v is a
    rational direction iff dividing by some nonzero entry makes all entries
    rational."""
    nonzero = [x for x in v if not x.is_zero()]
    for pivot in nonzero:
        if all((x / pivot).is_rational() for x in v):
            return True
    return False


def test_rational_direction_examples(sqrt2_basis):
    s2 = sqrt2_basis.constant("sqrt2")
    two, three = sqrt2_basis.from_rational(2), sqrt2_basis.from_rational(3)
    assert is_rational_direction([two, three])
    assert is_rational_direction([s2, s2.scale(2)])
    assert not is_rational_direction([sqrt2_basis.one(), s2])
    with pytest.raises(Exception):
        is_rational_direction([sqrt2_basis.zero()])


def test_rational_direction_matches_brute_force(sqrt2_basis):
    rng = random.Random(20240811)
    for _ in range(300):
        n = rng.randint(1, 4)
        v = []
        for _ in range(n):
            a = random_fraction(rng, 3)
            b = random_fraction(rng, 3) if rng.random() < 0.5 else Fraction(0)
            v.append(sqrt2_basis.scalar([a, b]))
        if all(x.is_zero() for x in v):
            continue
        assert is_rational_direction(v) == brute_force_rational_direction(
            v, sqrt2_basis
        )


def test_rational_direction_scaling_invariance(sqrt2_basis):
    rng = random.Random(7)
    for _ in range(50):
        v = [
            sqrt2_basis.scalar([random_fraction(rng), random_fraction(rng)])
            for _ in range(3)
        ]
        if all(x.is_zero() for x in v):
            continue
        c = Fraction(0)
        while c == 0:
            c = random_fraction(rng)
        scaled = [x.scale(c) for x in v]
        assert is_rational_direction(v) == is_rational_direction(scaled)


def test_with_sqrt_refuses_a_radicand_beyond_the_float_range():
    """The radicand is checked before its float root is taken."""
    with pytest.raises(ScalarError, match="r: square must be a positive number"):
        ConstantBasis.with_sqrt("r", 10**400)


small_coefficients = st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3,
                                                         max_denominator=3))


@st.composite
def elimination_cases(draw):
    """A basis's domain (its ring, even for rational rows), 0-7 rows of 0-10
    columns with zero columns, zero rows and repeated rows, and a start."""
    basis = DOMAIN_BASES[draw(st.sampled_from(sorted(DOMAIN_BASES)))]
    D = basis.ring().domain if basis.size > 1 else _Z
    n, m = draw(st.integers(0, 7)), draw(st.integers(0, 10))
    zero_columns = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("row", "zero", "repeat")))
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(tuple(
                basis.zero() if kind == "zero" or j in zero_columns
                else basis.scalar([draw(small_coefficients) for _ in range(basis.size)])
                for j in range(m)))
    start = draw(st.sampled_from((0, draw(st.integers(0, m)), m)))
    return D, [D.conv(row) for row in rows], start


@given(elimination_cases())
@settings(deadline=None, max_examples=300)
def test_eliminate_matches_the_every_row_reference(case):
    """Stale rows and frozen rows change no row a caller keeps: the pivots
    and the last pivot are the reference's, so are the rows with pivots at
    or after start, entry for entry, and the frozen rows before them are in
    echelon form and lie in the row space."""
    D, rows, start = case
    expected, expected_pivots, expected_last = _eliminate_reference(D, list(rows))
    reduced, pivots, last = _eliminate(D, list(rows), start)
    assert pivots == expected_pivots and last == expected_last
    frozen = sum(p < start for p in pivots)
    for got, want in zip(reduced[frozen:], expected[frozen:]):
        assert list(got) == list(want)
    for row, p in zip(reduced[:frozen], pivots):
        assert D.nonzero(row[p]) and not any(map(D.nonzero, row[:p]))
    together = [list(r) for r in reduced[:frozen] + expected]
    assert len(_eliminate_reference(D, together)[1]) == len(pivots)
