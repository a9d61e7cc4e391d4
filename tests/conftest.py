import random
from fractions import Fraction

import pytest

from momentlab.scalars import ConstantBasis, ScalarError, _eliminate_rational


@pytest.fixture(scope="session")
def rat_basis():
    return ConstantBasis.rationals()


@pytest.fixture(scope="session")
def sqrt2_basis():
    return ConstantBasis.with_sqrt("sqrt2", 2)


@pytest.fixture(scope="session")
def three_surds_basis():
    """{1, sqrt2, sqrt3, sqrt6} with every product declared: no single
    declared square, so exact layers run on the scalars themselves."""
    basis = (ConstantBasis.with_sqrt("sqrt2", 2).with_constant("sqrt3", 3 ** 0.5, square=3)
             .with_constant("sqrt6", 6 ** 0.5, square=6))
    basis.declare_product("sqrt2", "sqrt3", [0, 0, 0, 1])
    basis.declare_product("sqrt2", "sqrt6", [0, 0, 2, 0])
    basis.declare_product("sqrt3", "sqrt6", [0, 3, 0, 0])
    return basis


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
