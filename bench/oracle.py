"""Brute-force vertex oracle for the `polytopes` workload, independent of the
engine: sympy's exact linear algebra over QQ<sqrt2>.

The moment polytope of a slice is P = {x >= 0 : x in lambda + W}.  A point of
P is a vertex iff no nonzero w in W vanishes on its zero coordinates, so the
vertices are exactly the unique solutions of {x in lambda + W, x_Z = 0}, over
all zero patterns Z, that are feasible.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

SQRT2 = sympy.sqrt(2)
K = QQ.algebraic_field(SQRT2)


def _elem(a: Fraction, b: Fraction):
    return K([QQ(b.numerator, b.denominator), QQ(a.numerator, a.denominator)])


def _pair(e) -> tuple[Fraction, Fraction]:
    """Element of QQ<sqrt2> as exact (a, b) with value a + b*sqrt2."""
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in e.to_list()]
    coeffs = [Fraction(0)] * (2 - len(coeffs)) + coeffs
    return coeffs[1], coeffs[0]


def _sign(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if (b > 0 if a == 0 else a > 0) else -1
    # opposite signs: compare a^2 with 2 b^2
    big = a * a - 2 * b * b
    return (1 if a > 0 else -1) if big > 0 else (1 if b > 0 else -1)


def vertices(raw: dict) -> set[tuple[tuple[Fraction, Fraction], ...]]:
    """All vertices of the slice's moment polytope, as (a, b) coordinates."""
    d = raw["d"]
    lam = [_elem(x, Fraction(0)) for x in raw["lam"]]
    dirs = [[_elem(Fraction(a), Fraction(b)) for a, b in row] for row in raw["dirs"]]
    if dirs:
        # an independent basis of W: the nonzero rows of its rref
        red, pivots = DomainMatrix(dirs, (len(dirs), d), K).rref()
        basis = red.to_list()[:len(pivots)]
    else:
        basis = []
    m = len(basis)
    found = set()
    for Z in itertools.chain.from_iterable(itertools.combinations(range(d), r)
                                           for r in range(d + 1)):
        # solve lambda_j + sum_i t_i basis[i][j] = 0 for j in Z, for t
        if m:
            A = DomainMatrix([[basis[i][j] for i in range(m)] + [K.neg(lam[j])] for j in Z]
                             or [[K.zero] * (m + 1)], (max(len(Z), 1), m + 1), K)
            R, pivots = A.rref()
            if m in pivots or len(pivots) != m:
                continue  # inconsistent, or not unique
            t = [row[m] for row in R.to_list()[:m]]
        else:
            if any(lam[j] != K.zero for j in Z):
                continue
            t = []
        x = [lam[j] + sum((t[i] * basis[i][j] for i in range(m)), K.zero) for j in range(d)]
        point = tuple(_pair(e) for e in x)
        if all(_sign(a, b) >= 0 for a, b in point):
            found.add(point)
    return found
