"""Vertex enumeration against an independent brute force in sympy.

A vertex of {x : <n_i, x> >= b_i, <m_j, x> = c_j} is a feasible point where
the tight constraints have rank d.  The brute force solves every square
system made of the equalities and d - rank(equalities) of the inequalities
with sympy's exact linear algebra over QQ<sqrt2> (or QQ<sqrt2, sqrt3>), and
keeps the unique solutions that are feasible.  Without lines that set is
exactly the vertex set intersect_halfspaces reports.  A polyhedron with lines
has no vertices; it is checked through its intersection with the orthogonal
complement of the lines, which is pointed.
"""

from fractions import Fraction
from itertools import combinations

import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from momentlab import linalg
from momentlab.polyhedra import intersect_halfspaces
from momentlab.scalars import ConstantBasis

SQRT2, SQRT3 = sympy.sqrt(2), sympy.sqrt(3)
RATIONALS = ConstantBasis.rationals()
SQRT2_BASIS = ConstantBasis.with_sqrt("sqrt2", 2)
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def three_surds():
    """{1, sqrt2, sqrt3, sqrt6} with every product declared."""
    basis = (ConstantBasis.with_sqrt("sqrt2", 2).with_constant("sqrt3", 3 ** 0.5, square=3)
             .with_constant("sqrt6", 6 ** 0.5, square=6))
    basis.declare_product("sqrt2", "sqrt3", [0, 0, 0, 1])
    basis.declare_product("sqrt2", "sqrt6", [0, 0, 2, 0])
    basis.declare_product("sqrt3", "sqrt6", [0, 3, 0, 0])
    return basis


def field(*radicals):
    """The number field of the radicals, with each basis constant in it."""
    K = QQ.algebraic_field(*radicals) if radicals else QQ.algebraic_field(SQRT2)
    return K, [K.one] + [K.from_sympy(r) for r in radicals]


THREE_SURDS = three_surds()
FIELDS = {
    RATIONALS: field(),
    SQRT2_BASIS: field(SQRT2),
    THREE_SURDS: field(SQRT2, SQRT3, SQRT2 * SQRT3),
}


def to_field(x, basis):
    K, constants = FIELDS[basis]
    return sum((K([QQ(c.numerator, c.denominator)]) * g
                for c, g in zip(x.coeffs, constants) if c), K.zero)


def sign(e, K):
    if e == K.zero:
        return 0
    return 1 if K.to_sympy(e).is_positive else -1


def dot(u, v, K):
    return sum((a * b for a, b in zip(u, v)), K.zero)


def matrix(rows, ncols, K):
    return DomainMatrix([list(r) for r in rows], (len(rows), ncols), K)


def rank(rows, ncols, K):
    return len(matrix(rows, ncols, K).rref()[1]) if rows else 0


def brute_force_vertices(dim, halfspaces, equalities, K):
    """Vertices of a pointed polyhedron given by field-element constraints."""
    r = rank([n for n, _ in equalities], dim, K)
    found = set()
    for chosen in combinations(halfspaces, dim - r):
        system = equalities + list(chosen)
        reduced, pivots = matrix([list(n) + [b] for n, b in system], dim + 1, K).rref()
        if list(pivots) != list(range(dim)):
            continue  # singular, or inconsistent equalities
        x = tuple(reduced[i, dim].element for i in range(dim))
        if all(sign(dot(n, x, K) - b, K) >= 0 for n, b in halfspaces) and all(
            dot(n, x, K) == b for n, b in equalities
        ):
            found.add(x)
    return found


def check_against_brute_force(basis, dim, halfspaces, equalities):
    K = FIELDS[basis][0]
    P = intersect_halfspaces(basis, dim, halfspaces, equalities)
    convert = lambda cons: [(tuple(to_field(e, basis) for e in n), to_field(b, basis))
                            for n, b in cons]
    hs, eqs = convert(halfspaces), convert(equalities)
    vertices = {tuple(to_field(e, basis) for e in v) for v in P.vrep.vertices}
    assert len(vertices) == len(P.vrep.vertices)
    normals = [n for n, _ in hs + eqs]
    lineality = matrix(normals, dim, K).nullspace() if normals else DomainMatrix.eye(dim, K)
    lines = [tuple(lineality[i, j].element for j in range(dim))
             for i in range(lineality.shape[0])]
    if not lines:
        assert vertices == brute_force_vertices(dim, hs, eqs, K)
        assert P.is_empty == (not vertices) and P.vrep.lines == ()
    else:
        pointed = brute_force_vertices(dim, hs, eqs + [(l, K.zero) for l in lines], K)
        assert P.is_empty == (not pointed)
        if P.is_empty:
            return
        # the engine's lines span the lineality space
        engine_lines = [tuple(to_field(e, basis) for e in l) for l in P.vrep.lines]
        assert len(engine_lines) == len(lines)
        assert rank(engine_lines + lines, dim, K) == len(lines)
        for v in vertices:
            assert all(sign(dot(n, v, K) - b, K) >= 0 for n, b in hs)
            assert all(dot(n, v, K) == b for n, b in eqs)
    for r in P.vrep.rays:
        r = tuple(to_field(e, basis) for e in r)
        assert all(sign(dot(n, r, K), K) >= 0 for n, _ in hs)
        assert all(dot(n, r, K) == K.zero for n, _ in eqs)


@st.composite
def systems(draw, basis, max_dim=4, max_constraints=8):
    dim = draw(st.integers(1, max_dim))
    n_eq = draw(st.integers(0, min(2, dim)))
    n_hs = draw(st.integers(0, max_constraints - n_eq))

    def scalar():
        coeffs = [draw(small)]
        for _ in range(1, basis.size):
            coeffs.append(draw(small) if draw(st.integers(0, 2)) == 0 else Fraction(0))
        return basis.scalar(coeffs)

    def constraint():
        return tuple(scalar() for _ in range(dim)), scalar()

    return basis, dim, [constraint() for _ in range(n_hs)], [constraint() for _ in range(n_eq)]


def rational_system(basis, dim, halfspaces, equalities=()):
    cons = lambda items: [(linalg.as_vector(basis, n), basis.from_rational(b)) for n, b in items]
    return basis, dim, cons(halfspaces), cons(equalities)


@given(st.sampled_from([RATIONALS, SQRT2_BASIS]).flatmap(systems))
@settings(deadline=None, max_examples=60)
# an unbounded wedge, an empty strip, and a triangle cut by an equality
@example(rational_system(RATIONALS, 2, [([1, 0], 0), ([1, -1], -1)]))
@example(rational_system(SQRT2_BASIS, 2, [([1, 0], 1), ([-1, 0], 0)]))
@example(rational_system(RATIONALS, 3, [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)],
                         [([1, 1, 1], 1)]))
def test_vertices_match_brute_force(data):
    check_against_brute_force(*data)


@given(systems(THREE_SURDS, max_dim=3, max_constraints=5))
@settings(deadline=None, max_examples=15)
def test_vertices_over_three_surds_match_brute_force(data):
    # this basis has no integer arithmetic, so DD runs on the scalars
    check_against_brute_force(*data)


def test_negative_declared_square_keeps_its_vrep():
    # c is the negative root of c*c = 2, which the integer quadratic sign
    # rule does not cover; the scalars still decide every sign met here
    basis = ConstantBasis.rationals().with_constant("c", -(2 ** 0.5), square=2)
    c = basis.constant("c")
    P = intersect_halfspaces(basis, 1, [([c], 1)])
    assert [[str(e) for e in v] for v in P.vrep.vertices] == [["1/2*c"]]
    assert [[str(e) for e in r] for r in P.vrep.rays] == [["-1"]]
    assert P.vrep.lines == ()


def test_negative_declared_square_decides_mixed_signs():
    # (c + 1) x >= 1 with c = -sqrt2 needs the sign of 1 - sqrt2
    basis = ConstantBasis.rationals().with_constant("c", -(2 ** 0.5), square=2)
    c = basis.constant("c")
    P = intersect_halfspaces(basis, 1, [([c + 1], 1)])
    (vertex,), rays = P.vrep.vertices, P.vrep.rays
    value = vertex[0].coeffs[0] - vertex[0].coeffs[1] * SQRT2
    assert sympy.simplify(value - 1 / (1 - SQRT2)) == 0
    assert [[str(e) for e in r] for r in rays] == [["-1"]]


@given(systems(RATIONALS))
@settings(deadline=None, max_examples=40)
def test_rational_data_on_a_surd_basis_gives_the_rational_vrep(data):
    _, dim, halfspaces, equalities = data
    lift = lambda cons: [([SQRT2_BASIS.from_rational(e.coeffs[0]) for e in n],
                          SQRT2_BASIS.from_rational(b.coeffs[0])) for n, b in cons]
    P = intersect_halfspaces(RATIONALS, dim, halfspaces, equalities)
    Q = intersect_halfspaces(SQRT2_BASIS, dim, lift(halfspaces), lift(equalities))
    coeffs = lambda vs: [[e.coeffs for e in v] for v in vs]
    lifted = lambda vs: [[c + (Fraction(0),) for c in v] for v in coeffs(vs)]
    assert coeffs(Q.vrep.vertices) == lifted(P.vrep.vertices)
    assert coeffs(Q.vrep.rays) == lifted(P.vrep.rays)
    assert coeffs(Q.vrep.lines) == lifted(P.vrep.lines)
