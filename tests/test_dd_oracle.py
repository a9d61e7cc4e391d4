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

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from momentlab import linalg
from momentlab.polyhedra import _inside, intersect_halfspaces, poly_equal
from momentlab.scalars import ConstantBasis, parse_scalar

SQRT2, SQRT3 = sympy.sqrt(2), sympy.sqrt(3)
RATIONALS = ConstantBasis.rationals()
SQRT2_BASIS = ConstantBasis.with_sqrt("sqrt2", 2)
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def three_surds():
    """{1, sqrt2, sqrt3, sqrt6}, the products of two roots."""
    return ConstantBasis([("sqrt2", 2 ** 0.5, 2), ("sqrt3", 3 ** 0.5, 3)])


def field(*radicals):
    """The number field of the radicals, with each basis constant in it."""
    K = QQ.algebraic_field(*radicals) if radicals else QQ.algebraic_field(SQRT2)
    return K, [K.one] + [K.from_sympy(r) for r in radicals]


THREE_SURDS = three_surds()
# c is the negative root of c*c = 2: DD runs on Z[s], signs flipped with c's
NEGATIVE_ROOT = ConstantBasis([("c", -(2 ** 0.5), 2)])
FIELDS = {
    RATIONALS: field(),
    SQRT2_BASIS: field(SQRT2),
    THREE_SURDS: field(SQRT2, SQRT3, SQRT2 * SQRT3),
    NEGATIVE_ROOT: field(-SQRT2),
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


def draw_scalar(draw, basis):
    coeffs = [draw(small)]
    for _ in range(1, basis.size):
        coeffs.append(draw(small) if draw(st.integers(0, 2)) == 0 else Fraction(0))
    return basis.scalar(coeffs)


def draw_constraint(draw, basis, dim):
    return tuple(draw_scalar(draw, basis) for _ in range(dim)), draw_scalar(draw, basis)


@st.composite
def systems(draw, basis, max_dim=4, max_constraints=8):
    dim = draw(st.integers(1, max_dim))
    n_eq = draw(st.integers(0, min(2, dim)))
    n_hs = draw(st.integers(0, max_constraints - n_eq))
    return (basis, dim, [draw_constraint(draw, basis, dim) for _ in range(n_hs)],
            [draw_constraint(draw, basis, dim) for _ in range(n_eq)])


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
    # DD runs on Z[sqrt2, sqrt3], a tower of two square roots
    check_against_brute_force(*data)


def test_negative_declared_square_keeps_its_vrep():
    # c is the negative root of c*c = 2: the integer quadratic sign rule
    # takes c's sign from its declared value
    basis = ConstantBasis([("c", -(2 ** 0.5), 2)])
    c = basis.constant("c")
    P = intersect_halfspaces(basis, 1, [([c], 1)])
    assert [[str(e) for e in v] for v in P.vrep.vertices] == [["1/2*c"]]
    assert [[str(e) for e in r] for r in P.vrep.rays] == [["-1"]]
    assert P.vrep.lines == ()


def test_negative_declared_square_decides_mixed_signs():
    # (c + 1) x >= 1 with c = -sqrt2 needs the sign of 1 - sqrt2
    basis = ConstantBasis([("c", -(2 ** 0.5), 2)])
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


# -- containment ------------------------------------------------------------------
#
# P lies in {x : <n, x> >= b, <m, x> = c} exactly when every vertex satisfies
# the constraints, every ray r has <n, r> >= 0 and <m, r> = 0, and every line
# is orthogonal to all normals.  sympy evaluates the constraints as drawn, not
# the engine's canonical H-representation.


def satisfies(system, x, basis):
    """Whether the point x meets every drawn constraint, in sympy."""
    K = FIELDS[basis][0]
    halfspaces, equalities = system
    x = [to_field(e, basis) for e in x]
    value = lambda n, b: dot([to_field(e, basis) for e in n], x, K) - to_field(b, basis)
    return (all(sign(value(n, b), K) >= 0 for n, b in halfspaces)
            and all(value(n, b) == K.zero for n, b in equalities))


def inside_by_sympy(P, system, basis):
    """Whether P lies in the set of the drawn constraints, from P's generators."""
    K = FIELDS[basis][0]
    halfspaces, equalities = system
    normal = lambda n: [to_field(e, basis) for e in n]
    at = lambda n, g: dot(normal(n), [to_field(e, basis) for e in g], K)
    if not all(satisfies(system, v, basis) for v in P.vrep.vertices):
        return False
    for r in P.vrep.rays:
        if any(sign(at(n, r), K) < 0 for n, _ in halfspaces):
            return False
        if any(at(n, r) != K.zero for n, _ in equalities):
            return False
    return all(at(n, l) == K.zero for l in P.vrep.lines for n, _ in halfspaces + equalities)


@st.composite
def pairs(draw, basis, max_dim=3, max_constraints=5):
    """Two systems in one dimension, plus test points.  The second keeps some
    constraints of the first, each times a positive rational, and either adds
    new ones or sums of two kept ones (implied, so the sets are often equal)."""
    _, dim, halfspaces, equalities = draw(systems(basis, max_dim, max_constraints))
    factor = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)

    def scaled(c):
        k = draw(factor)
        return tuple(e.scale(k) for e in c[0]), c[1].scale(k)

    if draw(st.booleans()):
        kept = [scaled(c) for c in halfspaces if draw(st.booleans())]
        extra = [draw_constraint(draw, basis, dim) for _ in range(draw(st.integers(0, 2)))]
    else:
        kept = [scaled(c) for c in halfspaces]
        extra = [(tuple(a + b for a, b in zip(u[0], v[0])), u[1] + v[1])
                 for u, v in zip(kept, kept[1:])]
    other_eqs = [scaled(c) for c in equalities if draw(st.booleans())]
    points = [tuple(draw_scalar(draw, basis) for _ in range(dim))
              for _ in range(draw(st.integers(0, 3)))]
    return basis, dim, (halfspaces, equalities), (kept + extra, other_eqs), points


def near_tie(basis, bound, rational):
    """{x <= bound} against {x <= rational} in one dimension, with the
    rational as a test point."""
    bound = parse_scalar(bound, basis)
    r = basis.from_rational(Fraction(rational))
    return (basis, 1, ([((-basis.one(),), -bound)], []), ([((-basis.one(),), -r)], []),
            [(r,), (bound,)])


def lines_and_rays(basis):
    """{x >= 0} (a line along y) against {x >= 0, y >= -1} (rays only)."""
    one, zero = basis.one(), basis.zero()
    return (basis, 2, ([((one, zero), zero)], []),
            ([((one, zero), zero), ((zero, one), -one)], []),
            [(zero, basis.from_rational(-2))])


def check_containment(basis, dim, system_p, system_q, points):
    as_scalars = lambda cons: [(linalg.as_vector(basis, n), linalg.as_vector(basis, [b])[0])
                               for n, b in cons]
    system_p = tuple(as_scalars(c) for c in system_p)
    system_q = tuple(as_scalars(c) for c in system_q)
    points = [linalg.as_vector(basis, x) for x in points]
    P = intersect_halfspaces(basis, dim, *system_p)
    Q = intersect_halfspaces(basis, dim, *system_q)
    p_in_q = P.is_empty or inside_by_sympy(P, system_q, basis)
    q_in_p = Q.is_empty or inside_by_sympy(Q, system_p, basis)
    assert poly_equal(P, Q) == poly_equal(Q, P) == (p_in_q and q_in_p)
    if not (P.is_empty or Q.is_empty):  # an empty polyhedron keeps no constraints
        assert _inside(P, Q) == p_in_q
        assert _inside(Q, P) == q_in_p
    for x in list(P.vrep.vertices) + list(Q.vrep.vertices) + points:
        assert P.contains(x) == (not P.is_empty and satisfies(system_p, x, basis))
        assert Q.contains(x) == (not Q.is_empty and satisfies(system_q, x, basis))


BASIS_IDS = {RATIONALS: "q", SQRT2_BASIS: "sqrt2", THREE_SURDS: "three_surds",
             NEGATIVE_ROOT: "minus_sqrt2"}


@pytest.mark.parametrize("basis", list(FIELDS), ids=BASIS_IDS.get)
@given(data=st.data())
@settings(deadline=None, max_examples=25)
def test_containment_matches_sympy(basis, data):
    check_containment(*data.draw(pairs(basis)))


@pytest.mark.parametrize("case", [
    # near ties that only exact signs decide: 1393/985 < sqrt2 < 99/70 and
    # 1979/629 < sqrt2 + sqrt3 < 1054/335
    near_tie(SQRT2_BASIS, "sqrt2", "99/70"),
    near_tie(SQRT2_BASIS, "sqrt2", "1393/985"),
    near_tie(NEGATIVE_ROOT, "-c", "99/70"),
    near_tie(NEGATIVE_ROOT, "-c", "1393/985"),
    near_tie(THREE_SURDS, "sqrt2 + sqrt3", "1054/335"),
    near_tie(THREE_SURDS, "sqrt2 + sqrt3", "1979/629"),
    lines_and_rays(RATIONALS),
    lines_and_rays(SQRT2_BASIS),
    # an empty set against a point given by two equalities
    (RATIONALS, 2, ([((1, 0), 1), ((-1, 0), 0)], []), ([], [((1, 1), 0), ((1, -1), 0)]),
     [(0, 0)]),
])
def test_containment_examples(case):
    check_containment(*case)
