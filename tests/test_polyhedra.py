import random
from collections import Counter
from fractions import Fraction

import pytest

from momentlab import lattice, linalg, polyhedra
from momentlab.polyhedra import (
    DeskScaleError,
    EmptyPolyhedronError,
    PolyhedronError,
    affine_span,
    enumerate_vertices,
    homogenize,
    intersect_halfspaces,
    is_rational_polyhedral,
    poly_equal,
    slice_at_level,
)
from momentlab.presymlin import Subspace
from momentlab.scalars import (
    BasisMismatchError,
    ConstantBasis,
    ScalarError,
    _domain,
    _eliminate,
)

from conftest import DOMAIN_BASES, _eliminate_rational, is_rational_direction, random_fraction, ray_meets_rational_span


# -- oracle constructors: a polyhedron from generators, and projection -------------


def from_generators(basis, dim, vertices, rays=(), lines=()):
    """Polyhedron conv(vertices) + cone(rays) + span(lines).

    One dual double description gives the H-representation.  The kept
    generators are the extreme ones among the inputs, read off by incidence
    against it (Fukuda-Prodon 1996): a vertex is extreme iff the facet normals
    tight at it, together with the equality normals, have rank dim, and a ray
    iff they have rank dim - 1.  Ranks are the pivot counts of one
    elimination, on the dual pass's own rows, and duplicates are dropped by
    their canonical rows.  When no vertex is extreme, the normals do not span
    R^dim and P has lines (given, or from opposite rays).  Then P has no
    extreme points, and its generators are the ones a primal pass over its
    own facet rows gives, as intersect_halfspaces would.
    """
    if not vertices:
        return polyhedra._empty(basis, dim)
    one, zero = basis.one(), basis.zero()
    points = [linalg.as_vector(basis, v) + (one,) for v in vertices]
    directions = [linalg.as_vector(basis, r) + (zero,) for r in rays]
    flats = [linalg.as_vector(basis, l) + (zero,) for l in lines]
    D = _domain(basis, points + directions + flats)
    points, directions, flats = ([D.conv(g) for g in gs] for gs in (points, directions, flats))
    gens = points + directions + [g for l in flats for g in (l, D.neg(l))]
    eqs, facets = polyhedra._dual(D, dim, gens)
    # the H-rep stays within the limits intersect_halfspaces accepts
    polyhedra._check_scale(dim + 1, 2 * len(eqs) + len(facets) + 1)
    eq_normals = [a[:dim] for a in eqs]

    def extreme(gs, rank):
        out = {}
        for g in gs:
            tight = [a[:dim] for a in facets if not D.nonzero(D.dot(a, g))]
            if len(_eliminate(D, eq_normals + tight)[1]) == rank:
                out.setdefault(D.canon(D.comb(D.one, g, D.zero, g)), g)
        return tuple(out.values())

    vs = extreme(points, dim)
    if not vs:
        rs, ls = polyhedra._primal(D, dim, list(eqs), list(facets))
        return polyhedra.Polyhedron(
            basis, dim, D, eqs, facets, tuple(g for g in rs if D.nonzero(g[dim])),
            tuple(g for g in rs if not D.nonzero(g[dim])), tuple(ls))
    return polyhedra.Polyhedron(basis, dim, D, eqs, facets, vs, extreme(directions, dim - 1), ())


def project(P, keep):
    """Exact orthogonal projection onto the kept coordinates, in the order of
    `keep`: the hull of P's generators restricted to them.  Projection adds
    no generators, so the result is no larger than P's own V-rep."""
    keep = list(keep)
    if sorted(set(keep)) != sorted(keep):
        raise PolyhedronError("keep must be a list of distinct coordinates")
    polyhedra._check_coordinates(P, keep)
    pick = lambda vs: [tuple(v[i] for i in keep) for v in vs]
    return from_generators(
        P.scalar_basis, len(keep), pick(P.vrep.vertices), pick(P.vrep.rays), pick(P.vrep.lines)
    )


# -- examples ----------------------------------------------------------------------


def segment(basis):
    return intersect_halfspaces(
        basis, 2, [([1, 0], 0), ([0, 1], 0)], [([1, 1], 1)]
    )


def orthant(basis, d=2):
    return intersect_halfspaces(
        basis, d, [(linalg.unit(basis, d, j), 0) for j in range(d)]
    )


def intersect(P, Q):
    """P and Q's constraints pooled into one system."""
    if P.dim != Q.dim:
        raise PolyhedronError("polyhedra live in different dimensions")
    if P.is_empty or Q.is_empty:
        return polyhedra._empty(P.scalar_basis, P.dim)
    return intersect_halfspaces(
        P.scalar_basis,
        P.dim,
        [(h.normal, h.offset) for h in P.halfspaces + Q.halfspaces],
        [(h.normal, h.offset) for h in P.equalities + Q.equalities],
    )


def hrep_json(P):
    """P's H-representation as strings."""
    def enc(hs):
        return {"normal": [str(e) for e in hs.normal], "offset": str(hs.offset)}

    return {
        "dim": P.dim,
        "halfspaces": [enc(h) for h in P.halfspaces],
        "equalities": [enc(h) for h in P.equalities],
    }


def random_polytope(rng, basis, dim, n_points):
    pts = [
        [random_fraction(rng, 6) for _ in range(dim)] for _ in range(n_points)
    ]
    return from_generators(basis, dim, pts)


def test_segment_vertices(sqrt2_basis):
    P = segment(sqrt2_basis)
    vs, rays = enumerate_vertices(P)
    coords = sorted(tuple(e.coeffs[0] for e in v) for v in vs)
    assert coords == [(0, 1), (1, 0)]
    assert rays == ()


def test_inconsistent_halfspaces_empty(sqrt2_basis):
    P = intersect_halfspaces(sqrt2_basis, 1, [([1], 0), ([-1], 1)])
    assert P.is_empty
    with pytest.raises(EmptyPolyhedronError):
        enumerate_vertices(P)


def test_orthant_is_cone_at_origin(sqrt2_basis):
    P = orthant(sqrt2_basis)
    vs, rays = enumerate_vertices(P)
    assert len(vs) == 1 and all(e.is_zero() for e in vs[0])
    assert len(rays) == 2


def test_irrational_segment_vertices(sqrt2_basis):
    P = intersect_halfspaces(
        sqrt2_basis, 2, [([1, 0], 0), ([0, 1], 0)], [([1, "sqrt2"], 1)]
    )
    vs, _ = enumerate_vertices(P)
    expected = {
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2))),
    }
    assert {tuple(e.coeffs for e in v) for v in vs} == expected


def test_simplex_vertices(sqrt2_basis):
    P = intersect_halfspaces(
        sqrt2_basis,
        3,
        [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)],
        [([1, 1, 1], 1)],
    )
    vs, _ = enumerate_vertices(P)
    assert len(vs) == 3


def test_affine_span_examples(sqrt2_basis):
    base, direction = affine_span(segment(sqrt2_basis))
    assert direction == Subspace.from_vectors(sqrt2_basis, 2, [[1, -1]])
    point = from_generators(sqrt2_basis, 2, [[2, 5]])
    _, d0 = affine_span(point)
    assert d0.dim == 0
    _, d2 = affine_span(orthant(sqrt2_basis))
    assert d2.dim == 2


def test_desk_scale_guard(sqrt2_basis):
    with pytest.raises(DeskScaleError):
        intersect_halfspaces(sqrt2_basis, 9, [([0] * 9, 0)])


def test_rationality_verdicts(sqrt2_basis):
    assert is_rational_polyhedral(segment(sqrt2_basis))
    assert is_rational_polyhedral(orthant(sqrt2_basis))
    irr = intersect_halfspaces(
        sqrt2_basis, 2, [([1, 0], 0), ([0, 1], 0)], [([1, "sqrt2"], 1)]
    )
    assert not is_rational_polyhedral(irr)
    # full-dimensional with an irrational facet normal
    wedge = intersect_halfspaces(
        sqrt2_basis, 2, [([1, "sqrt2"], 0), ([0, 1], 0)]
    )
    assert not is_rational_polyhedral(wedge)
    # irrational offsets are fine when normals are rational
    shifted = intersect_halfspaces(
        sqrt2_basis, 2, [([1, 0], "sqrt2"), ([0, 1], 0)]
    )
    assert is_rational_polyhedral(shifted)


def test_rationality_matches_per_facet_oracle_full_dim(sqrt2_basis):
    rng = random.Random(808)
    for _ in range(40):
        P = random_polytope(rng, sqrt2_basis, 2, rng.randint(3, 6))
        if P.is_empty or affine_span(P)[1].dim != 2:
            continue
        oracle = all(
            is_rational_direction(h.normal) for h in P.halfspaces
        )
        assert is_rational_polyhedral(P) == oracle


def test_h_v_round_trip_random(sqrt2_basis):
    rng = random.Random(1234)
    count = 0
    while count < 200:
        dim = rng.randint(1, 4)
        P = random_polytope(rng, sqrt2_basis, dim, rng.randint(dim + 1, dim + 4))
        if P.is_empty or len(P.halfspaces) > 8:
            continue
        count += 1
        Q = intersect_halfspaces(
            sqrt2_basis,
            dim,
            [(h.normal, h.offset) for h in P.halfspaces],
            [(h.normal, h.offset) for h in P.equalities],
        )
        assert poly_equal(P, Q)
        assert Q.halfspaces == P.halfspaces and Q.equalities == P.equalities


ORACLE_BASES = {
    "q": ConstantBasis.rationals(),
    "sqrt2": ConstantBasis.with_sqrt("sqrt2", 2),
    "negative_root": ConstantBasis([("c", -(2 ** 0.5), 2)]),
}


def redundant_generators(rng, basis, dim, kind):
    """Vertices with a duplicate and a midpoint; for kind 1..4 rays with an
    unnormalized duplicate and a redundant sum, plus opposite rays (2), an
    explicit line (3) or a zero ray (4).  An irrational entry carries one of
    the basis's constants."""

    def scalar():
        if basis.size > 1 and rng.random() < 0.3:
            coeffs = [random_fraction(rng, 3)] + [Fraction(0)] * (basis.size - 1)
            coeffs[rng.randrange(1, basis.size) if basis.size > 2 else 1] = random_fraction(rng, 2)
            return basis.scalar(coeffs)
        return basis.from_rational(random_fraction(rng, 3))

    def vec():
        return [scalar() for _ in range(dim)]

    V = [vec() for _ in range(rng.randint(1, dim + 3))]
    V.append(list(rng.choice(V)))
    a, b = rng.choice(V), rng.choice(V)
    V.append([(x + y).scale(Fraction(1, 2)) for x, y in zip(a, b)])
    R, L = [], []
    if kind:
        R = [vec() for _ in range(rng.randint(1, 2))]
        R.append([e.scale(rng.randint(2, 3)) for e in R[0]])
        R.append([x + y for x, y in zip(R[0], R[-1])])
    if kind == 2:
        R.append([-e for e in R[0]])
    if kind == 3:
        L = [vec()]
    if kind == 4:
        R.append([basis.zero()] * dim)
    return V, R, L


@pytest.mark.parametrize("name", sorted(ORACLE_BASES))
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_from_generators_matches_reenumeration(name, dim):
    """The generators kept by incidence are exactly those a second
    double-description pass over the H-representation enumerates."""
    basis = ORACLE_BASES[name]
    rng = random.Random(1000 * dim + len(name))
    for case in range(10):
        V, R, L = redundant_generators(rng, basis, dim, case % 5)
        P = from_generators(basis, dim, V, R, L)
        Q = intersect_halfspaces(
            basis,
            dim,
            [(h.normal, h.offset) for h in P.halfspaces],
            [(h.normal, h.offset) for h in P.equalities],
        )
        assert P.halfspaces == Q.halfspaces and P.equalities == Q.equalities
        assert P.vrep.vertices == Q.vrep.vertices
        assert P.vrep.rays == Q.vrep.rays
        assert P.vrep.lines == Q.vrep.lines


def test_from_generators_drops_redundant_generators(rat_basis):
    # a triangle given with a duplicate vertex, an edge midpoint and an
    # interior point, plus a doubled ray and a redundant sum of rays
    P = from_generators(
        rat_basis, 2,
        [[0, 0], [2, 0], [0, 2], [0, 0], [1, 0], ["1/2", "1/2"]],
        [[2, 0], [1, 0], [0, 3], [1, 1]],
    )
    as_ints = lambda vs: [tuple(int(e.coeffs[0]) for e in v) for v in vs]
    assert as_ints(P.vrep.vertices) == [(0, 0)]
    assert as_ints(P.vrep.rays) == [(0, 1), (1, 0)]
    assert P.vrep.lines == ()


def test_homogenize_examples(sqrt2_basis):
    P = segment(sqrt2_basis)
    cone = homogenize(P)
    assert cone.contains([Fraction(1, 2), Fraction(1, 2), 1])
    assert not cone.contains([1, 1, 1])
    assert poly_equal(slice_at_level(cone, 2, 1), P)
    point = from_generators(sqrt2_basis, 2, [[2, 3]])
    ray = homogenize(point)
    vs, rays = enumerate_vertices(ray)
    assert len(vs) == 1 and len(rays) == 1


def test_homogenize_membership_equivalence_random(sqrt2_basis):
    rng = random.Random(4321)
    checked = 0
    while checked < 100:
        dim = rng.randint(1, 3)
        P = random_polytope(rng, sqrt2_basis, dim, rng.randint(dim + 1, dim + 3))
        if P.is_empty:
            continue
        checked += 1
        cone = homogenize(P)
        for _ in range(5):
            v = [random_fraction(rng, 6) for _ in range(dim)]
            assert cone.contains(list(v) + [1]) == P.contains(v)


def test_project_examples(sqrt2_basis):
    cone = homogenize(segment(sqrt2_basis))
    shadow = project(cone, [0, 1])
    assert poly_equal(shadow, orthant(sqrt2_basis))
    box = intersect_halfspaces(
        sqrt2_basis,
        2,
        [([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1)],
    )
    interval = project(box, [0])
    vs, _ = enumerate_vertices(interval)
    assert sorted(v[0].coeffs[0] for v in vs) == [0, 1]
    empty = intersect_halfspaces(sqrt2_basis, 2, [([1, 0], 1), ([-1, 0], 0)])
    assert project(empty, [1]).is_empty


@pytest.mark.parametrize("coord, level", [(2, 0), (-1, 0), (2, 1)])
def test_slice_at_level_rejects_out_of_range_coordinate(sqrt2_basis, coord, level):
    with pytest.raises(PolyhedronError, match=f"coordinate {coord} "):
        slice_at_level(segment(sqrt2_basis), coord, level)


def test_slice_at_level_of_empty_polyhedron_is_empty(sqrt2_basis):
    """An empty polyhedron keeps no constraints, yet every slice of it is
    empty, as its projection is."""
    empty = intersect_halfspaces(sqrt2_basis, 2, [([1, 0], 1), ([-1, 0], 0)])
    for coord in (0, 1):
        for level in (0, 1, "sqrt2"):
            sliced = slice_at_level(empty, coord, level)
            assert sliced.is_empty and sliced.dim == 1
            assert sliced == project(empty, [1 - coord])


def slice_by_projection(P, coord, level):
    """Reference for slice_at_level on a nonempty P: intersect P with the
    equality x_coord = level, then project the other coordinates out."""
    basis = P.scalar_basis
    sliced = intersect_halfspaces(
        basis,
        P.dim,
        [(h.normal, h.offset) for h in P.halfspaces],
        [(h.normal, h.offset) for h in P.equalities]
        + [(linalg.unit(basis, P.dim, coord), level)],
    )
    return project(sliced, [i for i in range(P.dim) if i != coord])


@pytest.mark.parametrize("name", ["rat_basis", "sqrt2_basis", "three_surds_basis"])
def test_slice_at_level_matches_projection_reference(name, request):
    """Substituting the level into P's rows gives the canonical polyhedron
    the intersect-then-project route gives, for bounded polyhedra, unbounded
    ones and ones with lines, on every coordinate, at every vertex level (a
    face at the lowest), between them and beyond them (nothing)."""
    basis = request.getfixturevalue(name)
    rng = random.Random(len(name))
    seen = Counter()
    # the three-surd basis runs double description on a tower of two roots,
    # slower than on Z or Z[s], so it gets half the cases
    for case in range(12 if basis.size > 2 else 24):
        dim = case % 3 + 1
        P = from_generators(basis, dim, *redundant_generators(rng, basis, dim, case % 5))
        rays, lines = P.vrep.rays, P.vrep.lines
        seen["lines" if lines else "unbounded" if rays else "bounded"] += 1
        for coord in range(dim):
            values = sorted({v[coord].coeffs: v[coord] for v in P.vrep.vertices}.values(),
                            key=lambda e: e.to_float())
            between = [(a + b).scale(Fraction(1, 2)) for a, b in zip(values, values[1:])]
            beyond = [values[0] - basis.one(), values[-1] + basis.one()]
            # the slice at the lowest vertex level is a face when nothing
            # descends below it
            face = all(r[coord].sign() >= 0 for r in rays) and all(
                l[coord].is_zero() for l in lines)
            for level in values + between + beyond:
                new, old = slice_at_level(P, coord, level), slice_by_projection(P, coord, level)
                assert new == old and new.is_empty == old.is_empty
                if not new.vrep.lines:
                    assert new.vrep == old.vrep
                seen["empty"] += new.is_empty
                seen["point"] += (dim > 1 and len(new.vrep.vertices) == 1
                                  and not new.vrep.rays and not new.vrep.lines)
                seen["face"] += face and level is values[0]
    assert min(seen[k] for k in ("bounded", "unbounded", "lines", "empty", "point", "face")) >= 3, seen


@pytest.mark.parametrize("keep", [[5], [0, 2], [-1]])
def test_project_rejects_out_of_range_coordinate(sqrt2_basis, keep):
    bad = next(c for c in keep if not 0 <= c < 2)
    for P in (segment(sqrt2_basis),
              intersect_halfspaces(sqrt2_basis, 2, [([1, 0], 1), ([-1, 0], 0)])):
        with pytest.raises(PolyhedronError, match=f"coordinate {bad} "):
            project(P, keep)


def test_project_keeps_coordinate_order(sqrt2_basis):
    # a triangle living in coordinates (x, y): keep (y, x) swaps the axes
    P = from_generators(sqrt2_basis, 2, [[0, 0], [2, 0], [0, 1]])
    swapped = project(P, [1, 0])
    expected = from_generators(sqrt2_basis, 2, [[0, 0], [0, 2], [1, 0]])
    assert poly_equal(swapped, expected)


def test_product_round_trip_projection(sqrt2_basis):
    rng = random.Random(77)
    for _ in range(30):
        dim = rng.randint(1, 3)
        P = random_polytope(rng, sqrt2_basis, dim, dim + 2)
        if P.is_empty:
            continue
        lifted = intersect_halfspaces(
            sqrt2_basis,
            dim + 1,
            [(tuple(h.normal) + (sqrt2_basis.zero(),), h.offset) for h in P.halfspaces]
            + [(linalg.unit(sqrt2_basis, dim + 1, dim), 0),
               (linalg.vec_neg(linalg.unit(sqrt2_basis, dim + 1, dim)), -1)],
            [(tuple(h.normal) + (sqrt2_basis.zero(),), h.offset) for h in P.equalities],
        )
        assert poly_equal(project(lifted, list(range(dim))), P)


def test_project_commutes_with_box_intersection(sqrt2_basis):
    rng = random.Random(2020)
    for _ in range(25):
        P = random_polytope(rng, sqrt2_basis, 3, 5)
        if P.is_empty:
            continue
        lo, hi = Fraction(-1), Fraction(1)
        box2 = intersect_halfspaces(
            sqrt2_basis,
            2,
            [([1, 0], lo), ([0, 1], lo), ([-1, 0], -hi), ([0, -1], -hi)],
        )
        box3 = intersect_halfspaces(
            sqrt2_basis,
            3,
            [([1, 0, 0], lo), ([0, 1, 0], lo),
             ([-1, 0, 0], -hi), ([0, -1, 0], -hi)],
        )
        left = intersect(project(P, [0, 1]), box2)
        right = project(intersect(P, box3), [0, 1])
        assert poly_equal(left, right)


def test_poly_equal_examples(sqrt2_basis):
    P = segment(sqrt2_basis)
    rebuilt = from_generators(sqrt2_basis, 2, [list(v) for v in P.vrep.vertices])
    assert poly_equal(P, rebuilt)
    shifted = intersect_halfspaces(sqrt2_basis, 2, [([1, 0], 1), ([0, 1], 0)])
    assert not poly_equal(orthant(sqrt2_basis), shifted)
    empty = intersect_halfspaces(sqrt2_basis, 2, [([1, 0], 1), ([-1, 0], 0)])
    assert poly_equal(empty, empty)
    assert not poly_equal(empty, P)


def test_cut_out_by_examples(rat_basis, sqrt2_basis):
    """Scaled, redundant and missing rows, a plane given twice, lines, and
    the errors."""
    P = segment(sqrt2_basis)
    orth = [([1, 0], 0), ([0, 1], 0)]
    assert polyhedra.cut_out_by(P, orth, [([1, 1], 1)])
    # rows scaled by positive numbers, one irrational, and the plane twice
    assert polyhedra.cut_out_by(
        P, [([2, 0], 0), (["sqrt2", 0], 0), ([0, 3], 0)], [([2, 2], 2), ([1, 1], 1)])
    # a redundant row, and a row that cuts P
    assert polyhedra.cut_out_by(P, orth + [([1, 0], -1)], [([1, 1], 1)])
    assert not polyhedra.cut_out_by(P, orth + [([-1, 0], "-1/2")], [([1, 1], 1)])
    # a facet missing, the plane missing, the plane moved
    assert not polyhedra.cut_out_by(P, orth[:1], [([1, 1], 1)])
    assert not polyhedra.cut_out_by(P, orth)
    assert not polyhedra.cut_out_by(P, orth, [([1, 1], 2)])
    # a ray flatter than the quadrant: its facet x >= 0 is a given row
    ray = intersect_halfspaces(rat_basis, 2, [([1, 0], 0)], [([0, 1], 0)])
    assert not polyhedra.cut_out_by(ray, orth)
    assert polyhedra.cut_out_by(ray, orth, [([0, 1], 0)])
    # a strip with a line: every row must vanish on it
    strip = intersect_halfspaces(rat_basis, 2, [([1, 0], 0), ([-1, 0], -1)])
    assert strip.vrep.lines
    assert polyhedra.cut_out_by(strip, [([-2, 0], -2), ([3, 0], 0)])
    assert not polyhedra.cut_out_by(strip, [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0)])
    with pytest.raises(PolyhedronError, match="wrong dimension"):
        polyhedra.cut_out_by(P, [([1, 0, 0], 0)])
    empty = intersect_halfspaces(rat_basis, 1, [([1], 1), ([-1], 0)])
    with pytest.raises(EmptyPolyhedronError):
        polyhedra.cut_out_by(empty, [([1], 1), ([-1], 0)])


@pytest.mark.parametrize("value", [0.1, True, float("nan")], ids=["0.1", "True", "nan"])
def test_offsets_and_levels_parse_as_normals_do(rat_basis, value):
    """An offset or a level is read as an entry of a normal is: a float that
    is no small exact rational, a boolean and a nan each raise ScalarError.
    Offsets used to go through Fraction(value), which took 0.1 as
    3602879701896397/36028797018963968, True as 1, and raised a bare
    ValueError on nan."""
    with pytest.raises(ScalarError):
        linalg.as_vector(rat_basis, [value])
    with pytest.raises(ScalarError):
        intersect_halfspaces(rat_basis, 1, [([1], value), ([-1], -1)])
    with pytest.raises(ScalarError):
        intersect_halfspaces(rat_basis, 1, [([1], 0)], [([1], value)])
    P = intersect_halfspaces(rat_basis, 1, [([1], 0), ([-1], -1)])
    with pytest.raises(ScalarError):
        polyhedra.cut_out_by(P, [([1], value), ([-1], -1)])
    with pytest.raises(ScalarError):
        polyhedra.cut_out_by(P, [([1], 0), ([-1], -1)], [([1], value)])
    square = intersect_halfspaces(rat_basis, 2, [([1, 0], 0), ([0, 1], 0), ([-1, 0], -1),
                                                 ([0, -1], -1)])
    cone = homogenize(square)
    for Q in (square, cone):
        with pytest.raises(ScalarError):
            slice_at_level(Q, Q.dim - 1, value)


@pytest.mark.parametrize("empty", [True, False])
def test_contains_validates_the_point_first(sqrt2_basis, empty):
    # an empty polyhedron rejects a malformed point as a nonempty one does
    if empty:
        P = intersect_halfspaces(sqrt2_basis, 2, [([1, 0], 1), ([-1, 0], 0)])
    else:
        P = segment(sqrt2_basis)
    assert P.is_empty == empty
    assert not P.contains([2, 2])
    with pytest.raises(PolyhedronError):
        P.contains([0, 0, 0, 0, 0])
    other = ConstantBasis([("c", 3 ** 0.5, 3)])
    with pytest.raises(BasisMismatchError):
        P.contains([other.constant("c"), 0])


def recorded_polyhedra():
    """Polyhedra whose canonical H-representation is pinned below."""
    Q = ConstantBasis.rationals()
    S = ConstantBasis.with_sqrt("sqrt2", 2)
    N = ConstantBasis([("c", -(2 ** 0.5), 2)])
    T = ConstantBasis([("sqrt2", 2 ** 0.5, 2), ("sqrt3", 3 ** 0.5, 3)])
    c = N.constant("c")
    return {
        "rational_hull": from_generators(
            Q, 3, [[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 1], ["1/2", "1/2", "1/4"], [1, 1, 1]]),
        "rational_flat_line": from_generators(
            Q, 3, [[0, 0, 1], [2, 0, -1], ["1/2", "1/3", "1/6"], [0, 1, 0]], lines=[[1, -1, 0]]),
        "sqrt2_equality": intersect_halfspaces(
            S, 3, [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), ([1, "sqrt2", 0], "1/2")],
            [([1, 1, 1], 1)]),
        "sqrt2_line": intersect_halfspaces(
            S, 3, [([1, "sqrt2", 0], 1), ([-1, 1, 0], "-sqrt2"), ([2, "-1/3", 0], "-3")]),
        "sqrt2_cone": homogenize(intersect_halfspaces(
            S, 2, [([1, 0], 0), ([0, 1], 0), ([-1, "-sqrt2"], "-1-sqrt2")])),
        "negative_root": intersect_halfspaces(
            N, 2, [([c + 1, 0], 1), ([0, 1], 0), ([-1, -1], c - 3)]),
        "three_surds": intersect_halfspaces(
            T, 3,
            [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0), ([-1, "-sqrt3", 0], "-sqrt6"),
             ([1, -1, "sqrt2"], "-1")],
            [([1, 1, 1], "sqrt3")]),
    }


# hrep_json() of each, as recorded before facet extraction moved onto
# integer rows: the facet normalization (the first nonzero entry of
# (normal, -offset) scaled to +-1, facets reduced modulo the equalities) and
# the facet order must not drift
RECORDED_HREP = {
    "rational_hull": {
        "dim": 3,
        "halfspaces": [
            {"normal": ["-1", "-2/3", "-1/3"], "offset": "-2"},
            {"normal": ["-1", "1", "-2"], "offset": "-2"},
            {"normal": ["0", "0", "1"], "offset": "0"},
            {"normal": ["0", "1", "0"], "offset": "0"},
            {"normal": ["1", "-1", "-3"], "offset": "-3"},
            {"normal": ["1", "0", "0"], "offset": "0"},
        ],
        "equalities": [],
    },
    "rational_flat_line": {
        "dim": 3,
        "halfspaces": [
            {"normal": ["0", "0", "-1"], "offset": "-1"},
            {"normal": ["0", "0", "1"], "offset": "-1"},
        ],
        "equalities": [
            {"normal": ["1", "1", "1"], "offset": "1"},
        ],
    },
    "sqrt2_equality": {
        "dim": 3,
        "halfspaces": [
            {"normal": ["0", "-1", "-1"], "offset": "-1"},
            {"normal": ["0", "0", "1"], "offset": "0"},
            {"normal": ["0", "1", "-1 - sqrt2"], "offset": "-1/2 - 1/2*sqrt2"},
            {"normal": ["0", "1", "0"], "offset": "0"},
        ],
        "equalities": [
            {"normal": ["1", "1", "1"], "offset": "1"},
        ],
    },
    "sqrt2_line": {
        "dim": 3,
        "halfspaces": [
            {"normal": ["-1", "1", "0"], "offset": "-sqrt2"},
            {"normal": ["1", "-1/6", "0"], "offset": "-3/2"},
            {"normal": ["1", "sqrt2", "0"], "offset": "1"},
        ],
        "equalities": [],
    },
    "sqrt2_cone": {
        "dim": 3,
        "halfspaces": [
            {"normal": ["-1", "-sqrt2", "1 + sqrt2"], "offset": "0"},
            {"normal": ["0", "1", "0"], "offset": "0"},
            {"normal": ["1", "0", "0"], "offset": "0"},
        ],
        "equalities": [],
    },
    "negative_root": {
        "dim": 2,
        "halfspaces": [
            {"normal": ["-1", "-1"], "offset": "-3 + c"},
            {"normal": ["-1", "0"], "offset": "1 - c"},
            {"normal": ["0", "1"], "offset": "0"},
        ],
        "equalities": [],
    },
    "three_surds": {
        "dim": 3,
        "halfspaces": [
            {"normal": ["0", "-1", "-1"], "offset": "-sqrt3"},
            {"normal": ["0", "-1", "1/2 + 1/2*sqrt3"], "offset": "3/2 - 3/2*sqrt2 + 1/2*sqrt3 - 1/2*sqrt6"},
            {"normal": ["0", "0", "1"], "offset": "0"},
            {"normal": ["0", "1", "0"], "offset": "0"},
        ],
        "equalities": [
            {"normal": ["1", "1", "1"], "offset": "sqrt3"},
        ],
    },
}


@pytest.mark.parametrize("name", sorted(RECORDED_HREP))
def test_canonical_hrep_matches_record(name):
    assert hrep_json(recorded_polyhedra()[name]) == RECORDED_HREP[name]


@pytest.mark.parametrize("lines, passes", [((), 1), ([[0, 1]], 2)])
def test_from_generators_double_description_passes(monkeypatch, rat_basis, lines, passes):
    """One dual pass; with lines, one primal pass over its own facet rows
    more, and no third pass."""
    calls = []
    dd = polyhedra.cone_double_description

    def counted(*args):
        calls.append(args)
        return dd(*args)

    monkeypatch.setattr(polyhedra, "cone_double_description", counted)
    P = from_generators(rat_basis, 2, [[0, 0], [1, 0]], [[0, 1]], lines)
    assert len(calls) == passes
    monkeypatch.undo()
    if lines:
        strip = intersect_halfspaces(rat_basis, 2, [([1, 0], 0), ([-1, 0], -1)])
    else:
        strip = intersect_halfspaces(
            rat_basis, 2, [([1, 0], 0), ([-1, 0], -1), ([0, 1], 0)])
    assert hrep_json(P) == hrep_json(strip)
    assert P.vrep == strip.vrep


def test_redundant_irrational_halfspace_keeps_the_box(sqrt2_basis):
    """The dual pass runs in the constraints' domain, Z[sqrt2] here, although
    every vertex is rational; the redundant rows leave the box unchanged."""
    s2 = sqrt2_basis.constant("sqrt2")
    box = [([1, 0], 0), ([0, 1], 0), ([-1, 0], -1), ([0, -1], -1)]
    P = intersect_halfspaces(sqrt2_basis, 2, box)
    for extra in [([1, 1], -s2), ([s2, 1], -s2), ([-1, s2], -1)]:
        Q = intersect_halfspaces(sqrt2_basis, 2, box + [extra])
        assert hrep_json(Q) == hrep_json(P)
        assert Q.vrep == P.vrep


# -- the contact cone chain against its double-description routes -------------------


def homogenize_by_dd(P):
    """Reference for homogenize: P's rows ((n, -o), 0) and t >= 0 through
    intersect_halfspaces, a primal and a dual double description pass."""
    basis, zero = P.scalar_basis, P.scalar_basis.zero()
    rows = lambda hs: [(tuple(h.normal) + (-h.offset,), zero) for h in hs]
    t = (linalg.unit(basis, P.dim + 1, P.dim), zero)
    return intersect_halfspaces(basis, P.dim + 1, rows(P.halfspaces) + [t], rows(P.equalities))


def slice_by_substitution(P, coord, level):
    """Reference for slice_at_level on a nonempty P: P's rows with x_coord =
    level substituted, through intersect_halfspaces."""
    basis = P.scalar_basis
    level = polyhedra._as_scalar(basis, level)

    def substituted(rows):
        return [(h.normal[:coord] + h.normal[coord + 1:], h.offset - h.normal[coord] * level)
                for h in rows]

    return intersect_halfspaces(
        basis, P.dim - 1, substituted(P.halfspaces), substituted(P.equalities))


def assert_same_polyhedron(new, ref):
    """Equal canonical H-reps and equalities; equal V-reps, or, with lines,
    whose basis the double description picks, equal sets."""
    assert new == ref and new.is_empty == ref.is_empty
    if ref.vrep.lines:
        assert poly_equal(new, ref)
    else:
        assert new.vrep == ref.vrep


def cone_chain_cases(basis, rng, n):
    """Nonempty polyhedra from redundant generators, bounded, unbounded and
    with lines, in dimensions 1..3, many of them lower-dimensional, and a
    single point in each dimension."""
    out = [from_generators(basis, dim, [[rng.randint(-2, 2) for _ in range(dim)]])
           for dim in (1, 2, 3)]
    for case in range(n):
        dim = case % 3 + 1
        out.append(from_generators(basis, dim, *redundant_generators(rng, basis, dim, case % 5)))
    return out


@pytest.mark.parametrize("name", ["rat_basis", "sqrt2_basis", "three_surds_basis"])
def test_homogenize_matches_double_description_reference(name, request):
    """The cone read off P's representations is the one the two double
    description passes give, the t >= 0 facet included exactly when rec(P)
    is as large as P, for P with lines too."""
    basis = request.getfixturevalue(name)
    rng = random.Random(21 + len(name))
    seen = Counter()
    t_row = linalg.unit(basis, 1, 0)
    for P in cone_chain_cases(basis, rng, 10 if basis.size > 2 else 20):
        cone = homogenize(P)
        assert_same_polyhedron(cone, homogenize_by_dd(P))
        seen["lines" if P.vrep.lines else "unbounded" if P.vrep.rays else "bounded"] += 1
        seen["lower"] += len(P.equalities) > 0
        is_point = len(P.vrep.vertices) == 1 and not P.vrep.rays and not P.vrep.lines
        seen["point"] += is_point
        t_facet = any(h.normal[-1:] == t_row and linalg.vec_is_zero(h.normal[:-1])
                      for h in cone.halfspaces)
        seen["t facet"] += t_facet
        seen["t facet, unbounded"] += t_facet and not is_point
    assert min(seen.values()) >= 1 and len(seen) == 7, seen


@pytest.mark.parametrize("name", ["rat_basis", "sqrt2_basis", "three_surds_basis"])
def test_cone_slice_matches_substitution_reference(name, request):
    """Every slice of a cone over P, on every coordinate, at level 1, at a
    non-unit rational level, at sqrt2 where the basis has it, and at level 0
    and -1: the same canonical polyhedron as the reference's substitution
    into scalar rows.  Levels 0 and -1, coordinates where a ray descends
    below 0 and cones with lines take the double description of the rows
    moved in the domain."""
    basis = request.getfixturevalue(name)
    rng = random.Random(37 + len(name))
    levels = [1, "3/2", 0, -1] + (["sqrt2"] if "sqrt2" in basis.names else [])
    seen = Counter()
    for P in cone_chain_cases(basis, rng, 6 if basis.size > 2 else 12):
        cone = homogenize(P)
        for coord in range(cone.dim):
            rays_up = not cone.vrep.lines and all(
                r[coord].sign() >= 0 for r in cone.vrep.rays)
            for level in levels:
                new = slice_at_level(cone, coord, level)
                assert_same_polyhedron(new, slice_by_substitution(cone, coord, level))
                read = rays_up and polyhedra._as_scalar(basis, level).sign() > 0
                seen["read off" if read else "substituted"] += 1
                seen["read off, empty"] += read and new.is_empty
                seen["read off, unbounded"] += read and bool(new.vrep.rays)
                seen["read off, lower"] += read and bool(new.equalities)
                seen["level " + str(level)] += 1
    assert min(seen.values()) >= 2 and len(seen) == 5 + len(levels), seen


def test_cone_slice_with_every_ray_at_level_zero_is_empty(rat_basis, sqrt2_basis):
    """A quadrant in the plane x_2 = 0 is a pointed cone with no ray above
    level 0 in coordinate 2, so each positive level slices it empty; at
    level 0 the slice is the quadrant."""
    for basis in (rat_basis, sqrt2_basis):
        cone = intersect_halfspaces(basis, 3, [([1, 0, 0], 0), ([0, 1, 0], 0)],
                                    [([0, 0, 1], 0)])
        for level in (1, "1/2"):
            new = slice_at_level(cone, 2, level)
            assert new.is_empty and new.dim == 2
            assert_same_polyhedron(new, slice_by_substitution(cone, 2, level))
        assert slice_at_level(cone, 2, 0) == orthant(basis)


def test_homogenize_keeps_the_desk_scale_limit(rat_basis):
    """A P in dimension 6 has a cone in dimension 7, whose double
    description would need 8 coordinates: the same DeskScaleError as the
    double description route."""
    P = from_generators(rat_basis, 6, [[0] * 6, [1] + [0] * 5])
    with pytest.raises(DeskScaleError) as ref:
        homogenize_by_dd(P)
    with pytest.raises(DeskScaleError) as new:
        homogenize(P)
    assert str(new.value) == str(ref.value) == "ambient dimension 8 exceeds the supported limit 7"


# -- the domain representation and its lazy public fields ---------------------------


def eager_fields(basis, dim, halfspaces=(), equalities=()):
    """Reference for the public fields: the H- and V-representation of
    {<n, x> >= b, <m, x> = c} as the eager route built them, scalars made
    while the polyhedron is built.  A primal pass; vertices divided out of the
    homogenized rays, rays and lines divided by their first nonzero entry
    (rays by its absolute value); a dual pass, its lines eliminated to a
    positive last pivot and divided by it, its rays reduced modulo them,
    deduplicated as canonical rays and divided as rays; each field sorted."""
    as_row = lambda n, b: linalg.as_vector(basis, n) + (-polyhedra._as_scalar(basis, b),)
    eq_rows = [as_row(n, b) for n, b in equalities]
    hs_rows = [as_row(n, b) for n, b in halfspaces]
    D = _domain(basis, eq_rows + hs_rows)
    rows = [D.unit(dim + 1, dim)]
    for a in map(D.conv, eq_rows):
        rows += [a, D.neg(a)]
    lines, rays = polyhedra.cone_double_description(
        D, dim + 1, rows + [D.conv(a) for a in hs_rows])
    to_scalars = polyhedra._to_scalars
    vertices = [D.div(g[:dim], g[dim]) for g in rays if D.nonzero(g[dim])]
    if not vertices:
        return (), (), polyhedra.VRep((), (), ())
    sort = lambda vs: tuple(sorted(vs, key=polyhedra._sort_key))
    vrep = polyhedra.VRep(
        sort(vertices), sort(to_scalars(D, g[:dim], True) for g in rays if not D.nonzero(g[dim])),
        sort(to_scalars(D, l[:dim], False) for l in lines))
    dlines, drays = polyhedra.cone_double_description(
        D, dim + 1, rays + [g for l in lines for g in (l, D.neg(l))])
    erows, pivots, last = _eliminate(D, dlines)
    if D.sign(last) < 0:
        erows, last = [D.neg(r) for r in erows], D.neg((last,))[0]
    eqs = [polyhedra.HalfSpace(e[:dim], -e[dim]) for e in (D.div(r, last) for r in erows)]
    facets = {}
    for v in drays:
        for p, row in zip(pivots, erows):
            if D.nonzero(v[p]):
                v = D.comb(last, v, v[p], row)
        if any(map(D.nonzero, v[:dim])) and D.canon(v) not in facets:
            r = to_scalars(D, D.canon(v), True)
            facets[D.canon(v)] = polyhedra.HalfSpace(r[:dim], -r[dim])
    key = polyhedra._halfspace_key
    return tuple(sorted(facets.values(), key=key)), tuple(sorted(eqs, key=key)), vrep


def h_systems(basis, rng, n):
    """Constraint systems with their kind: the rows of bounded, unbounded,
    line-bearing and single-point polyhedra, each row scaled by a positive
    number (irrational where the basis allows), with a redundant row pushed
    outward; and empty systems."""
    scales = [basis.from_rational(Fraction(rng.randint(1, 3), rng.randint(1, 3)))]
    if basis.size > 1:
        scales.append(basis.one() + basis.constant(basis.names[1]))
    out = []
    for P in cone_chain_cases(basis, rng, n):
        # P's rows as scalars straight from its domain rows, so the systems
        # do not depend on the public fields under test
        D = P._D
        rows = lambda vs: [(r[:-1], -r[-1]) for r in (D.div(v, D.one) for v in vs)]
        hs = [(tuple(e * c for e in n), b * c) for n, b in rows(P._facets)
              for c in [rng.choice(scales)]]
        hs += [(n, b - basis.one()) for n, b in hs[:1]]
        eqs = [(tuple(e * c for e in n), b * c) for n, b in rows(P._eqs)
               for c in [rng.choice(scales)]]
        kind = ("point" if len(P.vrep.vertices) == 1 and not P.vrep.rays and not P.vrep.lines
                else "lines" if P.vrep.lines else "unbounded" if P.vrep.rays else "bounded")
        out.append((kind, P.dim, hs, eqs))
    for dim in (1, 2, 3):
        row = linalg.unit(basis, dim, dim - 1)
        out.append(("empty", dim, [(row, 1), (linalg.vec_neg(row), rng.choice(scales))], []))
    return out


@pytest.mark.parametrize("name", ["rat_basis", "sqrt2_basis", "three_surds_basis"])
def test_public_fields_match_eager_reference(name, request):
    """halfspaces, equalities and vrep, built on first read from the domain
    rows, equal what the eager route built, for bounded, unbounded,
    line-bearing, point and empty polyhedra; the cone over each nonempty one
    and its level-one slice are compared with the same reference."""
    basis = request.getfixturevalue(name)
    rng = random.Random(91 + len(name))
    seen = Counter()
    for kind, dim, hs, eqs in h_systems(basis, rng, 8 if basis.size > 2 else 15):
        P = intersect_halfspaces(basis, dim, hs, eqs)
        assert (P.halfspaces, P.equalities, P.vrep) == eager_fields(basis, dim, hs, eqs)
        assert P.is_empty == (kind == "empty")
        seen[kind] += 1
        if kind in ("empty", "lines") or dim > 2:
            continue
        for Q in (homogenize(P), slice_at_level(homogenize(P), dim, 1)):
            rows = lambda hs: [(h.normal, h.offset) for h in hs]
            ref = eager_fields(basis, Q.dim, rows(Q.halfspaces), rows(Q.equalities))
            assert (Q.halfspaces, Q.equalities) == ref[:2]
            assert Q.vrep == ref[2]
        seen["cone"] += 1
    assert len(seen) == 6 and min(seen.values()) >= 1, seen


def triangle_rows(basis, scale=None):
    """The rows of the triangle x, y >= 0, 2x + 3y <= 6, whose last facet row
    is not a unit multiple of its primitive integer row; with `scale`, each
    row times that positive scalar, whose irrational part cancels in the
    canonical rows."""
    rows = [([1, 0], 0), ([0, 1], 0), ([-2, -3], -6)]
    if scale is None:
        return rows
    return [([scale * e for e in linalg.as_vector(basis, n)], scale * b) for n, b in rows]


@pytest.mark.parametrize("name, constant", [("sqrt2_basis", "sqrt2"),
                                            ("three_surds_basis", "sqrt3")])
def test_comparisons_across_domains(name, constant, request):
    """One rational triangle built from rows over Z and from rows over
    Z[sqrt2] (or Z[sqrt2, sqrt3]) whose irrational parts cancel: equal, with
    equal hashes, poly_equal both ways, the same containment and cut_out_by
    verdicts, and unequal to a shifted triangle; the same for a segment on
    its long edge, whose equality row is compared too; and its cone sliced at
    an irrational level compares with the same slice of the other."""
    basis = request.getfixturevalue(name)
    c = basis.constant(constant)
    scale = basis.one() + c
    P = intersect_halfspaces(basis, 2, triangle_rows(basis))
    Q = intersect_halfspaces(basis, 2, triangle_rows(basis, scale))
    assert P._D.step is not Q._D.step  # Z against Z[sqrt2] or Z[sqrt2, sqrt3]
    assert P == Q and Q == P and hash(P) == hash(Q)
    assert poly_equal(P, Q) and poly_equal(Q, P)
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    inside, outside = [c.scale(half), tenth], [c.scale(3), half]
    for point in ([half, half], [3, 0], inside, outside, [-tenth, half]):
        assert P.contains(point) == Q.contains(point)
    assert P.contains(inside) and not P.contains(outside)
    for R, rows in ((P, triangle_rows(basis, scale)), (Q, triangle_rows(basis))):
        assert polyhedra.cut_out_by(R, rows)
        assert not polyhedra.cut_out_by(R, rows[:2])
    shifted = intersect_halfspaces(basis, 2, [([1, 0], "1/2")] + triangle_rows(basis)[1:])
    assert P != shifted and Q != shifted
    assert not poly_equal(Q, shifted) and not poly_equal(shifted, P)
    segments = [intersect_halfspaces(basis, 2, triangle_rows(basis)[:2], [([2, 3], 6)]),
                intersect_halfspaces(basis, 2, triangle_rows(basis, scale)[:2],
                                     [([scale * 2, scale * 3], scale * 6)])]
    assert segments[0]._D.step is not segments[1]._D.step
    assert segments[0] == segments[1] and hash(segments[0]) == hash(segments[1])
    assert poly_equal(*segments) and segments[0] != P
    assert all(R.contains([0, 2]) and not R.contains([c.scale(half), 1]) for R in segments)
    sliced = [slice_at_level(homogenize(R), 2, c) for R in (P, Q)]
    assert sliced[0] == sliced[1] and hash(sliced[0]) == hash(sliced[1])
    assert poly_equal(*sliced) and sliced[0].vrep == sliced[1].vrep
    assert sliced[0] != P and not poly_equal(sliced[0], P)


@pytest.mark.parametrize("name", ["rat_basis", "sqrt2_basis", "three_surds_basis"])
def test_equality_and_hash_ignore_read_order(name, request):
    """Two builds of one polyhedron compare and hash alike whichever public
    fields were read first, or none."""
    basis = request.getfixturevalue(name)
    rng = random.Random(5 + len(name))
    reads = [(), ("halfspaces",), ("vrep", "equalities"), ("equalities", "halfspaces", "vrep")]
    for kind, dim, hs, eqs in h_systems(basis, rng, 6):
        built = [intersect_halfspaces(basis, dim, hs, eqs) for _ in reads]
        for P, fields in zip(built, reads):
            before = hash(P)
            for f in fields:
                getattr(P, f)
            assert hash(P) == before
        for P, fields in zip(built, reads):
            assert all(P == Q and hash(P) == hash(Q) for Q in built), (kind, fields)


SCALAR_FIELDS = ("halfspaces", "equalities", "vrep")


@pytest.mark.parametrize("field", ["q", "sqrt2"])
def test_comparisons_build_no_scalar_representation(field, monkeypatch, rat_basis, sqrt2_basis):
    """poly_equal(local_cones_intersection(s), P) and the contact chain
    (homogenize, the slice at level one, poly_equal) construct no ExtScalar,
    and leave no public field built on the polyhedra they compare."""
    from momentlab import models
    from momentlab.scalars import ExtScalar
    from test_models import _random_bounded_slice  # here: test_models imports this file

    basis = rat_basis if field == "q" else sqrt2_basis
    rng = random.Random(808)
    made = Counter()
    init = ExtScalar.__init__

    def counted(self, *args, **kwargs):
        made["scalars"] += 1
        init(self, *args, **kwargs)

    done = 0
    while done < 6:
        s = _random_bounded_slice(rng, basis, rng.randint(3, 4), irrational=field != "q")
        if s is None:
            continue
        done += 1
        P = s.moment_polytope()
        L = models.local_cones_intersection(s)
        one = basis.one()
        built = {f for f in SCALAR_FIELDS if f in vars(P)}
        with monkeypatch.context() as m:
            m.setattr(ExtScalar, "__init__", counted)
            assert poly_equal(L, P)
            cone = homogenize(P)
            back = slice_at_level(cone, P.dim, one)
            assert poly_equal(back, P) and back == P
        assert made["scalars"] == 0
        assert not any(f in vars(Q) for Q in (L, cone, back) for f in SCALAR_FIELDS)
        assert {f for f in SCALAR_FIELDS if f in vars(P)} == built


def test_cone_and_slices_off_the_read_off_route_build_no_scalar_representation(
        rat_basis, sqrt2_basis):
    """homogenize of a P with lines, and slices at levels 0 and -1 of P and
    of its cone, work on P's domain rows alone: no public field is built on
    the polyhedron they take."""
    for basis in (rat_basis, sqrt2_basis):
        normal = [1, "sqrt2" if basis.size > 1 else 2, 0]
        P = intersect_halfspaces(basis, 3, [(normal, 0), ([-1, 0, 0], -1), ([0, 1, 0], 0)])
        cone = homogenize(P)
        slices = [slice_at_level(Q, coord, level)
                  for Q in (P, cone) for coord in (0, 2) for level in (0, -1)]
        assert not any(f in vars(Q) for Q in (P, cone) for f in SCALAR_FIELDS)
        assert P.vrep.lines and cone.vrep.lines
        assert cone == homogenize_by_dd(P)
        for Q in (P, cone):
            for coord in (0, 2):
                for level in (0, -1):
                    assert slices.pop(0) == slice_by_substitution(Q, coord, level)


# -- affine span and rationality on domain rows, against the scalar routes ----------


def affine_span_by_generators(P):
    """Reference for affine_span: the first vertex and the rref of the
    generator differences, rays and lines, as scalars."""
    base = P.vrep.vertices[0]
    directions = [linalg.vec_sub(v, base) for v in P.vrep.vertices[1:]]
    directions += list(P.vrep.rays) + list(P.vrep.lines)
    return base, Subspace.from_vectors(P.scalar_basis, P.dim, directions)


def rational_fan_by_scalars(P):
    """Reference for is_rational_polyhedral, the scalar route: the
    annihilator of the reference affine span must be rational, by the rank
    of its scalars' coefficient rows, and every facet normal's pairings with
    the direction rows must meet the rational span of the quasilattice
    generators (ray_meets_rational_span).  Returns the verdict and why."""
    _, direction = affine_span_by_generators(P)
    cutting = direction.annihilator()
    size = P.scalar_basis.size
    coefficient_rows = [tuple(e.coeffs[t] for e in b) for b in cutting.rows for t in range(size)]
    if len(_eliminate_rational(coefficient_rows)[1]) != cutting.dim:
        return False, "irrational cut"
    if direction.dim == 0:
        return True, "point"
    gens = lattice.quasilattice(cutting)
    pairings = linalg.mat_vecs([h.normal for h in P.halfspaces], direction.rows, P.scalar_basis)
    for coords in zip(*pairings):
        if not all(e.is_zero() for e in coords) and not ray_meets_rational_span(
                coords, gens.generators):
            return False, "irrational facet"
    return True, "lower" if cutting.dim else "full"


def rationality_cases(basis, rng, n):
    """Nonempty polyhedra built three ways: intersect_halfspaces on the rows
    of random (often lower-dimensional, often irrational) polyhedra, the
    cone over each one without lines (homogenize) and that cone's level-one
    slice (_cone_slice); plus, when the basis has a constant, a segment cut
    out by an irrational plane and examples whose cutting space is rational
    while a facet normal is irrational."""
    out = []
    for _, dim, hs, eqs in h_systems(basis, rng, n):
        P = intersect_halfspaces(basis, dim, hs, eqs)
        if P.is_empty:  # an empty system, or rows scaled by 1 + c for c < 0
            continue
        out.append(("intersect", P))
        if not P._lines and dim < 5:
            cone = homogenize(P)
            out += [("homogenize", cone), ("cone slice", slice_at_level(cone, dim, 1))]
    if basis.size > 1:
        c = basis.constant(basis.names[-1])
        out.append(("intersect", intersect_halfspaces(
            basis, 3, [([0, 1, 0], 0), ([1, 0, 0], 0), ([-1, c, 0], -1)], [([0, 0, 1], 1)])))
        out.append(("intersect", intersect_halfspaces(
            basis, 2, [([1, 0], 0), ([-1, 0], -2)], [([1, 1], c)])))
        out.append(("intersect", intersect_halfspaces(
            basis, 2, [([1, 0], 0), ([0, 1], 0), ([-1, 0], -2)], [([1, c], 1)])))
    return out


@pytest.mark.parametrize("name", sorted(DOMAIN_BASES))
def test_affine_span_and_rationality_match_scalar_routes(name):
    """affine_span's kernel of P's equality rows equals the rref of its
    generator differences, and is_rational_polyhedral on P's coefficient
    rows gives the scalar route's verdict, for polyhedra from
    intersect_halfspaces, homogenize and the cone slice, over Z, Z[s] for
    three squares and Z[s1, s2]."""
    basis = DOMAIN_BASES[name]
    rng = random.Random(4242 + len(name))
    seen = Counter()
    for route, P in rationality_cases(basis, rng, 12 if basis.size > 2 else 30):
        base, direction = affine_span(P)
        assert (base, direction) == affine_span_by_generators(P)
        verdict, why = rational_fan_by_scalars(P)
        assert is_rational_polyhedral(P) == verdict, (route, why)
        seen[route] += 1
        seen[why] += 1
    assert {"intersect", "homogenize", "cone slice", "full", "lower"} <= set(seen), seen
    if basis.size > 1:
        assert seen["irrational cut"] and seen["irrational facet"], seen
