import random
from fractions import Fraction

import pytest

from momentlab import linalg, polyhedra
from momentlab.polyhedra import (
    DeskScaleError,
    EmptyPolyhedronError,
    PolyhedronError,
    affine_span,
    enumerate_vertices,
    from_generators,
    homogenize,
    intersect_halfspaces,
    is_rational_polyhedral,
    poly_equal,
    project,
    slice_at_level,
)
from momentlab.presymlin import Subspace
from momentlab.scalars import BasisMismatchError, ConstantBasis, is_rational_direction

from conftest import random_fraction


def segment(basis):
    return intersect_halfspaces(
        basis, 2, [([1, 0], 0), ([0, 1], 0)], [([1, 1], 1)]
    )


def orthant(basis, d=2):
    return intersect_halfspaces(
        basis, d, [(linalg.unit(basis, d, j), 0) for j in range(d)]
    )


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
        left = polyhedra.intersect(project(P, [0, 1]), box2)
        right = project(polyhedra.intersect(P, box3), [0, 1])
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
    other = ConstantBasis.rationals().with_constant("c", 3 ** 0.5, square=3)
    with pytest.raises(BasisMismatchError):
        P.contains([other.constant("c"), 0])


def test_json_round_trip(sqrt2_basis):
    P = intersect_halfspaces(
        sqrt2_basis, 2, [([1, 0], 0), ([0, 1], 0)], [([1, "sqrt2"], 1)]
    )
    data = P.to_json_dict()
    Q = polyhedra.Polyhedron.from_json_dict(data, sqrt2_basis)
    assert poly_equal(P, Q)


def recorded_polyhedra():
    """Polyhedra whose canonical H-representation is pinned below."""
    Q = ConstantBasis.rationals()
    S = ConstantBasis.with_sqrt("sqrt2", 2)
    N = ConstantBasis.rationals().with_constant("c", -(2 ** 0.5), square=2)
    T = (ConstantBasis.with_sqrt("sqrt2", 2).with_constant("sqrt3", 3 ** 0.5, square=3)
         .with_constant("sqrt6", 6 ** 0.5, square=6))
    T.declare_product("sqrt2", "sqrt3", [0, 0, 0, 1])
    T.declare_product("sqrt2", "sqrt6", [0, 0, 2, 0])
    T.declare_product("sqrt3", "sqrt6", [0, 3, 0, 0])
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


# to_json_dict() of each, as recorded before facet extraction moved onto
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
    assert recorded_polyhedra()[name].to_json_dict() == RECORDED_HREP[name]
