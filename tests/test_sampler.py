import numpy as np
import pytest

from momentlab import polyhedra, sampler
from momentlab.sampler import (
    SamplerError,
    affine_spec,
    circle_spec,
    contact_cone_sample,
    convexity_defect,
    deformation_scan,
    distance_to_image,
    ellipse_spec,
    lift_cloud,
    lift_to_slice,
    moment_of_lift,
    sample_image,
    trig_graph_spec,
)
from momentlab.scalars import ConstantBasis


def segment_curve():
    return affine_spec([1.0, 0.0], [-1.0, 1.0])


def crossing_circle():
    return circle_spec([1.0, 1.0], 1.2)


INF, NAN = float("inf"), float("nan")


BAD_CURVES = {
    # id: (constructor, arguments, the parameter the error must name)
    "center-short": (circle_spec, ([1.0], 1.2), "center"),
    "center-long": (circle_spec, ([1.0, 1.0, 1.0], 1.2), "center"),
    "center-text": (circle_spec, ("xy", 1.2), "center"),
    "center-number": (circle_spec, (5, 1.2), "center"),
    "center-text-entry": (circle_spec, ([1.0, "x"], 1.2), r"center\[1\]"),
    "center-nan": (circle_spec, ([NAN, 1.0], 1.2), r"center\[0\]"),
    "radius-inf": (circle_spec, ([1.0, 1.0], INF), "radius"),
    "radius-nan": (circle_spec, ([1.0, 1.0], NAN), "radius"),
    "radius-text": (circle_spec, ([1.0, 1.0], "1"), "radius"),
    "ellipse-center-nested": (ellipse_spec, ([[1.0], [1.0]], 1.2, 0.9), r"center\[0\]"),
    "semi_x-inf": (ellipse_spec, ([1.0, 1.0], INF, 0.9), "semi_x"),
    "semi_y-nan": (ellipse_spec, ([1.0, 1.0], 1.2, NAN), "semi_y"),
    "angle-inf": (ellipse_spec, ([1.0, 1.0], 1.2, 0.9, INF), "angle"),
    "basepoint-inf": (affine_spec, ([1.0, INF], [-1.0, 1.0]), r"basepoint\[1\]"),
    "direction-bool": (affine_spec, ([1.0, 0.0], [True, 1.0]), r"direction\[0\]"),
    "basepoint-empty": (affine_spec, ([], []), "basepoint"),
    "param_range-inf": (affine_spec, ([1.0, 0.0], [-1.0, 1.0], (0.0, INF)), "param_range"),
    "x_range-nan": (trig_graph_spec, ((0.0, NAN), 1.5, 1.0), "x_range"),
    "offset-inf": (trig_graph_spec, ((0.0, 6.0), INF, 1.0), "offset"),
    "phase-nan": (trig_graph_spec, ((0.0, 6.0), 1.5, 1.0, 1.0, NAN), "phase"),
}


@pytest.mark.parametrize("case", BAD_CURVES.values(), ids=BAD_CURVES.keys())
def test_curve_parameters_must_be_finite(case):
    make, args, name = case
    with pytest.raises(SamplerError, match=f"^{name}"):
        make(*args)


def test_sampling_is_deterministic():
    spec = crossing_circle()
    a = sample_image(spec, 500, seed=42)
    b = sample_image(spec, 500, seed=42)
    assert np.array_equal(a.points, b.points)
    c = sample_image(spec, 500, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_affine_cloud_reaches_endpoints():
    cloud = sample_image(segment_curve(), 10000, seed=1)
    assert np.all(cloud.points >= -1e-12)
    d_to_10 = np.linalg.norm(cloud.points - np.array([1.0, 0.0]), axis=1).min()
    d_to_01 = np.linalg.norm(cloud.points - np.array([0.0, 1.0]), axis=1).min()
    assert d_to_10 < 1e-6 and d_to_01 < 1e-6


def test_circle_cloud_crosses_both_axes():
    cloud = sample_image(crossing_circle(), 10000, seed=5)
    assert np.all(cloud.points >= 0.0)
    assert cloud.points[:, 0].min() < 1e-2
    assert cloud.points[:, 1].min() < 1e-2


def test_single_point_sample():
    cloud = sample_image(segment_curve(), 1, seed=9)
    assert cloud.points.shape == (1, 2)
    assert np.all(cloud.points >= 0.0)


def test_missing_orthant_errors():
    off = circle_spec([-5.0, -5.0], 1.0)
    with pytest.raises(SamplerError, match="misses the orthant"):
        sample_image(off, 100, seed=3)


def test_lift_round_trip():
    y = np.array([1.0, 0.0])
    x = lift_to_slice(segment_curve(), y, angles=11)
    assert abs(abs(x[0]) - np.sqrt(2.0)) < 1e-12
    assert abs(x[1]) == 0.0
    with pytest.raises(SamplerError):
        lift_to_slice(segment_curve(), [-0.5, 1.0], angles=11)
    cloud = sample_image(crossing_circle(), 10000, seed=23)
    lifted = lift_cloud(cloud, angles=24)
    residual = np.abs(moment_of_lift(lifted) - cloud.points).max()
    assert residual < 1e-12


def test_convexity_defect_affine_is_zero():
    cloud = sample_image(segment_curve(), 10000, seed=2)
    defect = convexity_defect(cloud, distance_to_image(segment_curve()))
    assert defect < 1e-9


def test_convexity_defect_circle_is_large():
    spec = crossing_circle()
    cloud = sample_image(spec, 10000, seed=2)
    defect = convexity_defect(cloud, distance_to_image(spec))
    # independent lower bound: the chord between the two axis crossings of
    # the arc has its midpoint at distance >= r - |mid - center| from the arc
    t = np.linspace(0.0, 2.0 * np.pi, 200001)
    pts = sampler.evaluate(spec, t)
    pts = pts[np.all(pts >= 0.0, axis=1)]
    ends = pts[pts[:, 0] < 1e-3], pts[pts[:, 1] < 1e-3]
    mid = 0.5 * (ends[0][0] + ends[1][0])
    bound = 1.2 - np.linalg.norm(mid - np.array([1.0, 1.0]))
    assert bound > 0.05
    assert defect > max(0.05, 0.5 * bound)


def test_convexity_defect_single_point():
    cloud = sampler.PointCloud(np.array([[0.3, 0.7]]), np.array([0.0]), seed=0)
    assert convexity_defect(cloud, distance_to_image(segment_curve())) == 0.0


def test_deformation_circle_to_ellipse_is_nontrivial():
    family = [crossing_circle(), ellipse_spec([1.0, 1.0], 1.2, 0.9)]
    report = deformation_scan(family, n=2000, seed=6)
    assert report.presymplectically_nontrivial
    assert not report.pairs[0].translate_equivalent


def test_deformation_constant_family_is_trivial():
    family = [crossing_circle(), crossing_circle(), crossing_circle()]
    report = deformation_scan(family, n=2000, seed=6)
    assert not report.presymplectically_nontrivial
    assert all(p.hausdorff_after_shift <= 1e-12 for p in report.pairs)


def test_deformation_translation_family_is_trivial():
    base = affine_spec([1.0, 0.5], [1.0, -0.25], param_range=(0.0, 1.0))
    shifted = affine_spec([1.5, 0.75], [1.0, -0.25], param_range=(0.0, 1.0))
    report = deformation_scan([base, shifted], n=2000, seed=8)
    assert not report.presymplectically_nontrivial


def test_trig_graph_kind_samples():
    spec = trig_graph_spec((0.0, 6.0), offset=1.5, amplitude=1.0)
    cloud = sample_image(spec, 2000, seed=10)
    assert np.all(cloud.points >= 0.0)
    d = distance_to_image(spec)(cloud.points)
    assert d.max() < 1e-3


def test_contact_cone_affine_matches_exact_homogenization():
    spec = affine_spec([1.0, 0.0], [-1.0, 1.0])
    cloud = contact_cone_sample(spec, 10000, t_max=2.0, seed=12)
    basis = ConstantBasis.rationals()
    segment = polyhedra.intersect_halfspaces(
        basis, 2, [([1, 0], 0), ([0, 1], 0)], [([1, 1], 1)]
    )
    cone = polyhedra.homogenize(segment)
    worst = 0.0
    for h in list(cone.halfspaces):
        normal = np.array([e.to_float() for e in h.normal])
        gap = cloud.points @ normal - h.offset.to_float()
        worst = max(worst, float(np.maximum(0.0, -gap).max()))
    for h in list(cone.equalities):
        normal = np.array([e.to_float() for e in h.normal])
        worst = max(worst, float(np.abs(cloud.points @ normal - h.offset.to_float()).max()))
    assert worst < 1e-9


def test_contact_cone_detects_radial_tangency():
    # this circle crosses the locus |y|^2 = <y, c>, where the radial field
    # is tangent to the curve
    spec = circle_spec([2.0, 2.0], 0.5)
    with pytest.raises(SamplerError, match="not of contact type"):
        contact_cone_sample(spec, 10000, t_max=1.0, seed=13)


def test_contact_cone_t_max_zero_collapses():
    cloud = contact_cone_sample(segment_curve(), 100, t_max=0.0, seed=14)
    assert np.abs(cloud.points).max() == 0.0


def test_exact_engine_images_have_no_defect():
    # affine slices from the exact engine stay convex under sampling
    import random
    from momentlab.scalars import ConstantBasis

    basis = ConstantBasis.with_sqrt()
    rng = random.Random(4096)
    from test_models import _random_bounded_slice

    done = 0
    while done < 5:
        s = _random_bounded_slice(rng, basis, 2, irrational=rng.random() < 0.5)
        if s is None or s.direction.dim != 1:
            continue
        done += 1
        spec = affine_spec(
            [e.to_float() for e in s.lam],
            [e.to_float() for e in s.direction.rows[0]],
        )
        cloud = sample_image(spec, 10000, seed=31)
        defect = convexity_defect(cloud, distance_to_image(spec))
        assert defect < 1e-6


# -- block draws ---------------------------------------------------------------------


def one_shot_sample(spec, n, seed):
    """sample_image's periodic and graph path as one draw of all 100 n
    parameters."""
    lo, hi = sampler._param_domain(spec)
    t = np.random.default_rng(seed).uniform(lo, hi, 100 * n)
    pts = sampler.evaluate(spec, t)
    keep = np.all(pts >= 0.0, axis=1)
    t, pts = t[keep][:n], pts[keep][:n]
    if len(pts) == 0:
        raise SamplerError("curve misses the orthant")
    order = np.argsort(t, kind="stable")
    return pts[order], t[order]


# a circle that enters the orthant only near the origin: a few draws in 10**5 hit
BARELY = circle_spec([-1.0, -1.0], 1.4143)

BLOCK_DRAWS = {
    "circle": (crossing_circle(), 10000, 7),
    "circle-n1": (crossing_circle(), 1, 7),
    "ellipse": (ellipse_spec([1.0, 1.0], 1.2, 0.9), 2000, 6),
    "ellipse-tilted": (ellipse_spec([0.2, 0.1], 1.0, 0.3, 0.7), 3000, 4),
    "trig": (trig_graph_spec((0.0, 6.0), offset=1.5, amplitude=1.0), 2000, 10),
    "trig-n1": (trig_graph_spec((0.0, 6.0), offset=0.2, amplitude=1.0), 1, 3),
    "barely": (BARELY, 2000, 5),
}


@pytest.mark.parametrize("case", BLOCK_DRAWS.values(), ids=BLOCK_DRAWS.keys())
def test_block_draws_match_one_shot(case):
    spec, n, seed = case
    points, params = one_shot_sample(spec, n, seed)
    cloud = sample_image(spec, n, seed)
    assert np.array_equal(cloud.points, points)
    assert np.array_equal(cloud.params, params)


def test_block_draws_stop_at_the_draw_cap():
    points, _ = one_shot_sample(BARELY, 2000, 5)
    assert 0 < len(points) < 2000
    assert sample_image(BARELY, 2000, 5).count == len(points)
    # 100 draws are too few to reach this arc at all
    for sample in (one_shot_sample, sample_image):
        with pytest.raises(SamplerError, match="misses the orthant"):
            sample(BARELY, 1, 5)


def test_sample_image_memory_does_not_grow_with_the_draw_cap():
    import tracemalloc

    sample_image(crossing_circle(), 10, seed=1)
    tracemalloc.start()
    try:
        sample_image(crossing_circle(), 20000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2,000,000 parameters of a single draw alone take 16 MB
    assert peak < 16e6


# -- pruned Hausdorff distance -------------------------------------------------------


def dense_hausdorff(A, B):
    return np.maximum(
        sampler._min_dist_chunked(A, B).max(), sampler._min_dist_chunked(B, A).max()
    )


def shifted_pair(first, second, sizes, seed):
    A = sample_image(first, sizes[0], seed).points
    B = sample_image(second, sizes[1], seed + 1).points
    return A + (B.mean(axis=0) - A.mean(axis=0)), B


def plane_family(rng):
    return [
        crossing_circle(),
        ellipse_spec([1.0, 1.0], 1.2, rng.uniform(0.5, 1.5)),
        ellipse_spec([1.0, 1.0], rng.uniform(0.8, 1.3), 0.9, rng.uniform(0.0, 3.0)),
    ]


@pytest.mark.parametrize(
    "sizes", [(2000, 2000), (2000, 2000), (300, 1700), (1500, 70), (20, 900), (64, 64)]
)
def test_pruned_hausdorff_equals_dense(sizes):
    rng = np.random.default_rng(sum(sizes))
    for seed in range(2):
        family = plane_family(rng)
        i, j = rng.choice(len(family), 2, replace=False)
        A, B = shifted_pair(family[i], family[j], sizes, seed)
        assert sampler._hausdorff(A, B) == dense_hausdorff(A, B)


def test_pruned_hausdorff_of_identical_clouds_is_zero():
    A = sample_image(crossing_circle(), 2000, seed=6).points
    assert sampler._hausdorff(A, A.copy()) == dense_hausdorff(A, A) == 0.0


@pytest.mark.parametrize("sizes", [(1, 1), (5, 15), (15, 3), (1, 200), (200, 1)])
def test_pruned_hausdorff_short_clouds(sizes):
    A, B = shifted_pair(crossing_circle(), ellipse_spec([1.0, 1.0], 1.2, 0.9), sizes, 2)
    assert sampler._hausdorff(A, B) == dense_hausdorff(A, B)


def test_pruned_hausdorff_when_the_coarse_bounds_are_exact():
    # every point of B repeated once per stride: the coarse points are all of
    # B, so each bound is the exact minimum and none exceeds the lower bound
    P = sample_image(ellipse_spec([1.0, 1.0], 1.2, 0.9), 300, seed=4).points
    B = np.repeat(P, sampler._COARSE_STRIDE, axis=0)
    A = sample_image(crossing_circle(), 500, seed=4).points
    assert sampler._directed_sq(A, B) == sampler._min_sq_dist_chunked(A, B).max()
    assert sampler._hausdorff(A, B) == dense_hausdorff(A, B)


def test_pruned_hausdorff_when_the_largest_bounds_mislead():
    # B is a grid on the x axis.  Many points of A lie between coarse points,
    # at squared distance 8 from B but with bounds near 72; the farthest
    # point, at squared distance 9 above a coarse point, has the exact bound 9
    stride = sampler._COARSE_STRIDE
    B = np.stack([np.arange(100.0 * stride), np.zeros(100 * stride)], axis=1)
    between = np.stack([stride * np.arange(100.0) + stride / 2, np.full(100, 8**0.5)], axis=1)
    A = np.concatenate([between, [[0.0, 3.0]]])
    dense = sampler._min_sq_dist_chunked(A, B).max()
    assert sampler._directed_sq(A, B) == dense == 9.0
    assert sampler._hausdorff(A, B) == dense_hausdorff(A, B)


def test_pruned_hausdorff_three_dimensional_affine_family():
    base = affine_spec([1.0, 0.5, 0.2], [1.0, -0.25, 0.1], param_range=(0.0, 1.0))
    family = [
        base,
        affine_spec([1.5, 0.75, 0.3], [1.0, -0.25, 0.1], param_range=(0.0, 1.0)),
        affine_spec([1.0, 0.5, 0.2], [0.9, -0.3, 0.4], param_range=(0.0, 1.5)),
    ]
    for other, sizes in zip(family, [(2000, 2000), (1500, 400), (700, 2000)]):
        A, B = shifted_pair(base, other, sizes, 9)
        assert sampler._hausdorff(A, B) == dense_hausdorff(A, B)


def test_pruned_hausdorff_keeps_non_finite_results():
    A, B = shifted_pair(crossing_circle(), ellipse_spec([1.0, 1.0], 1.2, 0.9), (500, 500), 3)
    with_nan = A.copy()
    with_nan[17, 1] = NAN
    assert np.isnan(sampler._hausdorff(with_nan, B))
    assert np.isnan(sampler._hausdorff(B, with_nan))
    with_inf, other_inf = A.copy(), B.copy()
    with_inf[3, 0] = other_inf[40, 0] = INF
    assert np.isnan(sampler._hausdorff(with_inf, other_inf))
    assert sampler._hausdorff(with_inf, B) == dense_hausdorff(with_inf, B) == INF
