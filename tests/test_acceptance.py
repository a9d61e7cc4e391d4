"""Acceptance suite: one test per criterion, each printing a pass line with
its timing.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from momentlab import lattice, linalg, models, morse, polyhedra, presymlin, sampler
from momentlab.cli import main as cli_main
from momentlab.models import ModelPoint, WeightedModule, build_affine_slice
from momentlab.presymlin import Subspace
from momentlab.scalars import ConstantBasis

from test_models import _random_bounded_slice
from test_presymlin import random_skew_form, random_subspace

BASIS = ConstantBasis.with_sqrt("sqrt2", 2)


def _pass(num, started, detail):
    print(f"criterion {num:2d}: PASS ({time.perf_counter() - started:.2f}s) {detail}")


@pytest.fixture(scope="module")
def battery():
    """100 random bounded affine slices, d <= 5, directions rational or in
    Q + Q*sqrt2, shared between the hull and local-cone criteria."""
    rng = random.Random(97)
    slices = []
    while len(slices) < 100:
        d = rng.randint(2, 5)
        s = _random_bounded_slice(rng, BASIS, d, irrational=rng.random() < 0.5)
        if s is None:
            continue
        if not polyhedra.is_bounded(s.moment_polytope()):
            continue
        slices.append(s)
    return slices


def test_criterion_01_rational_segment():
    t0 = time.perf_counter()
    s = build_affine_slice(BASIS, 2, [1, 0], direction_normals=[[1, 1]])
    assert s.null_ideal() == Subspace.from_vectors(BASIS, 2, [[1, 1]])
    rep = models.moment_image(s)
    vs, rays = polyhedra.enumerate_vertices(rep.polytope)
    assert not rays
    assert sorted(tuple(e.coeffs[0] for e in v) for v in vs) == [(0, 1), (1, 0)]
    base, direction = polyhedra.affine_span(rep.polytope)
    assert direction == Subspace.from_vectors(BASIS, 2, [[1, -1]])
    assert s.direction.contains(
        linalg.vec_sub(base, linalg.as_vector(BASIS, [1, 0]))
    )
    assert rep.rational_polyhedral is True
    strata = models.support_strata(s)
    assert len(strata) == 3
    assert all(models.cleanness_at(s, st.representative).clean for st in strata)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, t0, "rational segment slice: vertices, span, rationality, cleanness")


def test_criterion_02_quasifold_irrational_slice():
    t0 = time.perf_counter()
    s = build_affine_slice(BASIS, 2, [1, 0], direction_normals=[[1, "sqrt2"]])
    rep = models.moment_image(s)
    vs, _ = polyhedra.enumerate_vertices(rep.polytope)
    assert {tuple(e.coeffs for e in v) for v in vs} == {
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2))),
    }
    ql = lattice.quasilattice(s.ideal)
    assert ql.quotient_dim == 1
    assert ql.rank == 2
    assert rep.null_subgroup_closed is False
    assert rep.rational_polyhedral is False
    # the rational control instantiates the converse direction
    control = models.moment_image(
        build_affine_slice(BASIS, 2, [1, 0], direction_normals=[[1, 1]])
    )
    assert control.rational_polyhedral is True
    assert control.null_subgroup_closed is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(2, t0, "irrational slice: exact vertices, quasilattice rank 2, "
          "rationality <=> closed null subgroup in both directions")


def test_criterion_03_vertex_hull_battery(battery):
    t0 = time.perf_counter()
    for s in battery:
        _, check = morse.full_critical_set(s)
        assert check.hull_equals_polytope
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(3, t0, "hull of fixed-leaf images equals the moment polytope on "
          f"{len(battery)} random bounded slices")


def test_criterion_04_local_cone_battery(battery):
    t0 = time.perf_counter()
    for s in battery:
        inter = models.local_cones_intersection(s)
        assert polyhedra.poly_equal(inter, s.moment_polytope())
    _pass(4, t0, "intersection of per-stratum local cones equals the moment "
          f"polytope on {len(battery)} random bounded slices")


def test_criterion_05_morse_suite():
    t0 = time.perf_counter()
    s = build_affine_slice(BASIS, 2, [1, 0], direction_normals=[[1, 1]])
    strata = morse.critical_set(s, [1, 0])
    assert sorted(st.index for st in strata) == [0, 2]
    assert morse.morse_bott_check(s, [1, 0]).is_morse_bott
    shifted = morse.critical_set(s, [2, 1])
    assert [st.support for st in strata] == [st.support for st in shifted]
    assert [st.index for st in strata] == [st.index for st in shifted]
    _pass(5, t0, "segment indices {0, 2}, Morse-Bott true, critical set "
          "invariant under ideal shifts")


def test_criterion_06_cleanness_counterexample():
    t0 = time.perf_counter()
    pm = WeightedModule(BASIS, 2, ((1, 0), (1, 1), (1, -1)), frozenset({1, 2}))
    bad = ModelPoint.from_coordinates(BASIS, [(0, 0), (1, 0), (1, 0)])
    rep = models.cleanness_at(pm, bad)
    assert not rep.clean
    assert rep.leaf_stabilizer == Subspace.full(BASIS, 2)
    assert rep.stabilizer == Subspace.zero(BASIS, 2)
    assert rep.null_ideal == Subspace.from_vectors(BASIS, 2, [[0, 1]])
    good = ModelPoint.from_coordinates(BASIS, [(1, 0), (0, 0), (0, 0)])
    rep2 = models.cleanness_at(pm, good)
    assert rep2.clean
    assert rep2.leaf_stabilizer == Subspace.from_vectors(BASIS, 2, [[0, 1]])
    assert rep2.stabilizer == Subspace.from_vectors(BASIS, 2, [[0, 1]])
    _pass(6, t0, "product model clean at (1;0,0) and not at (0;1,1), with the "
          "hand-derived subspaces")


def test_criterion_07_presymplectic_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(5003)
    for _ in range(500):
        dim = rng.randint(1, 8)
        form = random_skew_form(rng, BASIS, dim)
        F = random_subspace(rng, BASIS, dim, irrational_rows=1)
        orth = presymlin.sigma_orthogonal(form, F)
        ker = form.kernel()
        assert orth.dim == dim - F.dim + F.intersect(ker).dim
        assert presymlin.sigma_orthogonal(form, orth) == F.add(ker)
        red = presymlin.natural_quotient(form, F, "orth")
        assert red.induced_form.rank() == red.quotient_dim
    # moment differential identities on model points
    checked = 0
    while checked < 30:
        d = rng.randint(1, 3)
        s = _random_bounded_slice(rng, BASIS, d)
        if s is None:
            continue
        checked += 1
        for st in models.support_strata(s):
            x = st.representative
            kernel, image = models.dphi_kernel_image(s, x)
            T = models.tangent_space(s, x)
            form = models.adapted_form(s.module, x)
            orbit = models.orbit_tangent(s.module, x)
            assert kernel == presymlin.sigma_orthogonal(form, orbit).intersect(T)
            assert image == models.leaf_stabilizer_algebra(s, x).annihilator()
    # slice-dimension identity for the symplectization on product points
    pm = WeightedModule(BASIS, 2, ((1, 0), (1, 1), (1, -1)), frozenset({1, 2}))
    for coords in ([(0, 0), (1, 0), (1, 0)], [(1, 0), (2, 0), (0, 0)],
                   [(1, 0), (0, 0), (0, 0)]):
        x = ModelPoint.from_coordinates(BASIS, coords)
        sd = models.slices_at(pm, x)
        assert (
            models.symplectization_slice_dim(pm, x)
            == sd.symplectic_dim + 2 * sd.null_dim
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(7, t0, "500 random (form, subspace) identities plus moment "
          "differential and symplectization slice identities: zero failures")


def test_criterion_08_nonconvexity_reproduction():
    t0 = time.perf_counter()
    circle = sampler.circle_spec([1.0, 1.0], 1.2)
    cloud = sampler.sample_image(circle, 10000, seed=2024)
    defect = sampler.convexity_defect(cloud, sampler.distance_to_image(circle))
    assert defect > 0.05
    control = sampler.affine_spec([1.0, 0.0], [-1.0, 1.0])
    control_cloud = sampler.sample_image(control, 10000, seed=2024)
    control_defect = sampler.convexity_defect(
        control_cloud, sampler.distance_to_image(control)
    )
    assert control_defect < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(8, t0, f"circle slice defect {defect:.3f} > 0.05, affine control "
          f"defect {control_defect:.1e} < 1e-9")


def test_criterion_09_deformation_nontriviality():
    t0 = time.perf_counter()
    family = [
        sampler.circle_spec([1.0, 1.0], 1.2),
        sampler.ellipse_spec([1.0, 1.0], 1.2, 0.9),
    ]
    report = sampler.deformation_scan(family, n=2000, seed=11)
    assert report.presymplectically_nontrivial
    constant = sampler.deformation_scan([family[0], family[0]], n=2000, seed=11)
    assert not constant.presymplectically_nontrivial
    _pass(9, t0, "circle/ellipse family not translate equivalent; constant "
          "family equivalent")


def test_criterion_10_contact_cone():
    t0 = time.perf_counter()
    s = build_affine_slice(BASIS, 2, [1, 0], direction_normals=[[1, 1]])
    P = s.moment_polytope()
    cone = polyhedra.homogenize(P)
    assert polyhedra.poly_equal(polyhedra.slice_at_level(cone, 2, 1), P)
    rng = np.random.default_rng(77)
    verts = np.array([[e.to_float() for e in v] for v in P.vrep.vertices])
    w = rng.random((10000, len(verts)))
    w /= w.sum(axis=1, keepdims=True)
    t = rng.uniform(0.0, 3.0, 10000)
    pts = np.concatenate([(w @ verts) * t[:, None], t[:, None]], axis=1)
    worst = 0.0
    for h in cone.halfspaces:
        normal = np.array([e.to_float() for e in h.normal])
        gap = pts @ normal - h.offset.to_float()
        worst = max(worst, float(np.maximum(0.0, -gap).max()))
    for h in cone.equalities:
        normal = np.array([e.to_float() for e in h.normal])
        worst = max(worst, float(np.abs(pts @ normal - h.offset.to_float()).max()))
    assert worst < 1e-9
    _pass(10, t0, f"homogenized segment: exact level-1 slice, sampled cone "
          f"residual {worst:.1e} < 1e-9")


def test_criterion_11_reproducibility(tmp_path):
    t0 = time.perf_counter()
    scenarios_dir = Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("segment.json", "quasifold.json", "circle_nonconvex.json"):
        out1 = tmp_path / (name + "-a")
        out2 = tmp_path / (name + "-b")
        assert cli_main(["run", str(scenarios_dir / name), "--out", str(out1)]) == 0
        assert cli_main(["run", str(scenarios_dir / name), "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for f in files1:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f
    _pass(11, t0, "reruns of segment, quasifold and sampling scenarios are "
          "byte-identical")
