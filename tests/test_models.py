import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from momentlab import lattice, linalg, models, polyhedra, presymlin
from momentlab.models import (
    ModelPoint,
    ModelError,
    SliceValidationError,
    WeightedModule,
    build_affine_slice,
    cleanness_at,
    dphi_kernel_image,
    leaf_stabilizer_algebra,
    local_cone,
    moment_quadratic,
    slices_at,
    stabilizer_algebra,
    standard_module,
    symplectization_slice_dim,
)
from momentlab.morse import full_critical_set
from momentlab.presymlin import DimensionMismatchError, Subspace
from momentlab.scalars import ScalarError, _Z

from conftest import (
    DOMAIN_BASES,
    dphi_rows_reference,
    form_pairing,
    greedy_extension,
    orbit_rows_reference,
    random_fraction,
    reference_product,
    reference_rank,
    reference_solve,
    standard_form,
    weight_pairing,
)
from test_polyhedra import intersect, orthant


# -- model helpers no report or CLI path reaches, kept here as test code -------------


def moment_component(module, xi, e):
    return linalg.dot(moment_quadratic(module, e), xi)


def hessian_quadratic(module, xi, v):
    """One half of sigma(xi(v), v) for a tangent vector v in interleaved
    (re, im) coordinates; exact, needs |v_j|^2 to stay in the span."""
    vec = linalg.as_vector(module.scalar_basis, v)
    if len(vec) != 2 * module.n_coords:
        raise ModelError("tangent vector has wrong length")
    acc = module.scalar_basis.zero()
    for j in range(module.n_coords):
        if j in module.masked:
            continue
        re, im = vec[2 * j], vec[2 * j + 1]
        sq = re * re + im * im
        acc = acc + (weight_pairing(module, j, xi) * sq).scale(Fraction(1, 2))
    return acc


@dataclass(frozen=True)
class LocalModelData:
    """Ingredients of the local normal form."""

    lam: tuple
    stabilizer: Subspace
    ideal: Subspace
    s_weights: tuple[tuple[int, ...], ...]
    v_dim: int
    complement: tuple
    q_dim: int

    def stabilizer_weight_multiset(self) -> tuple[tuple[Fraction, ...], ...]:
        return _restrict_weights(self.s_weights, self.stabilizer)


def _restrict_weights(weights: Sequence[Sequence[int]], h: Subspace):
    out = []
    for w in weights:
        row = tuple(
            linalg.dot(linalg.as_vector(h.scalar_basis, w), b).rational_value()
            if all(e.is_rational() for e in b)
            else None
            for b in h.rows
        )
        out.append(row)
    return tuple(sorted(out))


def build_local_model(basis, lam, stabilizer, s_weights, v_dim, ideal) -> LocalModelData:
    """Validated ingredients of the local normal form.  The intersection of
    the ideal with the stabilizer must act trivially on the symplectic slice;
    the complement splitting is chosen compatibly with the ideal."""
    lam_v = linalg.as_vector(basis, lam)
    d = stabilizer.ambient_dim
    if ideal.ambient_dim != d or len(lam_v) != d:
        raise ModelError("ingredient dimensions disagree")
    meet = ideal.intersect(stabilizer)
    for w in s_weights:
        wv = linalg.as_vector(basis, w)
        for b in meet.rows:
            if not linalg.dot(wv, b).is_zero():
                raise ModelError(
                    "invalid ingredients: the ideal meets the stabilizer in a "
                    "direction acting nontrivially on the symplectic slice"
                )
    # complement of the stabilizer, filled from the ideal first so that the
    # lift of (ideal + stabilizer)/stabilizer lands inside the ideal
    complement = greedy_extension(
        basis, d, stabilizer.rows, list(ideal.rows) + [linalg.unit(basis, d, i) for i in range(d)]
    )
    p_dim = ideal.add(stabilizer).dim - stabilizer.dim
    q_dim = (d - stabilizer.dim) - p_dim
    return LocalModelData(
        lam=lam_v,
        stabilizer=stabilizer,
        ideal=ideal,
        s_weights=tuple(tuple(w) for w in s_weights),
        v_dim=v_dim,
        complement=tuple(complement),
        q_dim=q_dim,
    )


def matches_point_data(data: LocalModelData, model, point: ModelPoint) -> bool:
    """Discrete-invariant comparison of the local model with the situation at
    an actual model point: moment value, stabilizer, null ideal, slice
    dimensions and stabilizer-restricted slice weights must all agree."""
    phi = moment_quadratic(model.module, point)
    if any(not (a - b).is_zero() for a, b in zip(phi, data.lam)):
        return False
    if stabilizer_algebra(model, point) != data.stabilizer:
        return False
    if model.null_ideal() != data.ideal:
        return False
    sd = slices_at(model, point)
    if sd.symplectic_dim != 2 * len(data.s_weights) or sd.null_dim != data.v_dim:
        return False
    if sd.symplectic_weights is None:
        return True
    return (
        _restrict_weights(sd.symplectic_weights, data.stabilizer)
        == data.stabilizer_weight_multiset()
    )


# -- example models -------------------------------------------------------------------


def segment_slice(basis):
    return build_affine_slice(basis, 2, [1, 0], direction_normals=[[1, 1]])


def quasifold_slice(basis):
    return build_affine_slice(basis, 2, [1, 0], direction_normals=[[1, "sqrt2"]])


def product_model(basis):
    return WeightedModule(basis, 2, ((1, 0), (1, 1), (1, -1)), frozenset({1, 2}))


def span(basis, d, rows):
    return Subspace.from_vectors(basis, d, rows)


# -- slice construction -----------------------------------------------------------


def test_build_affine_slice_examples(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    assert s.ideal == span(sqrt2_basis, 2, [[1, 1]])
    p = quasifold_slice(sqrt2_basis)
    assert p.ideal == span(sqrt2_basis, 2, [[1, "sqrt2"]])
    full = build_affine_slice(
        sqrt2_basis, 2, [1, 1], direction_vectors=[[1, 0], [0, 1]]
    )
    assert full.ideal.dim == 0


def test_affine_slice_equality_and_hash_ignore_computed_facts(sqrt2_basis):
    """A built slice and a hand-built one with the same data stay equal, with
    the same hash, as their domain rows, polytope and strata are computed."""
    s = build_affine_slice(sqrt2_basis, 3, [1, 1, 1], direction_normals=[[1, "sqrt2", 1]])
    t = models.AffineSlice(s.module, s.lam, s.direction, s.ideal)
    before = hash(s)
    assert s == t and hash(t) == before
    for compute in (lambda x: x.moment_polytope(), models.support_strata,
                    lambda x: x._domain_rows):
        compute(s)
        assert s == t and hash(s) == before == hash(t)
        assert s == models.AffineSlice(s.module, s.lam, s.direction, s.ideal)
    models.moment_image(t)
    assert s == t and hash(t) == before


def test_slice_facts_are_computed_once(sqrt2_basis, monkeypatch):
    """Across build_affine_slice, moment_image, local_cones_cut_out and
    support_strata, the moment polytope is one double description of the
    slice's domain rows, and no scalar route is taken: no
    intersect_halfspaces and no product of the ideal rows with lambda."""
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("_build", "intersect_halfspaces"):
        monkeypatch.setattr(polyhedra, name, counting(name, getattr(polyhedra, name)))
    monkeypatch.setattr(linalg, "_mat_vecs", counting("_mat_vecs", linalg._mat_vecs))
    s = build_affine_slice(sqrt2_basis, 4, [1, 2, 1, 1],
                           direction_normals=[[1, "sqrt2", 1, 0], [0, 1, 1, 1]])
    rep = models.moment_image(s)
    assert models.local_cones_cut_out(s)
    strata = models.support_strata(s)
    assert s.ideal.dim == 2 and calls == {"_build": 1}
    assert rep.polytope is s.moment_polytope()
    assert models.support_strata(s) is strata and len(strata) > 1


@pytest.mark.parametrize("field", ["direction_vectors", "direction_normals"])
def test_build_affine_slice_rejects_rows_of_the_wrong_length(sqrt2_basis, field):
    """Rows longer or shorter than the torus rank raise for both fields; a
    long normal used to be cut to length and a short one to raise
    IndexError."""
    for rows in ([[1, 1, 1]], [[1]]):
        with pytest.raises(DimensionMismatchError):
            build_affine_slice(sqrt2_basis, 2, [1, 0], **{field: rows})


def test_build_affine_slice_misses_image(sqrt2_basis):
    with pytest.raises(SliceValidationError, match="misses"):
        build_affine_slice(sqrt2_basis, 2, [-1, 0], direction_normals=[[1, 1]])


def test_build_affine_slice_non_transverse(sqrt2_basis):
    # the plane projects onto the zeroed coordinates {1, 2} with rank one
    # only, yet reaches their common face
    with pytest.raises(SliceValidationError, match=r"transverse.*\[1, 2\]"):
        build_affine_slice(
            sqrt2_basis, 3, [0, 1, 1],
            direction_vectors=[[1, 0, 0], [0, 1, 1]],
        )


def test_transversality_failure_names_the_smallest_face(rat_basis):
    # a segment from (0, 0, 0, 2) to (4/5, 2/5, 4/5, 0): the vertex zero set
    # {0, 1, 2} fails, and so does its proper subset {0, 1}, which comes
    # first in subset order
    with pytest.raises(SliceValidationError) as err:
        build_affine_slice(rat_basis, 4, [0, 0, 0, 2], direction_vectors=[[-2, -1, -2, 5]])
    assert str(err.value) == "slice is not transverse to the orthant face with zeros [0, 1]"


def brute_force_slice_verdict(basis, d, lam, vecs):
    """None when the slice is valid, else the validator's message, from a
    full-width rank test on every orthant face the polytope meets, in subset
    order."""
    W = Subspace.from_vectors(basis, d, vecs)
    lam_v = linalg.as_vector(basis, lam)
    P = models.AffineSlice(standard_module(basis, d), lam_v, W, W.annihilator()).moment_polytope()
    if P.is_empty or not all(
        any(v[j].sign() > 0 for v in P.vrep.vertices + P.vrep.rays_with_lines)
        for j in range(d)
    ):
        return "slice misses moment image"
    for r in range(1, d + 1):
        for T in itertools.combinations(range(d), r):
            if not any(all(v[j].is_zero() for j in T) for v in P.vrep.vertices):
                continue
            tangent = [linalg.unit(basis, d, j) for j in range(d) if j not in T]
            if reference_rank(list(W.rows) + tangent, d) != d:
                return f"slice is not transverse to the orthant face with zeros {list(T)}"
    return None


def test_transversality_matches_brute_force_scan(sqrt2_basis):
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(150):
        d = rng.randint(2, 5)
        vecs = []
        for _ in range(rng.randint(1, d - 1)):
            row = [rng.randint(-2, 2) for _ in range(d)]
            if rng.random() < 0.3:
                row[rng.randrange(d)] = sqrt2_basis.constant("sqrt2")
            vecs.append(row)
        lam = [rng.choice([0, 0, 1, 2]) for _ in range(d)]
        try:
            build_affine_slice(sqrt2_basis, d, lam, direction_vectors=vecs)
            got = None
        except SliceValidationError as e:
            got = str(e)
        assert got == brute_force_slice_verdict(sqrt2_basis, d, lam, vecs)
        outcomes.add(got if got is None else got.split(" with")[0])
    # the draws reach every outcome
    assert outcomes == {
        None, "slice misses moment image", "slice is not transverse to the orthant face"
    }


# -- null ideals -------------------------------------------------------------------


def test_null_ideal_cases(sqrt2_basis):
    assert segment_slice(sqrt2_basis).null_ideal() == span(sqrt2_basis, 2, [[1, 1]])
    assert product_model(sqrt2_basis).null_ideal() == span(sqrt2_basis, 2, [[0, 1]])
    full = build_affine_slice(
        sqrt2_basis, 2, [1, 1], direction_vectors=[[1, 0], [0, 1]]
    )
    assert full.null_ideal().dim == 0
    assert standard_module(sqrt2_basis, 2).null_ideal().dim == 0


# -- stabilizers and cleanness --------------------------------------------------------


def test_stabilizer_examples(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    x = ModelPoint.from_coordinates(sqrt2_basis, [("sqrt2", 0), (0, 0)])
    assert stabilizer_algebra(s, x) == span(sqrt2_basis, 2, [[0, 1]])
    origin = ModelPoint.from_coordinates(sqrt2_basis, [(0, 0), (0, 0)])
    assert stabilizer_algebra(standard_module(sqrt2_basis, 2), origin).dim == 2
    generic = ModelPoint.from_coordinates(sqrt2_basis, [(1, 0), (0, 1)])
    assert stabilizer_algebra(standard_module(sqrt2_basis, 2), generic).dim == 0


def test_leaf_stabilizer_examples(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    x = ModelPoint.from_coordinates(sqrt2_basis, [("sqrt2", 0), (0, 0)])
    assert leaf_stabilizer_algebra(s, x).dim == 2
    pm = product_model(sqrt2_basis)
    fixed_y = ModelPoint.from_coordinates(sqrt2_basis, [(0, 0), (1, 0), (1, 0)])
    assert leaf_stabilizer_algebra(pm, fixed_y).dim == 2
    # symplectic case: the leaf stabilizer is the plain stabilizer
    mod = standard_module(sqrt2_basis, 2)
    z = ModelPoint.from_coordinates(sqrt2_basis, [(1, 0), (0, 0)])
    assert leaf_stabilizer_algebra(mod, z) == stabilizer_algebra(mod, z)


def test_cleanness_on_slices_everywhere(sqrt2_basis):
    for s in (segment_slice(sqrt2_basis), quasifold_slice(sqrt2_basis)):
        for stratum in models.support_strata(s):
            report = cleanness_at(s, stratum.representative)
            assert report.clean
            assert report.leaf_stabilizer == report.stabilizer.add(report.null_ideal)


def test_cleanness_counterexample_product(sqrt2_basis):
    pm = product_model(sqrt2_basis)
    bad = ModelPoint.from_coordinates(sqrt2_basis, [(0, 0), (1, 0), (1, 0)])
    report = cleanness_at(pm, bad)
    assert not report.clean
    assert report.leaf_stabilizer == Subspace.full(sqrt2_basis, 2)
    assert report.stabilizer.dim == 0
    assert report.stabilizer_plus_ideal == span(sqrt2_basis, 2, [[0, 1]])
    good = ModelPoint.from_coordinates(sqrt2_basis, [(1, 0), (0, 0), (0, 0)])
    report2 = cleanness_at(pm, good)
    assert report2.clean
    assert report2.leaf_stabilizer == span(sqrt2_basis, 2, [[0, 1]])


# -- moment map and derivatives ----------------------------------------------------


def test_moment_quadratic_examples(sqrt2_basis):
    mod = WeightedModule(sqrt2_basis, 2, ((1, 0),))
    z = ModelPoint.from_coordinates(sqrt2_basis, [("sqrt2", 0)])
    xi = linalg.as_vector(sqrt2_basis, [1, 0])
    assert moment_component(mod, xi, z).rational_value() == 1
    origin = ModelPoint.from_coordinates(sqrt2_basis, [(0, 0)])
    assert all(e.is_zero() for e in moment_quadratic(mod, origin))
    std = standard_module(sqrt2_basis, 2)
    z2 = ModelPoint.from_coordinates(sqrt2_basis, [("sqrt2", 0), (0, 0)])
    phi = moment_quadratic(std, z2)
    assert [e.coeffs[0] for e in phi] == [1, 0]


def test_masked_coordinates_do_not_contribute(sqrt2_basis):
    pm = product_model(sqrt2_basis)
    x = ModelPoint.from_coordinates(sqrt2_basis, [(1, 0), (5, 0), (0, 7)])
    phi = moment_quadratic(pm, x)
    assert [e.coeffs[0] for e in phi] == [Fraction(1, 2), 0]


def test_hessian_examples(sqrt2_basis):
    mod = WeightedModule(sqrt2_basis, 2, ((0, -1),))
    xi = linalg.as_vector(sqrt2_basis, [0, 1])
    assert hessian_quadratic(mod, xi, [0, 0]).is_zero()
    assert hessian_quadratic(mod, xi, ["sqrt2", 0]).rational_value() == -1


def test_hessian_is_second_order_part(sqrt2_basis):
    # Phi^xi(e + v) - Phi^xi(e) - sigma(xi(e), v) = Hessian^xi(v), exactly
    rng = random.Random(120)
    mod = WeightedModule(sqrt2_basis, 2, ((1, 0), (1, -2)))
    form = standard_form(sqrt2_basis, 2)
    for _ in range(30):
        e = [random_fraction(rng) for _ in range(4)]
        v = [random_fraction(rng) for _ in range(4)]
        xi = linalg.as_vector(
            sqrt2_basis, [random_fraction(rng), random_fraction(rng)]
        )
        pe = ModelPoint.from_coordinates(
            sqrt2_basis, [(e[0], e[1]), (e[2], e[3])]
        )
        ev = [a + b for a, b in zip(e, v)]
        pev = ModelPoint.from_coordinates(
            sqrt2_basis, [(ev[0], ev[1]), (ev[2], ev[3])]
        )
        # infinitesimal action of xi at e, in interleaved coordinates
        xie = []
        for j, w in enumerate(mod.weights):
            pairing = weight_pairing(mod, j, xi)
            xie.extend([-pairing * Fraction(e[2 * j + 1]), pairing * Fraction(e[2 * j])])
        cross = form_pairing(
            form, linalg.as_vector(sqrt2_basis, xie), linalg.as_vector(sqrt2_basis, v)
        )
        lhs = (
            moment_component(mod, xi, pev)
            - moment_component(mod, xi, pe)
            - cross
        )
        assert lhs == hessian_quadratic(mod, xi, v)


def test_moment_component_is_half_form_pairing(sqrt2_basis):
    # the xi-component of the moment covector equals half the form pairing
    # of the infinitesimal action with the point, including masked blocks
    rng = random.Random(332)
    mod = WeightedModule(sqrt2_basis, 2, ((1, 0), (2, -1), (0, 3)), frozenset({2}))
    form = standard_form(sqrt2_basis, mod.n_coords, mod.masked)
    for _ in range(25):
        e = [random_fraction(rng) for _ in range(6)]
        xi = linalg.as_vector(
            sqrt2_basis, [random_fraction(rng), random_fraction(rng)]
        )
        point = ModelPoint.from_coordinates(
            sqrt2_basis, [(e[0], e[1]), (e[2], e[3]), (e[4], e[5])]
        )
        xie = []
        for j in range(3):
            pairing = weight_pairing(mod, j, xi)
            xie.extend(
                [-pairing * Fraction(e[2 * j + 1]), pairing * Fraction(e[2 * j])]
            )
        half_pairing = form_pairing(
            form, linalg.as_vector(sqrt2_basis, xie), linalg.as_vector(sqrt2_basis, e)
        ).scale(Fraction(1, 2))
        assert moment_component(mod, xi, point) == half_pairing


def test_hessian_is_half_second_difference(sqrt2_basis):
    # Phi^xi(e + v) - 2 Phi^xi(e) + Phi^xi(e - v) = 2 * Hessian^xi(v), exactly
    rng = random.Random(333)
    mod = WeightedModule(sqrt2_basis, 2, ((1, 0), (1, -2)))
    for _ in range(25):
        e = [random_fraction(rng) for _ in range(4)]
        v = [random_fraction(rng) for _ in range(4)]
        xi = linalg.as_vector(
            sqrt2_basis, [random_fraction(rng), random_fraction(rng)]
        )
        points = []
        for sign in (1, -1, 0):
            shifted = [a + sign * b for a, b in zip(e, v)]
            points.append(
                ModelPoint.from_coordinates(
                    sqrt2_basis, [(shifted[0], shifted[1]), (shifted[2], shifted[3])]
                )
            )
        plus, minus, center = points[0], points[1], points[2]
        second_diff = (
            moment_component(mod, xi, plus)
            - moment_component(mod, xi, center).scale(2)
            + moment_component(mod, xi, minus)
        )
        assert second_diff == hessian_quadratic(mod, xi, v).scale(2)


def fixed_decomposition(module, e):
    """Split a point into its component on zero-weight coordinates (fixed by
    the torus) plus the rest."""
    vec = linalg.as_vector(module.scalar_basis, e)
    if len(vec) != 2 * module.n_coords:
        raise ModelError("point has wrong length")
    zero = module.scalar_basis.zero()
    e0, e1 = list(vec), list(vec)
    for j in range(module.n_coords):
        fixed = all(a == 0 for a in module.weights[j])
        for slot in (2 * j, 2 * j + 1):
            if fixed:
                e1[slot] = zero
            else:
                e0[slot] = zero
    return tuple(e0), tuple(e1)


def test_fixed_decomposition_examples(sqrt2_basis):
    mod = WeightedModule(sqrt2_basis, 2, ((0, 0), (1, 0)))
    e0, e1 = fixed_decomposition(mod, [3, 1, 5, 7])
    assert [c.coeffs[0] for c in e0] == [3, 1, 0, 0]
    assert [c.coeffs[0] for c in e1] == [0, 0, 5, 7]
    allmoving = WeightedModule(sqrt2_basis, 2, ((1, 0), (0, 1)))
    e0, e1 = fixed_decomposition(allmoving, [3, 1, 5, 7])
    assert all(c.is_zero() for c in e0)
    zeros = fixed_decomposition(mod, [0, 0, 0, 0])
    assert all(c.is_zero() for v in zeros for c in v)


def test_dphi_kernel_image_examples(sqrt2_basis):
    std = standard_module(sqrt2_basis, 2)
    x = ModelPoint.from_coordinates(sqrt2_basis, [(1, 0), (0, 0)])
    kernel, image = dphi_kernel_image(std, x)
    assert kernel == span(
        sqrt2_basis, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert image == span(sqrt2_basis, 2, [[1, 0]])
    origin = ModelPoint.from_coordinates(sqrt2_basis, [(0, 0), (0, 0)])
    kernel0, image0 = dphi_kernel_image(std, origin)
    assert kernel0.dim == 4 and image0.dim == 0


def test_dphi_identities_random(sqrt2_basis):
    # kernel = sigma-orthogonal of the orbit; image = annihilator of the
    # leaf stabilizer, computed through independent routes
    rng = random.Random(2501)
    for _ in range(50):
        d = rng.randint(1, 3)
        slice_ = _random_bounded_slice(rng, sqrt2_basis, d)
        if slice_ is None:
            continue
        for stratum in models.support_strata(slice_):
            x = stratum.representative
            kernel, image = dphi_kernel_image(slice_, x)
            T = models.tangent_space(slice_, x)
            form = models.adapted_form(slice_.module, x)
            orbit = models.orbit_tangent(slice_.module, x)
            orth = presymlin.sigma_orthogonal(form, orbit).intersect(T)
            assert kernel == orth
            leaf_stab = leaf_stabilizer_algebra(slice_, x)
            assert image == leaf_stab.annihilator()


@pytest.mark.parametrize("field", ["q", "sqrt2", "three"])
def test_dphi_kernel_and_orbit_match_the_2n_column_rows(field):
    """The dphi kernel and the orbit tangent, assembled from systems with one
    column per supported coordinate, against the kernel of the 2n-column
    D phi rows and the span of the 2n-column orbit rows, on seeded modules
    with masked sets and at every stratum of bounded slices.  The kernel runs
    over Z exactly when those rows are rational, and a slice's image is the
    span of the units on the support met with W."""
    basis = DOMAIN_BASES[field]
    consts = [basis.one()] + [basis.constant(name) for name in basis.names[1:]]
    rng, seen = random.Random(3201), Counter()

    def check(model, x):
        module = model.module
        n = 2 * module.n_coords
        kernel, image = dphi_kernel_image(model, x)
        rows = dphi_rows_reference(module, x)
        assert kernel == Subspace.kernel_of(basis, n, rows)
        rational = all(e.is_rational() for r in rows for e in r)
        assert (kernel._D.step is _Z.step) == rational
        assert models.orbit_tangent(module, x) == Subspace.from_vectors(
            basis, n, orbit_rows_reference(module, x))
        if isinstance(model, models.AffineSlice):
            units = [[int(i == j) for i in range(model.torus_rank)] for j in x.support]
            assert image == span(basis, model.torus_rank, units).intersect(model.direction)
        seen["slice" if isinstance(model, models.AffineSlice) else "module"] += 1
        seen["rational" if rational else "irrational"] += 1
        seen["masked on the support"] += bool(module.masked & set(x.support))

    def scalar():
        if rng.random() < 0.2:
            return 0
        return basis.from_rational(random_fraction(rng)) + rng.choice(consts).scale(
            random_fraction(rng))

    for _ in range(60):
        d, n = rng.randint(1, 3), rng.randint(1, 5)
        weights = tuple(tuple(rng.choice([1, -1, 2, -2, 0]) for _ in range(d)) for _ in range(n))
        masked = frozenset(j for j in range(n) if rng.random() < 0.4)
        coords = [(scalar(), scalar()) for _ in range(n)]
        check(WeightedModule(basis, d, weights, masked), ModelPoint.from_coordinates(basis, coords))
    for _ in range(8):
        s = _random_bounded_slice(rng, basis, rng.randint(2, 4),
                                  irrational=field != "q" and rng.random() < 0.5)
        for stratum in models.support_strata(s) if s is not None else ():
            check(s, stratum.representative)
    keys = ["module", "slice", "rational", "masked on the support"]
    keys += ["irrational"] if field != "q" else []
    assert all(seen[k] >= 5 for k in keys), seen


def test_pointwise_subspaces_eliminate_at_most_the_support(sqrt2_basis, monkeypatch):
    """At every stratum of a rank-6 slice over Q(sqrt2), tangent_space,
    dphi_kernel_image and orbit_tangent hand scalars._eliminate no system
    with more columns than the point's support has coordinates, and some
    system with exactly that many."""
    s = build_affine_slice(sqrt2_basis, 6, [1, 1, 1, 1, 1, "1 + sqrt2"],
                           direction_normals=[[1] * 6, [1, -1, 0, 2, 0, "sqrt2"]])
    strata = models.support_strata(s)
    widths, real = [], linalg._eliminate

    def eliminate(D, rows, *args):
        widths.append(len(rows[0]) if rows else 0)
        return real(D, rows, *args)

    for module in (linalg, models):
        monkeypatch.setattr(module, "_eliminate", eliminate)
    full = 0
    for stratum in strata:
        x = stratum.representative
        widths.clear()
        models.tangent_space(s, x)
        dphi_kernel_image(s, x)
        models.orbit_tangent(s.module, x)
        assert widths and max(widths) <= len(x.support), (x.support, widths)
        full += max(widths) == len(x.support)
    assert len(strata) == full == 49


def _random_bounded_slice(rng, basis, d, irrational=False):
    """Random slice whose direction lies in the sum-zero hyperplane, so the
    moment polytope is bounded; retries until the validator accepts."""
    for _ in range(60):
        k = rng.randint(1, max(1, d - 1))
        vecs = []
        for i in range(d - k):
            row = [random_fraction(rng, 3) for _ in range(d - 1)]
            row.append(-sum(row))
            if irrational and i == 0:
                s2 = basis.constant("sqrt2")
                extra = [
                    s2.scale(random_fraction(rng, 2)) for _ in range(d - 1)
                ]
                extra.append(-sum(extra, basis.zero()))
                row = [basis.from_rational(Fraction(a)) + b for a, b in zip(row, extra)]
            vecs.append(row)
        lam = [Fraction(rng.randint(1, 4)) for _ in range(d)]
        try:
            return build_affine_slice(basis, d, lam, direction_vectors=vecs)
        except (SliceValidationError, ModelError):
            continue
    return None


def support_strata_by_scan(slice_):
    """Reference: each support S in canonical order tested coordinate by
    coordinate; realized when some vertex vanishes off S and every j in S is
    positive on a vertex or ray vanishing off S."""
    d = slice_.torus_rank
    P = slice_.moment_polytope()
    verts, rays = P.vrep.vertices, P.vrep.rays_with_lines
    out = []
    for r in range(d + 1):
        for S in itertools.combinations(range(d), r):
            comp = [j for j in range(d) if j not in S]
            fv = [v for v in verts if all(v[j].is_zero() for j in comp)]
            if not fv:
                continue
            fr = [w for w in rays if all(w[j].is_zero() for j in comp)]
            if all(
                any(v[j].sign() > 0 for v in fv) or any(w[j].sign() > 0 for w in fr)
                for j in S
            ):
                out.append((S, tuple(fv), tuple(fr)))
    return out


def _random_slice(rng, basis, field):
    """A bounded slice from _random_bounded_slice or, half the time, a slice
    with small integer (and sometimes sqrt2) directions that may be
    unbounded; None when the draw is rejected."""
    d = rng.randint(2, 5)
    if rng.random() < 0.5:
        return _random_bounded_slice(rng, basis, d, irrational=field == "sqrt2")
    vecs = []
    for _ in range(rng.randint(1, d - 1)):
        row = [rng.randint(-2, 2) for _ in range(d)]
        if field == "sqrt2" and rng.random() < 0.3:
            row[rng.randrange(d)] = basis.constant("sqrt2")
        vecs.append(row)
    lam = [rng.choice([0, 1, 2]) for _ in range(d)]
    try:
        return build_affine_slice(basis, d, lam, direction_vectors=vecs)
    except SliceValidationError:
        return None


@pytest.mark.parametrize("field", ["q", "sqrt2"])
def test_support_strata_match_subset_scan(field, rat_basis, sqrt2_basis):
    basis = sqrt2_basis if field == "sqrt2" else rat_basis
    rng = random.Random(1618)
    checked = unbounded = 0
    for _ in range(80):
        s = _random_slice(rng, basis, field)
        if s is None:
            continue
        got = [(st.support, st.face_vertices, st.face_rays) for st in models.support_strata(s)]
        assert got == support_strata_by_scan(s)
        checked += 1
        unbounded += not polyhedra.is_bounded(s.moment_polytope())
    assert checked >= 40 and unbounded >= 5


def coordinate_positive_somewhere(P, j):
    """Reference for build_affine_slice's reach test, on P's scalar V-rep."""
    return any(v[j].sign() > 0 for v in P.vrep.vertices + P.vrep.rays_with_lines)


def transverse(W, T):
    """Reference for the transversality test, one scalar rank per call:
    W + span{e_j : j not in T} is everything iff W's columns T have rank |T|."""
    return reference_rank([tuple(w[j] for j in T) for w in W.rows], len(T)) == len(T)


def slice_verdict_by_vrep(basis, d, lam, vecs):
    """Reference for build_affine_slice's checks, on P's scalar V-rep with
    per-call ranks: the message of the first failing check, or None."""
    W = Subspace.from_vectors(basis, d, vecs)
    s = models.AffineSlice(standard_module(basis, d), linalg.as_vector(basis, lam), W,
                           W.annihilator())
    P = s.moment_polytope()
    if P.is_empty or not all(coordinate_positive_somewhere(P, j) for j in range(d)):
        return "slice misses moment image"
    zero_sets = [{j for j in range(d) if v[j].is_zero()} for v in P.vrep.vertices]
    for r in range(1, d + 1):
        for T in itertools.combinations(range(d), r):
            if any(set(T) <= Z for Z in zero_sets) and not transverse(W, T):
                return f"slice is not transverse to the orthant face with zeros {list(T)}"
    return None


@pytest.mark.parametrize("name", sorted(DOMAIN_BASES))
def test_slice_checks_match_scalar_references(name):
    """On random slices over Z, Z[s] for three squares and Z[s1, s2]:
    build_affine_slice accepts or names the same failure as the checks on
    P's scalar V-rep; every column subset of the direction and the ideal
    rows has its scalar rank (reference_rank); the support strata (masks read
    off P's domain generators) are those of the V-rep scan; and the
    fixed-leaf strata of a bounded slice are those whose ideal columns have
    full rank by the scalar rank."""
    basis = DOMAIN_BASES[name]
    rng = random.Random(99 + len(name))
    consts = [basis.constant(c) for c in basis.names[1:]]
    seen = Counter()
    for _ in range(40 if consts[1:] else 70):
        d = rng.randint(2, 4)
        vecs = []
        for _ in range(rng.randint(1, d - 1)):
            row = [basis.from_rational(rng.randint(-2, 2)) for _ in range(d)]
            if consts and rng.random() < 0.4:
                row[rng.randrange(d)] = rng.choice(consts).scale(rng.choice([1, -1, Fraction(1, 2)]))
            vecs.append(row)
        lam = [rng.choice([0, 1, 2]) for _ in range(d)]
        want = slice_verdict_by_vrep(basis, d, lam, vecs)
        try:
            s = build_affine_slice(basis, d, lam, direction_vectors=vecs)
        except SliceValidationError as exc:
            assert str(exc) == want
            seen[want.split(" with")[0]] += 1
            continue
        assert want is None
        seen["valid"] += 1
        for r in range(d + 1):
            for T in itertools.combinations(range(d), r):
                cols = lambda rows: [tuple(a[j] for j in T) for a in rows]
                assert s.direction_rank(T) == reference_rank(cols(s.direction.rows), r)
                assert s.ideal_rank(T) == reference_rank(cols(s.ideal.rows), r)
        strata = models.support_strata(s)
        assert [(st.support, st.face_vertices, st.face_rays) for st in strata] == (
            support_strata_by_scan(s))
        if polyhedra.is_bounded(s.moment_polytope()):
            fixed = [st.support for st in strata
                     if not st.support or transverse(s.ideal, st.support)]
            assert [g.support for g in full_critical_set(s)[0]] == fixed
            seen["bounded"] += 1
    assert set(seen) == {"valid", "bounded", "slice misses moment image",
                         "slice is not transverse to the orthant face"}, seen


def barycenter_by_fraction_sums(stratum):
    """Reference: per coordinate, the Fraction sum of the face vertices'
    coefficients over their count, plus each face ray's coefficients."""
    basis, fv = stratum.scalar_basis, stratum.face_vertices
    mu = []
    for j in range(stratum.ambient_dim):
        coeffs = [Fraction(sum(c), len(fv)) for c in zip(*(v[j].coeffs for v in fv))]
        for r in stratum.face_rays:
            coeffs = [a + b for a, b in zip(coeffs, r[j].coeffs)]
        mu.append(basis.scalar(coeffs))
    return tuple(mu)


@pytest.mark.parametrize("field", ["q", "sqrt2"])
def test_support_strata_barycenters_match_fraction_sums(field, rat_basis, sqrt2_basis):
    basis = sqrt2_basis if field == "sqrt2" else rat_basis
    rng = random.Random(2718)
    strata = with_rays = 0
    for _ in range(60):
        s = _random_slice(rng, basis, field)
        if s is None:
            continue
        for st in models.support_strata(s):
            assert st.representative.mu == barycenter_by_fraction_sums(st)
            strata += 1
            with_rays += bool(st.face_rays)
    assert strata >= 100 and with_rays >= 10


# -- moment images ------------------------------------------------------------------


def test_moment_image_segment(sqrt2_basis):
    rep = models.moment_image(segment_slice(sqrt2_basis))
    vs, _ = polyhedra.enumerate_vertices(rep.polytope)
    coords = sorted(tuple(e.coeffs[0] for e in v) for v in vs)
    assert coords == [(0, 1), (1, 0)]
    assert rep.affine_span_matches
    assert rep.symplectization_identity
    assert rep.rational_polyhedral and rep.null_subgroup_closed


def test_moment_image_quasifold(sqrt2_basis):
    rep = models.moment_image(quasifold_slice(sqrt2_basis))
    vs, _ = polyhedra.enumerate_vertices(rep.polytope)
    got = {tuple(e.coeffs for e in v) for v in vs}
    assert got == {
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
        ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2))),
    }
    assert not rep.rational_polyhedral
    assert not rep.null_subgroup_closed
    ql = lattice.quasilattice(quasifold_slice(sqrt2_basis).ideal)
    assert ql.rank == 2 > ql.quotient_dim
    assert rep.affine_span_matches and rep.symplectization_identity


def test_moment_image_full_direction_is_orthant(sqrt2_basis):
    full = build_affine_slice(
        sqrt2_basis, 2, [1, 1], direction_vectors=[[1, 0], [0, 1]]
    )
    rep = models.moment_image(full)
    assert polyhedra.poly_equal(rep.polytope, orthant(sqrt2_basis, 2))


def cut_out_by_double_description(P, halfspaces, equalities):
    """Reference: the route moment_image took before, one double description
    of the given rows compared with P by mutual containment."""
    Q = polyhedra.intersect_halfspaces(P.scalar_basis, P.dim, halfspaces, equalities)
    return polyhedra.poly_equal(P, Q)


@pytest.mark.parametrize("field", ["q", "sqrt2", "three_surds"])
def test_cut_out_by_matches_double_description(field, rat_basis, sqrt2_basis,
                                               three_surds_basis):
    """polyhedra.cut_out_by against the double-description reference on
    random validated slices, bounded and unbounded, over the Z, Z[sqrt2] and
    scalar domains: the orthant cut by the plane, and three faulted systems
    per slice (an orthant row dropped, a plane offset shifted by 1, and
    x_j >= c added for a vertex coordinate c)."""
    basis = {"q": rat_basis, "sqrt2": sqrt2_basis, "three_surds": three_surds_basis}[field]
    # the scalar domain is slow: fewer slices there
    count = 8 if field == "three_surds" else 20
    rng = random.Random(5)
    slices, bounded, irrational, verdicts = 0, 0, 0, {True: 0, False: 0}
    while slices < count:
        s = _random_slice(rng, basis, "q" if field == "q" else "sqrt2")
        if s is None:
            continue
        slices += 1
        P = s.moment_polytope()
        bounded += polyhedra.is_bounded(P)
        d = s.torus_rank
        orth = [(linalg.unit(basis, d, j), 0) for j in range(d)]
        plane = [(a, linalg.dot(a, s.lam)) for a in s.ideal.rows]
        irrational += any(any(e.coeffs[1:]) for a, _ in plane for e in a)
        assert polyhedra.cut_out_by(P, orth, plane)
        assert cut_out_by_double_description(P, orth, plane)
        j, k = rng.randrange(d), rng.randrange(len(plane))
        c = rng.choice(P.vrep.vertices)[j]
        shifted = list(plane)
        shifted[k] = (plane[k][0], plane[k][1] + 1)
        for hs, eqs in [(orth[:j] + orth[j + 1:], plane), (orth, shifted),
                        (orth + [(linalg.unit(basis, d, j), c)], plane)]:
            got = polyhedra.cut_out_by(P, hs, eqs)
            assert got == cut_out_by_double_description(P, hs, eqs)
            verdicts[got] += 1
    assert 0 < bounded < slices
    assert (irrational > 0) == (field != "q")
    assert verdicts[True] and verdicts[False]


# -- local cones -------------------------------------------------------------------


def test_local_cone_examples(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    x = ModelPoint.from_coordinates(sqrt2_basis, [("sqrt2", 0), (0, 0)])
    cone = local_cone(s, x)
    vs, rays = polyhedra.enumerate_vertices(cone)
    assert [tuple(e.coeffs[0] for e in v) for v in vs] == [(1, 0)]
    assert len(rays) == 1
    # full support: no constraints beyond the affine plane
    mid = ModelPoint.from_coordinates(sqrt2_basis, [1, 1])
    free = local_cone(s, mid)
    base, direction = polyhedra.affine_span(free)
    assert direction == s.direction
    assert not free.halfspaces


def test_local_cones_intersection_is_polytope(sqrt2_basis):
    for s in (segment_slice(sqrt2_basis), quasifold_slice(sqrt2_basis)):
        P = s.moment_polytope()
        assert polyhedra.poly_equal(models.local_cones_intersection(s), P)


def scalar_plane_rows(s):
    """The plane lambda + W as scalar equalities <a, x> = <a, lambda>, one per
    ideal row."""
    return [(a, linalg.dot(a, s.lam)) for a in s.ideal.rows]


def scalar_plane_cut(s, coords):
    """Reference: the plane cut by x_j >= 0 for j in coords, the scalar route
    through intersect_halfspaces the slice's polyhedra once took."""
    basis, d = s.scalar_basis, s.torus_rank
    units = [(linalg.unit(basis, d, j), 0) for j in coords]
    return polyhedra.intersect_halfspaces(basis, d, units, scalar_plane_rows(s))


def pooled_coords(strata, d):
    """The coordinates outside some stratum's support, in the order the
    strata first leave them free."""
    return list(dict.fromkeys(j for st in strata for j in range(d) if j not in st.support))


@pytest.mark.parametrize("field", ["q", "sqrt2"])
def test_local_cones_cut_out_matches_double_description(field, rat_basis, sqrt2_basis,
                                                        monkeypatch):
    """The report's local-cones line, local_cones_cut_out, against the
    double-description reference on the scalar pooled system, on random
    slices: once with every stratum and once with each stratum dropped in
    turn."""
    basis = sqrt2_basis if field == "sqrt2" else rat_basis
    support_strata = models.support_strata
    rng = random.Random(31)
    slices, verdicts = 0, {True: 0, False: 0}
    while slices < 12:
        s = _random_slice(rng, basis, field)
        if s is None:
            continue
        slices += 1
        P, strata, d = s.moment_polytope(), support_strata(s), s.torus_rank
        eqs = scalar_plane_rows(s)
        for dropped in [None, *range(len(strata))]:
            kept = tuple(st for i, st in enumerate(strata) if i != dropped)
            monkeypatch.setattr(models, "support_strata", lambda slice_: kept)
            hs = [(linalg.unit(basis, d, j), 0) for j in pooled_coords(kept, d)]
            got = models.local_cones_cut_out(s)
            assert got == cut_out_by_double_description(P, hs, eqs)
            assert got == polyhedra.cut_out_by(P, hs, eqs)
            assert got or dropped is not None
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("field", ["q", "sqrt2", "three_surds"])
def test_slice_polyhedra_match_the_scalar_route(field, rat_basis, sqrt2_basis,
                                                three_surds_basis):
    """The moment polytope, every stratum's local cone and the local cones'
    intersection, built from the slice's domain rows, equal (==, and the same
    V-rep) the scalar route: intersect_halfspaces on the orthant's units and
    the scalar plane rows.  Each random slice runs as drawn and with lambda
    scaled, which scales the polytope: by 3 over Q, else by 1 + sqrt2/2,
    which makes the plane's offsets irrational.  The on-slice check refuses each stratum's
    representative, and the representative with one supported moment value
    doubled, exactly when a scalar plane row fails on it."""
    basis = {"q": rat_basis, "sqrt2": sqrt2_basis, "three_surds": three_surds_basis}[field]
    # two roots are slow: fewer slices there
    count = 6 if field == "three_surds" else 12
    rng = random.Random(7)
    slices, moved = 0, Counter()
    while slices < count:
        drawn = _random_slice(rng, basis, "q" if field == "q" else "sqrt2")
        if drawn is None:
            continue
        slices += 1
        factor = (basis.from_rational(3) if field == "q"
                  else basis.one() + basis.constant("sqrt2").scale(Fraction(1, 2)))
        scaled = build_affine_slice(basis, drawn.torus_rank, [x * factor for x in drawn.lam],
                                    direction_vectors=drawn.direction.rows)
        for s in (drawn, scaled):
            d, strata = s.torus_rank, models.support_strata(s)
            # the on-slice check first, before local_cone keeps any point
            for st in strata:
                points, mu = [st.representative], st.representative.mu
                for j in st.support[-1:]:
                    points.append(ModelPoint(st.support, mu[:j] + (mu[j].scale(2),) + mu[j + 1:]))
                for point in points:
                    phi = moment_quadratic(s.module, point)
                    on = all((linalg.dot(a, phi) - c).is_zero() for a, c in scalar_plane_rows(s))
                    try:
                        models._require_on_slice(s, point)
                        refused = False
                    except ModelError as e:
                        assert "does not lie on the slice" in str(e)
                        refused = True
                    assert refused != on
                    moved[refused] += 1
            pairs = [(s.moment_polytope(), scalar_plane_cut(s, range(d)))]
            for st in strata:
                pairs.append((local_cone(s, st.representative), scalar_plane_cut(
                    s, [j for j in range(d) if j not in st.support])))
            pairs.append((models.local_cones_intersection(s),
                          scalar_plane_cut(s, pooled_coords(strata, d))))
            for got, want in pairs:
                assert got == want and got.vrep == want.vrep
    assert moved[True] and moved[False]


def test_pooled_intersection_matches_cone_by_cone(sqrt2_basis):
    import functools

    tri = build_affine_slice(
        sqrt2_basis, 3, [1, 1, 1],
        direction_vectors=[[1, -1, 0], [0, 1, -1]],
    )
    for s in (segment_slice(sqrt2_basis), tri):
        chained = functools.reduce(
            intersect,
            [local_cone(s, st.representative) for st in models.support_strata(s)],
        )
        assert polyhedra.poly_equal(chained, models.local_cones_intersection(s))


def test_local_cone_sampler_cross_validation(sqrt2_basis):
    # float samples of the moment image near a stratum representative must
    # satisfy the exact local cone there; three nontrivial strata
    import numpy as np

    cases = []
    seg = segment_slice(sqrt2_basis)
    cases += [(seg, st) for st in models.support_strata(seg) if len(st.support) == 1]
    tri = build_affine_slice(
        sqrt2_basis, 3, [1, 1, 1],
        direction_vectors=[[1, -1, 0], [0, 1, -1]],
    )
    edge = [st for st in models.support_strata(tri) if len(st.support) == 2]
    cases.append((tri, edge[0]))
    assert len(cases) >= 3
    rng = np.random.default_rng(99)
    for s, stratum in cases:
        cone = local_cone(s, stratum.representative)
        P = s.moment_polytope()
        verts = np.array([[e.to_float() for e in v] for v in P.vrep.vertices])
        apex = np.array([e.to_float() for e in stratum.representative.mu])
        w = rng.random((4000, len(verts)))
        w /= w.sum(axis=1, keepdims=True)
        pts = w @ verts
        near = pts[np.linalg.norm(pts - apex, axis=1) < 0.4]
        assert len(near) > 0
        for h in cone.halfspaces:
            normal = np.array([e.to_float() for e in h.normal])
            assert (near @ normal - h.offset.to_float()).min() > -1e-9
        for h in cone.equalities:
            normal = np.array([e.to_float() for e in h.normal])
            assert np.abs(near @ normal - h.offset.to_float()).max() < 1e-9


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, "1", True, Fraction(2)],
                         ids=["half", "float", "string", "bool", "integral_fraction"])
def test_weights_that_are_not_integers_are_refused(entry, rat_basis):
    """A weight entry that is not an int is refused, naming its coordinate,
    bools as the cli refuses them: such weights are no torus action, and
    the pointwise systems multiply the weights as integers."""
    with pytest.raises(ModelError, match="weight of coordinate 1 is not a vector of integers"):
        WeightedModule(rat_basis, 1, ((1,), (entry,)))


def test_masked_index_range_boundary(rat_basis):
    """The library checks masked indices itself: the last coordinate is
    accepted, one past it and -1 are not."""
    weights = ((1, 0), (0, 1), (1, 1))
    assert WeightedModule(rat_basis, 2, weights, frozenset({2})).masked == {2}
    for j in (3, -1):
        with pytest.raises(ModelError, match="masked index out of range"):
            WeightedModule(rat_basis, 2, weights, frozenset({j}))


def test_off_slice_point_rejected(sqrt2_basis):
    """Every per-point entry point refuses a point off the slice, the closed
    forms too, which never build its tangent space."""
    s = segment_slice(sqrt2_basis)
    off = ModelPoint.from_coordinates(sqrt2_basis, [(2, 0), (0, 0)])
    for entry in (local_cone, cleanness_at, leaf_stabilizer_algebra, slices_at,
                  symplectization_slice_dim, lambda model, p: model.tangent(p)):
        with pytest.raises(ModelError, match="point does not lie on the slice"):
            entry(s, off)


@pytest.mark.parametrize("length", [2, 4])
def test_point_of_wrong_length_rejected(length, sqrt2_basis):
    """A point with one coordinate too few or too many is refused, naming
    both counts, by every per-point entry point, on the three-coordinate
    product module and on a three-coordinate slice, where it used to get
    answers or an IndexError."""
    pm = product_model(sqrt2_basis)
    s = build_affine_slice(sqrt2_basis, 3, [1, 0, 0], direction_normals=[[1, 1, 1]])
    x = ModelPoint.from_coordinates(sqrt2_basis, [1] + [0] * (length - 1))
    on_modules = (moment_quadratic, models.adapted_form, models.orbit_tangent)
    on_models = (dphi_kernel_image, stabilizer_algebra, leaf_stabilizer_algebra, cleanness_at,
                 slices_at, symplectization_slice_dim)
    on_slices = (models.tangent_space, local_cone, lambda model, p: model.tangent(p))
    cases = ([(f, pm) for f in on_modules + on_models]
             + [(f, s.module) for f in on_modules] + [(f, s) for f in on_models + on_slices])
    for entry, model in cases:
        with pytest.raises(ModelError, match=f"point has {length} coordinates, the model has 3"):
            entry(model, x)


def test_point_facts_are_computed_once(sqrt2_basis, monkeypatch):
    """At one point of a slice, the on-slice check (one moment covector) runs
    once across cleanness_at, leaf_stabilizer_algebra, slices_at, tangent,
    dphi_kernel_image and local_cone.  The first three read the weights on
    the support: they build neither a sigma-orthogonal nor the tangent
    space.  A point off the slice is never kept: every call checks it again
    and refuses it."""
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(models, "moment_quadratic",
                        counting("moment", models.moment_quadratic))
    monkeypatch.setattr(presymlin, "sigma_orthogonal",
                        counting("sigma", presymlin.sigma_orthogonal))
    monkeypatch.setattr(models.AffineSlice, "tangent",
                        counting("tangent", models.AffineSlice.tangent))
    s = quasifold_slice(sqrt2_basis)
    x = ModelPoint.from_coordinates(sqrt2_basis, [("sqrt2", 0), (0, 0)])
    leaf = leaf_stabilizer_algebra(s, x)
    assert cleanness_at(s, x).leaf_stabilizer == leaf
    slices_at(s, x)
    assert calls == {"moment": 1}
    s.tangent(x)
    dphi_kernel_image(s, x)
    local_cone(s, x)
    assert calls == {"moment": 1, "tangent": 1}
    off = ModelPoint.from_coordinates(sqrt2_basis, [(2, 0), (0, 0)])
    for check in (s.tangent, lambda p: dphi_kernel_image(s, p), lambda p: local_cone(s, p)):
        with pytest.raises(ModelError, match="point does not lie on the slice"):
            check(off)
    assert calls["moment"] == 4


# -- slice data --------------------------------------------------------------------


def test_slices_at_segment_point(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    x = ModelPoint.from_coordinates(sqrt2_basis, [("sqrt2", 0), (0, 0)])
    sd = slices_at(s, x)
    assert sd.symplectic_dim == 2
    assert sd.symplectic_weights == ((0, 1),)
    assert sd.null_dim == 0


def test_slices_at_fixed_point_of_module(sqrt2_basis):
    mod = WeightedModule(sqrt2_basis, 2, ((1, 0), (0, 1), (1, 1)))
    origin = ModelPoint.from_coordinates(sqrt2_basis, [(0, 0), (0, 0), (0, 0)])
    sd = slices_at(mod, origin)
    assert sd.symplectic_dim == 6
    assert sd.symplectic_weights == ((1, 0), (0, 1), (1, 1))
    assert sd.null_dim == 0


def test_slices_at_product_points_and_symplectization(sqrt2_basis):
    pm = product_model(sqrt2_basis)
    v_zero = ModelPoint.from_coordinates(sqrt2_basis, [(1, 0), (0, 0), (0, 0)])
    sd = slices_at(pm, v_zero)
    assert sd.null_dim == 4
    moved = ModelPoint.from_coordinates(sqrt2_basis, [(0, 0), (1, 0), (1, 0)])
    sd2 = slices_at(pm, moved)
    assert sd2.symplectic_dim == 2 and sd2.null_dim == 2
    for point, data in ((v_zero, sd), (moved, sd2)):
        assert (
            symplectization_slice_dim(pm, point)
            == data.symplectic_dim + 2 * data.null_dim
        )


def coordinates_in_basis(vectors, basis_rows, basis):
    """Coordinates of each vector with respect to the given basis rows."""
    out = reference_solve(basis_rows, vectors, basis)
    if None in out:
        raise ScalarError("vector does not lie in the span of the basis")
    return [tuple(x) for x in out]


def symplectization_quotient_dim(model, x):
    """symplectization_slice_dim through natural_quotient's reduction: the
    dimension of the symplectic quotient of the enlarged orbit tangent's
    sigma-orthogonal, built with representatives and a projection."""
    if isinstance(model, models.AffineSlice):
        module, T = model.module, models.tangent_space(model, x)
    else:
        module, T = model, Subspace.full(model.scalar_basis, 2 * model.n_coords)
    basis, t_rows = module.scalar_basis, list(T.rows)
    restricted = models.adapted_form(module, x).restrict(t_rows)
    orbit = models.orbit_tangent(module, x)
    F = Subspace.from_vectors(
        basis, T.dim, coordinates_in_basis(list(orbit.rows), t_rows, basis))
    return presymlin.natural_quotient(*presymlin.symplectization(restricted, F), "orth").quotient_dim


PRODUCT_POINTS = {
    "rational": [[(0, 0), (1, 0), (1, 0)], [(1, 0), (2, 0), (0, 0)], [(1, 0), (0, 0), (0, 0)],
                 [(0, 0), (0, 0), (0, 0)], [(1, -1), (0, 3), (2, 1)]],
    "sqrt2": [[("sqrt2", 0), (1, 0), (0, 0)], [(0, "sqrt2"), (0, 0), (1, 1)]],
}


@pytest.mark.parametrize("field", ["rational", "sqrt2"])
def test_symplectization_slice_dim_matches_natural_quotient(field, rat_basis, sqrt2_basis):
    basis = rat_basis if field == "rational" else sqrt2_basis
    pm = product_model(basis)
    points = PRODUCT_POINTS["rational"] + (PRODUCT_POINTS["sqrt2"] if field == "sqrt2" else [])
    for coords in points:
        x = ModelPoint.from_coordinates(basis, coords)
        assert symplectization_slice_dim(pm, x) == symplectization_quotient_dim(pm, x)
    rng = random.Random(1207 if field == "rational" else 1208)
    strata = 0
    for _ in range(12):
        s = _random_bounded_slice(rng, basis, rng.randint(2, 4),
                                  irrational=field == "sqrt2" and rng.random() < 0.5)
        if s is None:
            continue
        for stratum in models.support_strata(s):
            x = stratum.representative
            assert symplectization_slice_dim(s, x) == symplectization_quotient_dim(s, x)
            strata += 1
    assert strata >= 20


def slice_reference(model, x):
    """Symplectic slice dimension and line weights through the reduction's
    projection: representatives of D/(D ∩ D^σ) from a greedy extension, a
    projection onto their coordinates from a completed basis and solves, and
    the rank of the slots' projected images."""
    module, T = model.module, model.tangent(x)
    restricted, F = models._tangent_model(model, x)
    basis, n = restricted.scalar_basis, restricted.dim
    D = presymlin.sigma_orthogonal(restricted, F)
    radical = D.intersect(presymlin.sigma_orthogonal(restricted, D))
    reps = greedy_extension(basis, n, radical.rows, D.rows)
    units = [linalg.unit(basis, n, i) for i in range(n)]
    full = list(radical.rows) + reps
    full += greedy_extension(basis, n, full, units)
    # the coordinates of the units are the columns of the inverse
    inverse_columns = reference_solve(full, units, basis)
    projection = [tuple(c[radical.dim + i] for c in inverse_columns) for i in range(len(reps))]
    candidates = [j for j in range(module.n_coords)
                  if j not in x.support and j not in module.masked]
    if 2 * len(candidates) != len(reps):
        return len(reps), None
    slots = [linalg.unit(basis, 2 * module.n_coords, slot)
             for j in candidates for slot in (2 * j, 2 * j + 1)]
    coords = reference_solve(T.rows, slots, basis)
    if None in coords or not all(D.contains(c) for c in coords):
        return len(reps), None
    images = [reference_product(projection, c, basis) for c in coords]
    if reference_rank(images, len(reps)) != len(reps):
        return len(reps), None
    return len(reps), tuple(tuple(module.weights[j]) for j in candidates)


@pytest.mark.parametrize("field", ["rational", "sqrt2"])
def test_slices_at_matches_projection_reference(field, rat_basis, sqrt2_basis):
    basis = rat_basis if field == "rational" else sqrt2_basis

    def check(model, x):
        sd = slices_at(model, x)
        want = slice_reference(model, x)
        assert (sd.symplectic_dim, sd.symplectic_weights) == want

    for weights, masked in ((((1, 0), (0, 1), (1, 1)), ()), (((1, 0), (1, 1), (1, -1)), (1, 2)),
                            (((2, -1), (0, 3)), (0,))):
        module = WeightedModule(basis, 2, weights, frozenset(masked))
        check(module, ModelPoint.from_coordinates(basis, [0] * len(weights)))
    pm = product_model(basis)
    points = PRODUCT_POINTS["rational"] + (PRODUCT_POINTS["sqrt2"] if field == "sqrt2" else [])
    for coords in points:
        check(pm, ModelPoint.from_coordinates(basis, coords))
    rng = random.Random(1501 if field == "rational" else 1502)
    strata = 0
    for _ in range(12):
        s = _random_bounded_slice(rng, basis, rng.randint(2, 4),
                                  irrational=field == "sqrt2" and rng.random() < 0.5)
        if s is None:
            continue
        for stratum in models.support_strata(s):
            check(s, stratum.representative)
            strata += 1
    assert strata >= 20


@st.composite
def small_scalars(draw, basis):
    """a + b * r for small integers a, b and r one of the basis' constants."""
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    name = draw(st.sampled_from(basis.names))
    return basis.from_rational(a) + (basis.one() if name == "one" else basis.constant(name)).scale(b)


@st.composite
def module_points(draw, basis):
    """A weighted module with a masked set, and one of its points."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    # the weights shrink towards 1, not to the zero weight, which fixes every point
    entries = st.sampled_from([1, -1, 2, -2, 0])
    weights = tuple(tuple(draw(entries) for _ in range(d)) for _ in range(n))
    masked = frozenset(j for j in range(n) if draw(st.booleans()))
    coords = [(draw(small_scalars(basis)), draw(small_scalars(basis)))
              if draw(st.booleans()) else 0 for _ in range(n)]
    module = WeightedModule(basis, d, weights, masked)
    return [(module, ModelPoint.from_coordinates(basis, coords))]


@st.composite
def slice_points(draw, basis):
    """A validated bounded slice, its direction rows summing to zero and
    lambda in the open orthant, and every stratum's representative."""
    d = draw(st.integers(2, 3))
    rows = []
    for _ in range(draw(st.integers(1, d - 1))):
        row = [draw(small_scalars(basis)) for _ in range(d - 1)]
        rows.append(row + [-sum(row, basis.zero())])
    lam = [draw(st.integers(1, 3)) for _ in range(d)]
    try:
        s = build_affine_slice(basis, d, lam, direction_vectors=rows)
    except SliceValidationError:
        assume(False)
    return [(s, st_.representative) for st_ in models.support_strata(s)]


def two_d_leaf_stabilizer(model, x):
    """The leaf stabilizer by the adapted frame in real dimension 2n: the
    leaf tangent T ∩ T^σ, for T the model's tangent space, and the xi whose
    action vector, <alpha_j, xi> in the angular slot of each supported j,
    every functional vanishing on the leaf tangent kills."""
    module, basis = model.module, model.scalar_basis
    T = model.tangent(x)
    leaf = T.intersect(presymlin.sigma_orthogonal(models.adapted_form(module, x), T))
    rows = [[sum((phi[2 * j + 1].scale(module.weights[j][k]) for j in x.support), basis.zero())
             for k in range(module.torus_rank)] for phi in leaf.annihilator().rows]
    return Subspace.kernel_of(basis, module.torus_rank, rows)


@pytest.mark.parametrize("field", ["q", "sqrt2", "three"])
def test_closed_forms_match_the_2d_route(field):
    """cleanness_at, leaf_stabilizer_algebra and slices_at, read off the
    weights on the support, against the adapted frame in dimension 2n: the
    leaf stabilizer through the leaf tangent, cleanness as its equality with
    stabilizer + null ideal, the symplectic slice and its weights through
    slice_reference's projection, and the null slice as the form's kernel
    beyond the orbit in the tangent model.  The draws reach points that are
    not clean and points whose slice weights are not named."""
    basis, seen = DOMAIN_BASES[field], Counter()

    def check(cases):
        for model, x in cases:
            report, sd = cleanness_at(model, x), slices_at(model, x)
            leaf = two_d_leaf_stabilizer(model, x)
            stab_ideal = Subspace.kernel_of(
                basis, model.torus_rank, [model.module.weights[j] for j in x.support]
            ).add(model.null_ideal())
            assert leaf_stabilizer_algebra(model, x) == report.leaf_stabilizer == leaf
            assert report.stabilizer_plus_ideal == stab_ideal
            assert report.clean == (leaf == stab_ideal)
            assert (sd.symplectic_dim, sd.symplectic_weights) == slice_reference(model, x)
            restricted, F = models._tangent_model(model, x)
            assert sd.null_dim == F.add(restricted.kernel()).dim - F.dim
            seen["slice" if isinstance(model, models.AffineSlice) else "module"] += 1
            seen["not clean"] += not report.clean
            seen["no weights"] += sd.symplectic_weights is None

    for draws, count in ((module_points(basis), 80), (slice_points(basis), 6)):
        @given(draws)
        @settings(max_examples=count, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
        def run(cases):
            check(cases)

        run()
    assert all(seen[k] for k in ("slice", "module", "not clean", "no weights")), seen


@pytest.mark.parametrize("field", ["rational", "sqrt2"])
def test_line_slots_lie_in_d_and_pair_nondegenerately(field, rat_basis, sqrt2_basis):
    """The premises of slices_at's closed form, which names the slice by the
    unsupported unmasked lines: at every point of the model families, the
    unit vectors of their slots lie in the tangent space, pair to zero with
    the orbit tangent under the adapted form, and have a Gram matrix of full
    rank."""
    basis = rat_basis if field == "rational" else sqrt2_basis

    def check(model, x):
        module = model.module
        slots = [linalg.unit(basis, 2 * module.n_coords, slot)
                 for j in range(module.n_coords) if j not in x.support and j not in module.masked
                 for slot in (2 * j, 2 * j + 1)]
        T = model.tangent(x)
        form = models.adapted_form(module, x)
        orbit = models.orbit_tangent(module, x)
        assert all(T.contains(u) for u in slots)
        assert all(form_pairing(form, u, w).is_zero() for u in slots for w in orbit.rows)
        gram = [tuple(form_pairing(form, u, v) for v in slots) for u in slots]
        assert reference_rank(gram, len(slots)) == len(slots)
        return len(slots)

    pm = product_model(basis)
    points = PRODUCT_POINTS["rational"] + (PRODUCT_POINTS["sqrt2"] if field == "sqrt2" else [])
    total = sum(check(pm, ModelPoint.from_coordinates(basis, coords)) for coords in points)
    rng = random.Random(1503 if field == "rational" else 1504)
    strata = 0
    for _ in range(20):
        s = _random_slice(rng, basis, field)
        if s is None:
            continue
        for stratum in models.support_strata(s):
            total += check(s, stratum.representative)
            strata += 1
    assert strata >= 20 and total >= 40


def test_slices_at_leafwise_transitive_has_no_null_slice(sqrt2_basis):
    rng = random.Random(99)
    for _ in range(20):
        d = rng.randint(2, 3)
        s = _random_bounded_slice(rng, sqrt2_basis, d)
        if s is None:
            continue
        for stratum in models.support_strata(s):
            assert slices_at(s, stratum.representative).null_dim == 0


# -- local normal-form data -----------------------------------------------------------


def test_build_local_model_matches_segment_point(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    x = ModelPoint.from_coordinates(sqrt2_basis, [("sqrt2", 0), (0, 0)])
    data = build_local_model(
        sqrt2_basis,
        [1, 0],
        stabilizer=span(sqrt2_basis, 2, [[0, 1]]),
        s_weights=[(0, 1)],
        v_dim=0,
        ideal=span(sqrt2_basis, 2, [[1, 1]]),
    )
    assert matches_point_data(data, s, x)
    # the compatible complement lands inside the ideal
    assert all(data.ideal.contains(v) for v in data.complement)


def test_build_local_model_invalid_ingredients(sqrt2_basis):
    with pytest.raises(ModelError, match="ingredients"):
        build_local_model(
            sqrt2_basis,
            [0, 0],
            stabilizer=span(sqrt2_basis, 2, [[0, 1]]),
            s_weights=[(0, 1)],
            v_dim=0,
            ideal=span(sqrt2_basis, 2, [[0, 1]]),
        )


def test_module_form_kernel_is_masked_block(sqrt2_basis):
    pm = product_model(sqrt2_basis)
    ker = standard_form(sqrt2_basis, pm.n_coords, pm.masked).kernel()
    expected = span(
        sqrt2_basis,
        6,
        [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
    )
    assert ker == expected


def test_moment_image_random_invariants(sqrt2_basis):
    # affine span, symplectization identity, rationality <-> closedness and
    # cleanness across strata on a random battery mixing rational and
    # sqrt2-irrational directions
    rng = random.Random(60601)
    done = 0
    while done < 30:
        d = rng.randint(2, 5)
        s = _random_bounded_slice(rng, sqrt2_basis, d, irrational=rng.random() < 0.5)
        if s is None:
            continue
        done += 1
        rep = models.moment_image(s)
        assert rep.affine_span_matches
        assert rep.symplectization_identity
        assert rep.rationality_consistent
        for stratum in models.support_strata(s):
            report = cleanness_at(s, stratum.representative)
            assert report.clean
            assert report.leaf_stabilizer == report.stabilizer.add(report.null_ideal)


def test_build_local_model_symplectic_case(sqrt2_basis):
    data = build_local_model(
        sqrt2_basis,
        [1, 2],
        stabilizer=Subspace.zero(sqrt2_basis, 2),
        s_weights=[],
        v_dim=0,
        ideal=Subspace.zero(sqrt2_basis, 2),
    )
    assert data.q_dim == 2 and data.v_dim == 0
