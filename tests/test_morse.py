import random
from collections import Counter
from fractions import Fraction

import pytest

from momentlab import linalg, models, polyhedra
from momentlab.models import NotApplicableError
from momentlab.presymlin import Subspace
from momentlab.scalars import _Z
from momentlab.morse import (
    MorseError,
    critical_set,
    full_critical_set,
    morse_bott_check,
)

from conftest import random_fraction, reference_kernel, reference_product, reference_rank, reference_solve
from test_models import (
    _random_bounded_slice,
    hessian_quadratic,
    product_model,
    quasifold_slice,
    segment_slice,
)
from test_polyhedra import from_generators


def face_polyhedron(stratum):
    """The face of the moment polytope carrying the stratum."""
    return from_generators(
        stratum.scalar_basis, stratum.ambient_dim,
        [list(v) for v in stratum.face_vertices],
        [list(r) for r in stratum.face_rays],
    )


def test_segment_critical_set(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    strata = critical_set(s, [1, 0])
    assert [st.support for st in strata] == [(0,), (1,)]
    by_support = {st.support: st for st in strata}
    assert by_support[(0,)].index == 2
    assert [e.coeffs[0] for e in by_support[(0,)].eta] == [0, -1]
    assert by_support[(1,)].index == 0
    assert [e.coeffs[0] for e in by_support[(1,)].eta] == [1, 0]
    # both strata are circles over endpoint images
    assert all(st.dimension == 1 for st in strata)
    faces = {st.support: face_polyhedron(st) for st in models.support_strata(s)}
    for st in strata:
        vs, _ = polyhedra.enumerate_vertices(faces[st.support])
        assert len(vs) == 1


def test_xi_in_ideal_makes_everything_critical(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    strata = critical_set(s, [1, 1])
    assert [st.support for st in strata] == [(0,), (1,), (0, 1)]
    assert all(e.is_zero() for st in strata for e in st.eta)


def test_zero_xi_is_everywhere_critical(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    strata = critical_set(s, [0, 0])
    assert [st.support for st in strata] == [(0,), (1,), (0, 1)]
    assert all(st.index == 0 for st in strata)


def morse_index(slice_, xi, support) -> int:
    """Index of the moment component of xi along the stratum with the given
    support, as critical_set gives it."""
    indices = {s.support: s.index for s in critical_set(slice_, xi)}
    key = tuple(sorted(support))
    if key in indices:
        return indices[key]
    if all(s.support != key for s in models.support_strata(slice_)):
        raise MorseError(f"no stratum with support {key} on the slice")
    raise MorseError(f"stratum {key} is not critical for xi")


def test_morse_index_errors(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    assert morse_index(s, [1, 0], (0,)) == 2
    assert morse_index(s, [1, 0], (1,)) == 0
    with pytest.raises(MorseError, match="not critical"):
        morse_index(s, [1, 0], (0, 1))
    with pytest.raises(MorseError, match="no stratum"):
        morse_index(s, [1, 0], (5,))


def test_index_zero_when_all_pairings_positive(sqrt2_basis):
    # xi = (1, 2): on support {0}, eta = (0, 1) pairs +1 with the normal
    s = segment_slice(sqrt2_basis)
    strata = {st.support: st for st in critical_set(s, [1, 2])}
    assert strata[(0,)].index == 0


def test_morse_bott_check_segment(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    assert morse_bott_check(s, [1, 0]).is_morse_bott
    report = morse_bott_check(s, [1, 1])
    assert report.is_morse_bott  # constant component, vacuously Morse-Bott
    assert all(res is not None for _, res in report.resolutions)


def test_morse_bott_not_applicable_to_product_models(sqrt2_basis):
    with pytest.raises(NotApplicableError, match="slice models only"):
        morse_bott_check(product_model(sqrt2_basis), [1, 0])


def test_full_critical_set_segment(sqrt2_basis):
    s = segment_slice(sqrt2_basis)
    strata, check = full_critical_set(s)
    images = sorted(tuple(e.coeffs[0] for e in st.image) for st in strata)
    assert images == [(0, 1), (1, 0)]
    assert check.hull_equals_polytope
    assert check.fibres_are_single_strata


def test_full_critical_set_quasifold(sqrt2_basis):
    s = quasifold_slice(sqrt2_basis)
    strata, check = full_critical_set(s)
    images = sorted(tuple(e.coeffs for e in st.image) for st in strata)
    assert images == [
        (
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1, 2)),
        ),
        (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0)),
        ),
    ]
    assert check.hull_equals_polytope and check.fibres_are_single_strata


def test_full_critical_set_requires_bounded(sqrt2_basis):
    full = models.build_affine_slice(
        sqrt2_basis, 2, [1, 1], direction_vectors=[[1, 0], [0, 1]]
    )
    with pytest.raises(MorseError, match="unbounded"):
        full_critical_set(full)


def test_critical_set_invariant_under_ideal_shifts(sqrt2_basis):
    rng = random.Random(31415)
    for _ in range(25):
        d = rng.randint(2, 4)
        s = _random_bounded_slice(rng, sqrt2_basis, d)
        if s is None or s.ideal.dim == 0:
            continue
        xi = [random_fraction(rng) for _ in range(d)]
        zeta = s.ideal.rows[rng.randrange(s.ideal.dim)]
        c = random_fraction(rng)
        shifted = [
            linalg.as_vector(sqrt2_basis, xi)[k] + zeta[k].scale(c)
            for k in range(d)
        ]
        a = critical_set(s, xi)
        b = critical_set(s, shifted)
        assert [st.support for st in a] == [st.support for st in b]
        assert [st.index for st in a] == [st.index for st in b]


def test_index_accounting(sqrt2_basis):
    rng = random.Random(8128)
    for _ in range(25):
        d = rng.randint(2, 4)
        s = _random_bounded_slice(rng, sqrt2_basis, d)
        if s is None:
            continue
        xi = [random_fraction(rng) for _ in range(d)]
        neg = [linalg.as_vector(sqrt2_basis, xi)[k].scale(-1) for k in range(d)]
        plus = {st.support: st for st in critical_set(s, xi)}
        minus = {st.support: st for st in critical_set(s, neg)}
        assert set(plus) == set(minus)
        for supp, st in plus.items():
            assert st.index % 2 == 0
            nonzero = sum(1 for _, p in st.normal_weights if p.sign() != 0)
            assert st.index + minus[supp].index == 2 * nonzero


def test_hessian_signs_on_stratum(sqrt2_basis):
    # stratum {0} of the segment slice at x = (sqrt2, 0), xi = (1, 0):
    # the Hessian vanishes along the stratum tangent (angular direction)
    # and is negative on the normal complex line, matching index 2
    s = segment_slice(sqrt2_basis)
    strata = {st.support: st for st in critical_set(s, [1, 0])}
    eta = strata[(0,)].eta
    mod = s.module
    along = hessian_quadratic(mod, eta, [0, "sqrt2", 0, 0])
    assert along.is_zero()
    normal_x = hessian_quadratic(mod, eta, [0, 0, 1, 0])
    normal_y = hessian_quadratic(mod, eta, [0, 0, 0, 1])
    assert normal_x.sign() < 0 and normal_y.sign() < 0


def test_vertex_stratum_connectivity_sampled(sqrt2_basis):
    # a vertex stratum of the segment slice is a single circle upstairs;
    # sampled lifts cover its phase densely (model connectivity fact)
    import numpy as np
    from momentlab import sampler

    spec = sampler.affine_spec([1.0, 0.0], [-1.0, 1.0])
    angles = []
    for k in range(600):
        z = sampler.lift_to_slice(spec, [1.0, 0.0], angles=k)
        assert abs(z[1]) == 0.0
        angles.append(np.angle(z[0]))
    angles = np.sort(np.array(angles))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    assert gaps.max() < 0.25


def test_vertex_hull_identity_random(sqrt2_basis):
    rng = random.Random(2718281)
    done = 0
    while done < 12:
        d = rng.randint(2, 4)
        s = _random_bounded_slice(rng, sqrt2_basis, d, irrational=rng.random() < 0.5)
        if s is None:
            continue
        P = s.moment_polytope()
        if not polyhedra.is_bounded(P):
            continue
        done += 1
        _, check = full_critical_set(s)
        assert check.hull_equals_polytope
        assert check.fibres_are_single_strata


def hull_equals_by_double_description(P, strata):
    """Reference: the route full_critical_set took before, the hull of the
    images from one double description compared with P by containment."""
    hull = from_generators(P.scalar_basis, P.dim, [s.image for s in strata])
    return polyhedra.poly_equal(hull, P)


@pytest.mark.parametrize("field", ["q", "sqrt2", "three_surds"])
def test_vertex_hull_check_matches_double_description(field, monkeypatch, rat_basis,
                                                      sqrt2_basis, three_surds_basis):
    """The vertex check of full_critical_set against the double-description
    reference on random bounded slices, as given and with each fixed-leaf
    stratum dropped in turn from the strata it sees."""
    basis = {"q": rat_basis, "sqrt2": sqrt2_basis, "three_surds": three_surds_basis}[field]
    rng = random.Random(1414)
    support_strata = models.support_strata
    done = dropped = 0
    while done < (4 if field == "three_surds" else 12):
        s = _random_bounded_slice(rng, basis, rng.randint(2, 4), irrational=field != "q")
        if s is None:
            continue
        done += 1
        P = s.moment_polytope()
        full, check = full_critical_set(s)
        assert check.hull_equals_polytope
        assert hull_equals_by_double_description(P, full)
        for g in full:
            kept = tuple(st for st in support_strata(s) if st.support != g.support)
            with monkeypatch.context() as m:
                m.setattr(models, "support_strata", lambda slice_: kept)
                fewer, check = full_critical_set(s)
            assert not check.hull_equals_polytope
            assert not hull_equals_by_double_description(P, fewer)
            dropped += 1
    assert dropped >= done


@pytest.mark.parametrize("fault", ["two vertices", "a ray"])
def test_fixed_leaf_stratum_image_must_be_a_point(fault, monkeypatch, sqrt2_basis):
    """A full-rank stratum is fixed by the whole torus, so its face is one
    point; a face with two vertices, or with a ray, is an internal fault."""
    import dataclasses

    s = segment_slice(sqrt2_basis)
    stratum = next(st for st in models.support_strata(s) if st.support == (0,))
    if fault == "two vertices":
        bad = dataclasses.replace(stratum, face_vertices=s.moment_polytope().vrep.vertices)
    else:
        bad = dataclasses.replace(stratum, face_rays=(linalg.as_vector(sqrt2_basis, [-1, 1]),))
    monkeypatch.setattr(models, "support_strata", lambda slice_: (bad,))
    with pytest.raises(AssertionError, match="fixed-leaf stratum image not a point"):
        full_critical_set(s)


# -- the domain-row routes against the scalar routes they replaced --------------------


def random_bounded_slice(rng, basis, d):
    """A slice whose direction lies in the sum-zero hyperplane (a bounded
    polytope); direction entries carry each of the basis's constants, and a
    lambda entry sometimes one; retries until the validator accepts."""
    consts = [basis.constant(name) for name in basis.names[1:]]
    for _ in range(60):
        vecs = []
        for _ in range(d - rng.randint(1, d - 1)):
            row = [basis.from_rational(random_fraction(rng, 3)) for _ in range(d - 1)]
            if consts and rng.random() < 0.6:
                j = rng.randrange(d - 1)
                row[j] = row[j] + rng.choice(consts).scale(random_fraction(rng, 2))
            row.append(-sum(row, basis.zero()))
            vecs.append(row)
        lam = [basis.from_rational(rng.randint(1, 4)) for _ in range(d)]
        if consts and rng.random() < 0.3:
            lam[0] = lam[0] + rng.choice(consts)
        try:
            return models.build_affine_slice(basis, d, lam, direction_vectors=vecs)
        except models.SliceValidationError:
            continue
    return None


def critical_set_by_solve(slice_, xi):
    """The scalar route critical_set took before: xi on the support solved
    against the ideal rows' columns there, zeta their combination, eta the
    rest; the dimension the scalar rank of the face's vertex differences and
    rays, plus the support size.  (support, eta, pairings, index, dimension)
    for each critical stratum."""
    basis, d = slice_.scalar_basis, slice_.torus_rank
    out = []
    for stratum in models.support_strata(slice_):
        S = stratum.support
        columns = [tuple(a[j] for j in S) for a in slice_.ideal.rows]
        coeffs = (reference_solve(columns, [tuple(xi[j] for j in S)], basis)[0] if S
                  else [basis.zero()] * slice_.ideal.dim)
        if coeffs is None:
            continue
        zeta = linalg.zeros(basis, d)
        for c, a in zip(coeffs, slice_.ideal.rows):
            zeta = linalg.vec_add(zeta, linalg.vec_scale(a, c))
        eta = linalg.vec_sub(xi, zeta)
        assert all(eta[j].is_zero() for j in S)
        base = stratum.face_vertices[0]
        spread = [linalg.vec_sub(v, base) for v in stratum.face_vertices[1:]]
        dimension = reference_rank(spread + list(stratum.face_rays), d) + len(S)
        pairings = tuple((j, eta[j]) for j in range(d) if j not in S)
        index = 2 * sum(p.sign() < 0 for _, p in pairings)
        out.append((S, eta, pairings, index, dimension))
    return out


def tangent_space_by_products(slice_, x):
    """The kernel of the products D phi^T a, entry by entry in scalar
    arithmetic, for the ideal's scalar rows a, and whether every product is
    rational; D phi^T has the entry 2 mu_j alpha_jk in row 2j (the radial
    slot) for j in the support."""
    module, basis = slice_.module, slice_.scalar_basis
    n = 2 * module.n_coords
    dphi_t = [[basis.zero()] * module.torus_rank for _ in range(n)]
    for j in x.support:
        for k, a in enumerate(module.weights[j]):
            dphi_t[2 * j][k] = x.mu[j].scale(2 * a)
    products = [reference_product(dphi_t, a, basis) for a in slice_.ideal.rows]
    rational = all(e.is_rational() for p in products for e in p)
    return Subspace.from_vectors(basis, n, reference_kernel(products, basis, n)[0]), rational


@pytest.mark.parametrize("field", ["q", "sqrt2", "three_surds"])
def test_domain_routes_match_the_scalar_routes(field, rat_basis, sqrt2_basis,
                                               three_surds_basis):
    """critical_set (eta from one elimination of the direction rows in the
    slice's domain, the dimension from one column rank), full_critical_set's
    dimensions and tangent_space (products of the ideal's domain rows)
    against the scalar routes, on random bounded slices, for rational and
    irrational xi and for xi in the ideal."""
    basis = {"q": rat_basis, "sqrt2": sqrt2_basis, "three_surds": three_surds_basis}[field]
    consts = [basis.constant(name) for name in basis.names[1:]]
    rng = random.Random(2236)
    seen = Counter()
    for _ in range(12 if field == "three_surds" else 20):
        d = rng.randint(2, 4)
        s = random_bounded_slice(rng, basis, d)
        if s is None:
            continue
        rational = [basis.from_rational(random_fraction(rng)) for _ in range(d)]
        coeffs = [random_fraction(rng) for _ in s.ideal.rows]
        xis = {"rational": rational,
               "ideal": [sum((a[k].scale(c) for c, a in zip(coeffs, s.ideal.rows)),
                             basis.zero()) for k in range(d)]}
        if consts:
            xis["irrational"] = [e + rng.choice(consts).scale(random_fraction(rng))
                                 for e in rational]
        for kind, xi in xis.items():
            got = [(st.support, st.eta, st.normal_weights, st.index, st.dimension)
                   for st in critical_set(s, xi)]
            want = critical_set_by_solve(s, tuple(xi))
            assert got == want
            if kind == "ideal":
                assert len(got) == len(models.support_strata(s))
            seen[kind] += len(got)
            seen["not critical"] += len(models.support_strata(s)) - len(got)
            seen["positive-dimensional face"] += sum(dim > len(S) for S, *_, dim in want)
        dims = {S: dim for S, *_, dim in critical_set_by_solve(s, (basis.zero(),) * d)}
        for g in full_critical_set(s)[0]:
            assert g.dimension == dims[g.support] == len(g.support)
        for stratum in models.support_strata(s):
            T, rational = tangent_space_by_products(s, stratum.representative)
            got = models.tangent_space(s, stratum.representative)
            # rational products run over Z, as their scalars would
            assert got == T and (got._D.step is _Z.step) == rational
            seen["tangent over Z" if rational else "tangent over the ring"] += 1
    assert min(seen.values()) >= 5, seen
