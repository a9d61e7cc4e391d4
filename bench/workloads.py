"""Seeded inputs and timed items for the three benchmark workloads.

Generators emit raw inputs only (rationals as Fractions, a + b*sqrt2 as pairs,
scenario paths), so each timed item rebuilds its slice, form or module from
scratch: `AffineSlice` caches its polytope and strata per instance, and a
reused object would time cache hits.

Exact items return a verdict (a JSON-able summary of what the engine
certified) and raise `CheckFailed` when a certified identity does not hold;
scenario items are judged by the digests of the files they write.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from momentlab import cli, models, morse, polyhedra, presymlin
from momentlab.models import ModelError, ModelPoint, SliceValidationError, WeightedModule
from momentlab.presymlin import PresympForm, Subspace
from momentlab.scalars import ConstantBasis

FIELDS = ("q", "sqrt2")


class CheckFailed(AssertionError):
    """An engine output failed a certified identity or an oracle."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def make_basis(field: str) -> ConstantBasis:
    return ConstantBasis.rationals() if field == "q" else ConstantBasis.with_sqrt("sqrt2", 2)


def to_scalar(basis: ConstantBasis, raw) -> object:
    """Raw (a, b) meaning a + b*sqrt2 into the item's own scalar type."""
    a, b = raw
    if b == 0:
        return basis.from_rational(a)
    return basis.scalar([a, b])


def _frac(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


# -- raw slices (shared by polytopes and pointwise) ------------------------------


def _raw_slice(rng: random.Random, d: int, k: int, field: str) -> dict:
    """Slice lambda + W, W spanned by d - k random vectors of the sum-zero
    hyperplane (so the moment polytope is bounded); over Q(sqrt2) the first
    direction is irrational."""
    dirs = []
    for i in range(d - k):
        rat = [_frac(rng, 3) for _ in range(d - 1)]
        rat.append(-sum(rat))
        irr = [Fraction(0)] * d
        if field == "sqrt2" and i == 0:
            irr = [_frac(rng, 2) for _ in range(d - 1)]
            irr.append(-sum(irr))
        dirs.append(list(zip(rat, irr)))
    lam = [Fraction(rng.randint(1, 4)) for _ in range(d)]
    return {"field": field, "d": d, "lam": lam, "dirs": dirs}


def build_slice(raw: dict):
    basis = make_basis(raw["field"])
    dirs = [[to_scalar(basis, e) for e in row] for row in raw["dirs"]]
    return models.build_affine_slice(basis, raw["d"], raw["lam"], direction_vectors=dirs)


def _valid_raw_slice(rng: random.Random, d: int, k: int, field: str) -> dict:
    """Redraw until the engine accepts the slice, so no timed item fails on
    validation; the accepted inputs are all that is kept."""
    for _ in range(1000):
        raw = _raw_slice(rng, d, k, field)
        try:
            build_slice(raw)
        except (SliceValidationError, ModelError):
            continue
        return raw
    raise RuntimeError(f"no valid slice drawn for d={d}, k={k}, {field}")


# -- polytopes ---------------------------------------------------------------------


def _interleave(groups: list[list]) -> list:
    """Round-robin over the groups, so every prefix mixes them."""
    out, groups = [], [list(g) for g in groups]
    while any(groups):
        out += [g.pop(0) for g in groups if g]
    return out


# One period of (d, codim k, field): every codimension of every d = 3..6,
# over both fields.  Cost depends mostly on these, so fixing the mix keeps
# the latency distribution from drifting with the seed.
POLYTOPE_PATTERN = _interleave(
    [[(d, k, f) for k in range(1, d) for f in FIELDS] for d in range(3, 7)])


def polytope_stream(rng: random.Random):
    """Endless raw slice inputs, one pattern period after another."""
    while True:
        for d, k, field in POLYTOPE_PATTERN:
            yield _valid_raw_slice(rng, d, k, field)


def polytope_item(raw: dict):
    """Moment image, local-cones identity, hull identity and (d <= 5, where
    the homogenized cone stays within MAX_DIM) the contact cone."""
    s = build_slice(raw)
    rep = models.moment_image(s)
    P = rep.polytope
    check(rep.affine_span_matches, "affine span is lambda + ideal annihilator")
    check(rep.symplectization_identity, "image equals orthant cut by the plane")
    check(rep.rationality_consistent, "rational fan <=> closed null subgroup")
    check(polyhedra.poly_equal(models.local_cones_intersection(s), P),
          "local cones intersect to the polytope")
    crit, vcheck = morse.full_critical_set(s)
    check(vcheck.hull_equals_polytope, "hull of fixed-leaf images is the polytope")
    if raw["d"] <= 5:
        cone = polyhedra.homogenize(P)
        back = polyhedra.slice_at_level(cone, P.dim, 1)
        check(polyhedra.poly_equal(back, P), "contact cone sliced at 1 is the polytope")
    verts, _ = polyhedra.enumerate_vertices(P)
    return {
        "vertices": [[str(e) for e in v] for v in verts],
        "rational": rep.rational_polyhedral,
        "critical": [list(c.support) for c in crit],
    }


# -- pointwise ---------------------------------------------------------------------

PRODUCT_WEIGHTS = ((1, 0), (1, 1), (1, -1))
PRODUCT_POINTS = (
    ((0, 0), (1, 0), (1, 0)),
    ((1, 0), (2, 0), (0, 0)),
    ((1, 0), (0, 0), (0, 0)),
)
# known cleanness of the product-model points (None: not asserted)
PRODUCT_CLEAN = (False, None, True)

# One period of the pointwise mix: the criterion-07 load of mostly random
# (form, subspace) pairs over dims 1..8, with per-stratum slice checks and
# the product-model points riding along, half over Q and half over Q(sqrt2).
# The subspace size, slice codimension and product point cycle with each
# class's occurrences, so the mix does not depend on the seed.
POINTWISE_PATTERN = (
    [("form", dim, f) for dim in range(1, 9) for f in FIELDS]
    + [("slice", 1, "q"), ("slice", 2, "sqrt2"), ("slice", 3, "q"),
       ("product", 0, "sqrt2"), ("form", 5, "q"), ("form", 6, "sqrt2")]
    + [("form", dim, f) for dim in range(8, 0, -1) for f in FIELDS[::-1]]
    + [("slice", 1, "sqrt2"), ("slice", 2, "q"), ("slice", 3, "sqrt2"),
       ("product", 0, "q"), ("form", 4, "sqrt2"), ("form", 7, "q")]
)


def _raw_scalar(rng: random.Random, field: str, irrational_chance: float):
    b = _frac(rng, 4) if field == "sqrt2" and rng.random() < irrational_chance else Fraction(0)
    return (_frac(rng, 4), b)


def _raw_form(rng: random.Random, dim: int, n_rows: int, field: str) -> dict:
    upper = [[_raw_scalar(rng, field, 0.3) for _ in range(i + 1, dim)] for i in range(dim)]
    sub = [[_raw_scalar(rng, field, 0.5 if i == 0 else 0.0) for _ in range(dim)]
           for i in range(n_rows)]
    return {"field": field, "dim": dim, "upper": upper, "sub": sub}


def pointwise_stream(rng: random.Random):
    """Endless raw pointwise inputs, one pattern period after another."""
    seen: Counter = Counter()
    while True:
        for kind, param, field in POINTWISE_PATTERN:
            occ = seen[kind, param, field]
            seen[kind, param, field] += 1
            if kind == "form":
                raw = _raw_form(rng, param, occ % (param + 1), field)
            elif kind == "slice":
                raw = _valid_raw_slice(rng, param, occ % max(1, param - 1) + 1, field)
            else:
                raw = {"field": field, "point": occ % len(PRODUCT_POINTS)}
            raw["kind"] = kind
            yield raw


def _form_item(raw: dict):
    basis = make_basis(raw["field"])
    dim = raw["dim"]
    rows = [[basis.zero() for _ in range(dim)] for _ in range(dim)]
    for i, upper in enumerate(raw["upper"]):
        for off, e in enumerate(upper):
            x = to_scalar(basis, e)
            rows[i][i + 1 + off] = x
            rows[i + 1 + off][i] = -x
    form = PresympForm.from_rows(basis, rows)
    F = Subspace.from_vectors(
        basis, dim, [[to_scalar(basis, e) for e in row] for row in raw["sub"]])
    orth = presymlin.sigma_orthogonal(form, F)
    ker = form.kernel()
    check(ker.dim == dim - form.rank(), "rank-nullity of the form")
    check(orth.dim == dim - F.dim + F.intersect(ker).dim, "dim of the sigma-orthogonal")
    check(presymlin.sigma_orthogonal(form, orth) == F.add(ker), "double orthogonal is F + ker")
    red = presymlin.natural_quotient(form, F, "orth")
    check(red.induced_form.rank() == red.quotient_dim, "quotient form is symplectic")
    return {"F": F.dim, "ker": ker.dim, "orth": str(orth), "quotient": red.quotient_dim}


def _slice_points_item(raw: dict):
    s = build_slice(raw)
    out = []
    for st in models.support_strata(s):
        x = st.representative
        clean = models.cleanness_at(s, x)
        sd = models.slices_at(s, x)
        kernel, image = models.dphi_kernel_image(s, x)
        T = models.tangent_space(s, x)
        form = models.adapted_form(s.module, x)
        orbit = models.orbit_tangent(s.module, x)
        check(kernel == presymlin.sigma_orthogonal(form, orbit).intersect(T),
              "dphi kernel is the orbit's sigma-orthogonal in T")
        check(image == models.leaf_stabilizer_algebra(s, x).annihilator(),
              "dphi image annihilates the leaf stabilizer")
        out.append([list(st.support), clean.clean, sd.symplectic_dim, sd.null_dim])
    return out


def _product_item(raw: dict):
    basis = make_basis(raw["field"])
    pm = WeightedModule(basis, 2, PRODUCT_WEIGHTS, frozenset({1, 2}))
    x = ModelPoint.from_coordinates(basis, PRODUCT_POINTS[raw["point"]])
    clean = models.cleanness_at(pm, x).clean
    known = PRODUCT_CLEAN[raw["point"]]
    check(known is None or clean == known, "product-model cleanness verdict")
    sd = models.slices_at(pm, x)
    check(models.symplectization_slice_dim(pm, x) == sd.symplectic_dim + 2 * sd.null_dim,
          "symplectization slice dimension")
    return [clean, sd.symplectic_dim, sd.null_dim]


def pointwise_item(raw: dict):
    kind = raw["kind"]
    if kind == "form":
        return _form_item(raw)
    if kind == "slice":
        return _slice_points_item(raw)
    return _product_item(raw)


# -- scenarios ---------------------------------------------------------------------


def scenario_stream(rng: random.Random, paths: list[Path]):
    """The committed scenarios, pass after pass, each pass in a seeded order."""
    fields = {p: "sqrt2" if json.loads(p.read_text()).get("constants") else "q" for p in paths}
    while True:
        order = list(paths)
        rng.shuffle(order)
        for p in order:
            yield {"path": p, "field": fields[p]}


def scenario_item(raw: dict, out: Path) -> None:
    """`momentlab run` in-process into an emptied directory."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.run_scenario(raw["path"], out)
    check(rc == 0, f"run_scenario exit {rc}: {err.getvalue().strip()}")


def output_digests(out: Path) -> dict:
    """SHA-256 of every file a scenario run wrote (report, CSV, SVG)."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
