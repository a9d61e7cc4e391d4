"""Scenario runner: parse a model description, run the requested analyses and
emit a deterministic report plus CSV/SVG artifacts.

Exit codes: 0 success, 2 scenario or model validation error, 3 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lattice, linalg, models, morse, polyhedra, reporting, sampler
from .models import AffineSlice, ModelPoint, WeightedModule
from .reporting import fmt_float, fmt_polyhedron, fmt_subspace, fmt_vector, yesno
from .scalars import ConstantBasis, ScalarError

ANALYSES = ("slice-report", "morse", "quasifold", "contact-cone", "sample", "deform")

_SQRT_NAME = re.compile(r"^sqrt(\d+)$")
# desk-scale cap on float samples per analysis
MAX_SAMPLES = 1_000_000
_INF = float("inf")


class ScenarioError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"field {field_name!r}: {message}")
        self.field = field_name


@dataclass
class Scenario:
    name: str
    basis: ConstantBasis
    analyses: list[str]
    seed: int
    torus_rank: int
    raw: dict
    slice_: AffineSlice | None = None
    module: WeightedModule | None = None
    points: list[ModelPoint] = field(default_factory=list)
    xi: linalg.Vector | None = None
    curve: sampler.CurveSpec | None = None
    family: list[sampler.CurveSpec] | None = None


def _build_basis(raw: dict) -> ConstantBasis:
    basis = ConstantBasis.rationals()
    constants = raw.get("constants", {})
    if not isinstance(constants, dict):
        raise ScenarioError("constants", "must be a mapping of name to value")
    for name in sorted(constants):
        value = constants[name]
        square = None
        if isinstance(value, dict):
            square = value.get("square")
            value = value.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError("constants", f"{name} needs a numeric value")
        if square is not None and not _is_positive_number(square):
            raise ScenarioError("constants", f"{name}: square must be a positive number")
        m = _SQRT_NAME.match(name)
        if square is None and m:
            square = int(m.group(1))
        if square is not None and abs(float(square) ** 0.5 - value) > 1e-6:
            raise ScenarioError(
                "constants", f"{name}: value {value} does not match sqrt({square})"
            )
        basis = basis.with_constant(name, float(value), square=square)
    return basis


def load_scenario(path: Path) -> Scenario:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ScenarioError("scenario", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError("scenario", f"not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario", "top level must be an object")
    basis = _build_basis(raw)
    analyses = raw.get("analyses", ["slice-report"])
    if not isinstance(analyses, list) or any(a not in ANALYSES for a in analyses):
        raise ScenarioError("analyses", f"must be a list drawn from {ANALYSES}")
    d = raw.get("torus_rank")
    if not _is_int(d) or d < 1:
        raise ScenarioError("torus_rank", "must be a positive integer")
    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ScenarioError("seed", "must be a non-negative integer")
    if "samples" in raw and not (_is_int(raw["samples"]) and 1 <= raw["samples"] <= MAX_SAMPLES):
        raise ScenarioError("samples", f"must be an integer from 1 to {MAX_SAMPLES}")
    if "t_max" in raw and not _is_positive_number(raw["t_max"]):
        raise ScenarioError("t_max", "must be a positive finite number")
    name = raw.get("name", Path(path).stem)
    if not isinstance(name, str) or not name or any(c in name for c in "/\\\0"):
        raise ScenarioError("name", "must be a non-empty string usable in file names")
    scenario = Scenario(
        name=name,
        basis=basis,
        analyses=list(analyses),
        seed=seed,
        torus_rank=d,
        raw=raw,
    )
    _load_model(scenario)
    _load_analysis_inputs(scenario)
    return scenario


def _load_analysis_inputs(sc: Scenario) -> None:
    """Parse xi, curve and family when given or needed by an analysis, so
    that validation rejects them before anything runs."""
    raw = sc.raw
    if "xi" in raw or "morse" in sc.analyses:
        sc.xi = _parse_vector(sc.basis, raw.get("xi"), "xi", sc.torus_rank)
    if "curve" in raw or "sample" in sc.analyses:
        sc.curve = _parse_curve(raw.get("curve"), "curve")
    if "family" in raw or "deform" in sc.analyses:
        family = raw.get("family")
        if not isinstance(family, list) or len(family) < 2:
            raise ScenarioError("family", "must be a list of at least two curves")
        sc.family = [_parse_curve(c, f"family[{i}]") for i, c in enumerate(family)]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < _INF


def _parse_vector(basis, entries, field_name, length=None):
    if not isinstance(entries, list):
        raise ScenarioError(field_name, "must be a list")
    try:
        v = linalg.as_vector(basis, entries)
    except ScalarError as exc:
        raise ScenarioError(field_name, str(exc))
    if length is not None and len(v) != length:
        raise ScenarioError(field_name, f"expected length {length}, got {len(v)}")
    return v


def _load_model(sc: Scenario) -> None:
    raw, basis, d = sc.raw, sc.basis, sc.torus_rank
    weights = raw.get("weights")
    masked = raw.get("masked", [])
    if weights is not None:
        if not isinstance(weights, list) or not all(
            isinstance(w, list) and all(_is_int(a) for a in w) for w in weights
        ):
            raise ScenarioError("weights", "must be a list of integer vectors")
        if not isinstance(masked, list) or not all(_is_int(j) for j in masked):
            raise ScenarioError("masked", "must be a list of coordinate indices")
        try:
            sc.module = WeightedModule(
                basis, d, tuple(tuple(w) for w in weights), frozenset(masked)
            )
        except ScalarError as exc:
            raise ScenarioError("weights", str(exc))
    has_slice = "lambda" in raw or "direction" in raw or "direction_normals" in raw
    if has_slice:
        lam = _parse_vector(basis, raw.get("lambda"), "lambda", d)
        vectors = raw.get("direction")
        normals = raw.get("direction_normals")
        if vectors is None and normals is None:
            raise ScenarioError("direction", "give direction or direction_normals")
        for name, value in (("direction", vectors), ("direction_normals", normals)):
            if value is not None and not isinstance(value, list):
                raise ScenarioError(name, "must be a list of vectors")
        try:
            sc.slice_ = models.build_affine_slice(
                basis,
                d,
                lam,
                direction_vectors=[
                    _parse_vector(basis, v, "direction", d) for v in (vectors or [])
                ],
                direction_normals=None
                if normals is None
                else [_parse_vector(basis, v, "direction_normals", d) for v in normals],
            )
        except ScalarError as exc:
            raise ScenarioError("direction", str(exc))
    points = raw.get("points", [])
    if not isinstance(points, list):
        raise ScenarioError("points", "must be a list of points")
    model = sc.slice_.module if sc.slice_ is not None else sc.module
    for i, entry in enumerate(points):
        if not isinstance(entry, list) or any(
            isinstance(z, list) and len(z) != 2 for z in entry
        ):
            raise ScenarioError(
                "points", f"point {i} must be a list of coordinates or (re, im) pairs"
            )
        if model is not None and len(entry) != model.n_coords:
            raise ScenarioError(
                "points", f"point {i} needs {model.n_coords} coordinates, got {len(entry)}"
            )
        try:
            sc.points.append(
                ModelPoint.from_coordinates(
                    basis,
                    [tuple(z) if isinstance(z, list) else z for z in entry],
                )
            )
        except ScalarError as exc:
            raise ScenarioError("points", f"point {i}: {exc}")
    if sc.slice_ is None and sc.module is None:
        raise ScenarioError("lambda", "scenario defines neither a slice nor a module")


def _parse_curve(raw: dict, field_name: str) -> sampler.CurveSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ScenarioError(field_name, 'must be an object with a "kind"')
    kind = raw["kind"]
    try:
        if kind == "affine":
            return sampler.affine_spec(
                raw["basepoint"], raw["direction"], raw.get("param_range")
            )
        if kind == "circle":
            return sampler.circle_spec(raw["center"], raw["radius"])
        if kind == "ellipse":
            return sampler.ellipse_spec(
                raw["center"], raw["semi_x"], raw["semi_y"], raw.get("angle", 0.0)
            )
        if kind == "trig-graph":
            return sampler.trig_graph_spec(
                raw["x_range"], raw["offset"], raw["amplitude"],
                raw.get("frequency", 1.0), raw.get("phase", 0.0),
            )
    except KeyError as exc:
        raise ScenarioError(field_name, f"curve is missing {exc.args[0]!r}")
    except (ValueError, TypeError) as exc:
        raise ScenarioError(field_name, str(exc))
    raise ScenarioError(field_name, f"unknown curve kind {kind!r}")


# -- analysis sections ---------------------------------------------------------------


def _section(lines: list[str], title: str, instantiates: str) -> None:
    lines.append("")
    lines.append(f"[{title}]")
    lines.append(f"instantiates: {instantiates}")


def _model_section(sc: Scenario, lines: list[str]) -> None:
    lines.append(f"momentlab report: {sc.name}")
    lines.append(f"seed: {sc.seed}")
    lines.append("")
    lines.append("[model]")
    lines.append(f"torus rank: {sc.torus_rank}")
    if sc.basis.size > 1:
        decl = ", ".join(
            f"{n}={fmt_float(v)}"
            for n, v in zip(sc.basis.names[1:], sc.basis.float_values[1:])
        )
        lines.append(f"constants: {decl}")
    if sc.module is not None:
        lines.append(f"weights: {list(map(list, sc.module.weights))}")
        if sc.module.masked:
            lines.append(f"masked coordinates: {sorted(sc.module.masked)}")
    if sc.slice_ is not None:
        lines.append(f"lambda: {fmt_vector(sc.slice_.lam)}")
        lines.append("slice direction basis:")
        lines.append(fmt_subspace(sc.slice_.direction))


def _slice_report(sc: Scenario, lines: list[str]) -> None:
    model = sc.slice_ if sc.slice_ is not None else sc.module
    ideal = model.null_ideal()
    _section(lines, "null ideal",
             "null ideal of the model (constant stalk on these models)")
    lines.append(fmt_subspace(ideal))
    lines.append(f"rational subspace: {yesno(lattice.is_rational_subspace(ideal))}")
    lines.append(f"null subgroup closed: {yesno(lattice.null_subgroup_closed(model))}")

    if sc.slice_ is not None:
        strata = models.support_strata(sc.slice_)
        reports = [models.cleanness_at(sc.slice_, s.representative) for s in strata]
        _section(lines, "cleanness",
                 "cleanness criterion: leaf stabilizer = stabilizer + null ideal")
        for s, rep in zip(strata, reports):
            lines.append(
                f"  support {list(s.support)}: clean={yesno(rep.clean)} "
                f"(leaf stabilizer dim {rep.leaf_stabilizer.dim}, "
                f"stabilizer dim {rep.stabilizer.dim}, "
                f"stabilizer+ideal dim {rep.stabilizer_plus_ideal.dim})"
            )
        rep = models.moment_image(sc.slice_)
        _section(lines, "moment polytope",
                 "exact convex polyhedral moment image; rationality of the "
                 "normal fan is equivalent to the null subgroup being closed")
        lines.append(fmt_polyhedron(rep.polytope))
        lines.append(f"affine span is lambda + ideal annihilator: "
                     f"{yesno(rep.affine_span_matches)}")
        lines.append(f"equals ambient image cut by the affine plane: "
                     f"{yesno(rep.symplectization_identity)}")
        lines.append(f"rational: {yesno(rep.rational_polyhedral)}")
        lines.append(f"null subgroup closed: {yesno(rep.null_subgroup_closed)}")
        lines.append(f"verdicts agree: {yesno(rep.rationality_consistent)}")

        _section(lines, "local cones",
                 "local cone at each stratum; their intersection reproduces "
                 "the moment polytope exactly")
        inter = models.local_cones_intersection(sc.slice_)
        for s in strata:
            cone = models.local_cone(sc.slice_, s.representative)
            apex = [str(e) for e in s.representative.mu]
            lines.append(f"  support {list(s.support)} (representative moment "
                         f"value ({', '.join(apex)})):")
            lines.append(fmt_polyhedron(cone, indent="    "))
        lines.append(
            "intersection of local cones equals moment polytope: "
            + yesno(polyhedra.poly_equal(inter, rep.polytope))
        )

        _section(lines, "slice data",
                 "symplectic and null slice invariants of the local normal form")
        for s in strata:
            sd = models.slices_at(sc.slice_, s.representative)
            w = "?" if sd.symplectic_weights is None else list(
                map(list, sd.symplectic_weights))
            lines.append(
                f"  support {list(s.support)}: symplectic slice dim "
                f"{sd.symplectic_dim} with weights {w}; null slice dim {sd.null_dim}"
            )
    if sc.points:
        _section(lines, "pointwise cleanness",
                 "cleanness criterion at the scenario's explicit points")
        for i, pt in enumerate(sc.points):
            rep = models.cleanness_at(model, pt)
            sd = models.slices_at(model, pt)
            lines.append(
                f"  point {i} (support {list(pt.support)}): clean={yesno(rep.clean)}; "
                f"leaf stabilizer:"
            )
            lines.append(fmt_subspace(rep.leaf_stabilizer, indent="    "))
            lines.append("  stabilizer + null ideal:")
            lines.append(fmt_subspace(rep.stabilizer_plus_ideal, indent="    "))
            lines.append(
                f"  symplectic slice dim {sd.symplectic_dim}, "
                f"null slice dim {sd.null_dim}, symplectization slice dim "
                f"{models.symplectization_slice_dim(model, pt)}"
            )


def _quasifold_section(sc: Scenario, lines: list[str]) -> None:
    model = sc.slice_ if sc.slice_ is not None else sc.module
    ideal = model.null_ideal()
    ql = lattice.quasilattice(ideal)
    closed = lattice.null_subgroup_closed(model)
    _section(lines, "quasilattice",
             "quasilattice of the leaf space: rank above the quotient "
             "dimension detects an irrational (quasifold) moment polytope")
    lines.append(f"quotient dimension: {ql.quotient_dim}")
    lines.append(f"rank: {ql.rank} of expected {ql.quotient_dim}")
    lines.append("generators: " + ", ".join(fmt_vector(g) for g in ql.generators))
    lines.append(f"rational: {yesno(ql.rank == ql.quotient_dim)}")
    lines.append(f"null subgroup closed: {yesno(closed)}")


def _morse_section(sc: Scenario, lines: list[str]) -> None:
    if sc.slice_ is None:
        raise ScenarioError("analyses", "morse analysis needs an affine slice")
    xi = sc.xi
    strata = morse.critical_set(sc.slice_, xi)
    _section(lines, "morse",
             "critical strata of a moment component with exact even indices")
    lines.append(f"xi: {fmt_vector(xi)}")
    for s in strata:
        pair = ", ".join(f"{j}:{p}" for j, p in s.normal_weights)
        lines.append(
            f"  support {list(s.support)}: dim {s.dimension}, index {s.index}, "
            f"eta {fmt_vector(s.eta)}, normal pairings {{{pair}}}, "
            f"nondegenerate {yesno(s.bott_nondegenerate)}"
        )
    report = morse.morse_bott_check(sc.slice_, xi)
    lines.append(f"morse-bott: {yesno(report.is_morse_bott)}")
    P = sc.slice_.moment_polytope()
    if polyhedra.is_bounded(P):
        full, check = morse.full_critical_set(sc.slice_)
        lines.append("fixed-leaf strata and images:")
        for s in full:
            lines.append(f"  support {list(s.support)} -> {fmt_vector(s.image)}")
        lines.append(
            "hull of fixed-leaf images equals moment polytope: "
            + yesno(check.hull_equals_polytope)
        )
        lines.append(
            "each vertex fibre is a single stratum: "
            + yesno(check.fibres_are_single_strata)
        )
    else:
        lines.append("moment polytope unbounded: vertex-hull identity skipped")


def _contact_section(sc: Scenario, lines: list[str], out: Path) -> None:
    if sc.slice_ is None:
        raise ScenarioError("analyses", "contact-cone analysis needs an affine slice")
    P = sc.slice_.moment_polytope()
    cone = polyhedra.homogenize(P)
    back = polyhedra.slice_at_level(cone, P.dim, 1)
    _section(lines, "contact cone",
             "homogenized moment cone; slicing at level one recovers the "
             "polytope and scaled samples satisfy the cone inequalities")
    lines.append(fmt_polyhedron(cone))
    lines.append(f"slice at level 1 equals moment polytope: "
                 f"{yesno(polyhedra.poly_equal(back, P))}")
    if polyhedra.is_bounded(P):
        n = sc.raw.get("samples", 10000)
        t_max = float(sc.raw.get("t_max", 2.0))
        residual = _cone_sample_residual(sc, P, cone, n, t_max)
        lines.append(f"max H-rep residual over {n} scaled samples: "
                     f"{fmt_float(residual)}")
    else:
        lines.append("moment polytope unbounded: sampling skipped")


def _cone_sample_residual(
    sc: Scenario, P, cone, n: int, t_max: float
) -> float:
    rng = np.random.default_rng(sc.seed)
    verts = np.array(
        [[e.to_float() for e in v] for v in P.vrep.vertices], dtype=float
    )
    w = rng.random((n, len(verts)))
    w /= w.sum(axis=1, keepdims=True)
    t = rng.uniform(0.0, t_max, n)
    pts = np.concatenate([(w @ verts) * t[:, None], t[:, None]], axis=1)
    worst = 0.0
    for h in cone.halfspaces:
        normal = np.array([e.to_float() for e in h.normal])
        gap = pts @ normal - h.offset.to_float()
        worst = max(worst, float(np.maximum(0.0, -gap).max(initial=0.0)))
    for h in cone.equalities:
        normal = np.array([e.to_float() for e in h.normal])
        gap = np.abs(pts @ normal - h.offset.to_float())
        worst = max(worst, float(gap.max(initial=0.0)))
    return worst


def _require_finite(value: float, what: str, field_name: str) -> None:
    """Huge curve parameters overflow double precision in the sampler; such a
    run fails naming the curve instead of reporting inf or nan."""
    if not np.isfinite(value):
        raise sampler.SamplerError(
            f"field {field_name!r}: {what} is {value}; the curve parameters "
            "overflow double precision"
        )


def _sample_section(sc: Scenario, lines: list[str], out: Path) -> None:
    curve = sc.curve
    n = sc.raw.get("samples", 10000)
    cloud = sampler.sample_image(curve, n, sc.seed)
    defect = sampler.convexity_defect(cloud, sampler.distance_to_image(curve))
    lifted = sampler.lift_cloud(cloud, sc.seed + 17)
    residual = float(
        np.abs(sampler.moment_of_lift(lifted) - cloud.points).max()
    )
    _require_finite(defect, "convexity defect", "curve")
    _require_finite(residual, "lift round-trip residual", "curve")
    csv_path = out / f"{sc.name}_cloud.csv"
    reporting.emit_csv(cloud.points, csv_path)
    _section(lines, "samples",
             "image sampling on the curve slice: nonconvexity defect and the "
             "lift round trip")
    lines.append(f"curve: {curve.kind}, points kept: {cloud.count}")
    lines.append(f"convexity defect: {fmt_float(defect)}")
    lines.append(f"lift round-trip residual: {fmt_float(residual)}")
    lines.append(f"csv: {csv_path.name}")
    if curve.ambient_dim == 2:
        svg_path = out / f"{sc.name}_cloud.svg"
        reporting.emit_svg(cloud.points, svg_path)
        lines.append(f"svg: {svg_path.name}")


def _deform_section(sc: Scenario, lines: list[str]) -> None:
    n = sc.raw.get("samples", 2000)
    report = sampler.deformation_scan(sc.family, n, sc.seed)
    _section(lines, "deformation",
             "translate equivalence of the orthant images along the family; "
             "a failing pair certifies a nontrivial deformation")
    for p in report.pairs:
        _require_finite(p.hausdorff_after_shift, f"hausdorff distance to family[{p.second}]",
                        f"family[{p.first}]")
        lines.append(
            f"  pair ({p.first}, {p.second}): translate equivalent "
            f"{yesno(p.translate_equivalent)} "
            f"(hausdorff {fmt_float(p.hausdorff_after_shift)})"
        )
    lines.append(
        "deformation presymplectically nontrivial: "
        + yesno(report.presymplectically_nontrivial)
    )


# -- entry points -----------------------------------------------------------------


def run_scenario(path, out_dir=None, seed=None) -> int:
    try:
        sc = load_scenario(Path(path))
        if seed is not None:
            if seed < 0:
                raise ScenarioError("seed", "must be a non-negative integer")
            sc.seed = int(seed)
        out = Path(out_dir) if out_dir else Path("momentlab-out")
        out.mkdir(parents=True, exist_ok=True)
        lines: list[str] = []
        _model_section(sc, lines)
        for analysis in sc.analyses:
            if analysis == "slice-report":
                _slice_report(sc, lines)
            elif analysis == "quasifold":
                _quasifold_section(sc, lines)
            elif analysis == "morse":
                _morse_section(sc, lines)
            elif analysis == "contact-cone":
                _contact_section(sc, lines, out)
            elif analysis == "sample":
                _sample_section(sc, lines, out)
            elif analysis == "deform":
                _deform_section(sc, lines)
        reporting.emit_report(lines, out / "report.txt")
        print(f"report written to {out / 'report.txt'}")
        return 0
    except (ScenarioError, ScalarError, sampler.SamplerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal assertion failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def validate_scenario(path) -> int:
    try:
        load_scenario(Path(path))
        print("scenario is valid")
        return 0
    except (ScenarioError, ScalarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="momentlab",
        description="Exact moment polytopes, cleanness tests and Morse data "
        "for torus actions on presymplectic coordinate models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("scenario")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, args.out, args.seed)
    return validate_scenario(args.scenario)


if __name__ == "__main__":
    sys.exit(main())
