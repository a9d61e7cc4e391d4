import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentlab
from momentlab.cli import _build_basis, main, run_scenario, validate_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# SHA-256 of every scenario output, recorded by the benchmark (read only here)
EXPECTED = SCENARIOS.parent / "bench" / "expected.json"
# segment's report.txt less its float residual line
SEGMENT_GOLDEN = Path(__file__).resolve().parent / "golden" / "segment_report.txt"
# a scenario over two square roots, kept out of scenarios/, and its report
TWO_ROOTS = SEGMENT_GOLDEN.parent / "two_roots.json"


def write(tmp_path, data, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def segment_raw():
    return {
        "name": "segment",
        "torus_rank": 2,
        "lambda": ["1", "0"],
        "direction_normals": [["1", "1"]],
        "analyses": ["slice-report", "quasifold", "morse", "contact-cone"],
        "xi": ["1", "0"],
        "seed": 7,
        "samples": 2000,
    }


def test_segment_report_content(tmp_path):
    path = write(tmp_path, segment_raw())
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "vertices: (0, 1), (1, 0)" in report
    assert "rational: yes" in report
    assert "null subgroup closed: yes" in report
    assert "index 2" in report and "index 0" in report
    assert "morse-bott: yes" in report
    assert "hull of fixed-leaf images equals moment polytope: yes" in report
    assert "slice at level 1 equals moment polytope: yes" in report
    assert "instantiates:" in report


def test_quasifold_report_content(tmp_path):
    raw = segment_raw()
    raw["name"] = "quasifold"
    raw["constants"] = {"sqrt2": 1.4142135623730951}
    raw["direction_normals"] = [["1", "sqrt2"]]
    raw["analyses"] = ["slice-report", "quasifold"]
    path = write(tmp_path, raw)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "rank: 2 of expected 1" in report
    assert "rational: no" in report
    assert "null subgroup closed: no" in report
    assert "1/2*sqrt2" in report


def test_rationality_verdicts_can_disagree(tmp_path, monkeypatch):
    """The quasifold scenario's polytope is irrational and its null subgroup
    not closed, so the verdicts agree; a fan test faulted to answer yes
    makes the moment polytope section say rational and the verdicts
    disagree, while the null-ideal lines keep their no."""
    from momentlab import lattice

    raw = json.loads((SCENARIOS / "quasifold.json").read_text())
    raw["analyses"] = ["slice-report"]
    out = tmp_path / "out"
    assert run_scenario(write(tmp_path, raw), out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "rational: no" in report and "verdicts agree: yes" in report
    monkeypatch.setattr(lattice, "rational_fan", lambda D, normals, facets: True)
    assert run_scenario(write(tmp_path, raw), out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "\nrational: yes\nnull subgroup closed: no\nverdicts agree: no\n" in report
    assert "rational subspace: no" in report


def test_missing_field_exits_2(tmp_path, capsys):
    raw = segment_raw()
    del raw["torus_rank"]
    path = write(tmp_path, raw)
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert "torus_rank" in capsys.readouterr().err


def test_bad_analysis_exits_2(tmp_path, capsys):
    raw = segment_raw()
    raw["analyses"] = ["nope"]
    path = write(tmp_path, raw)
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert "analyses" in capsys.readouterr().err


def test_invalid_slice_exits_2(tmp_path, capsys):
    raw = segment_raw()
    raw["lambda"] = ["-1", "0"]
    path = write(tmp_path, raw)
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert "misses" in capsys.readouterr().err


def test_invalid_slice_by_normals_names_direction_normals(tmp_path, capsys):
    raw = segment_raw()
    raw["direction_normals"] = [["1", "1"], ["1", "-1"], ["0", "1"]]
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "field 'direction_normals': slice misses moment image" in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert run_scenario(tmp_path / "nope.json", out_dir=tmp_path / "out") == 2
    assert "not found" in capsys.readouterr().err


def test_validate_subcommand(tmp_path):
    path = write(tmp_path, segment_raw())
    assert validate_scenario(path) == 0
    bad = write(tmp_path, {"torus_rank": 0}, name="bad.json")
    assert validate_scenario(bad) == 2
    assert main(["validate", str(path)]) == 0


def test_rerun_is_byte_identical(tmp_path):
    raw = segment_raw()
    raw["analyses"] = ["slice-report", "morse", "contact-cone"]
    path = write(tmp_path, raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out", str(out1), "--seed", "11"]) == 0
    assert main(["run", str(path), "--out", str(out2), "--seed", "11"]) == 0
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_sample_scenario_writes_artifacts(tmp_path):
    raw = {
        "name": "circ",
        "torus_rank": 2,
        "lambda": ["1", "0"],
        "direction_normals": [["1", "1"]],
        "analyses": ["sample"],
        "curve": {"kind": "circle", "center": [1.0, 1.0], "radius": 1.2},
        "samples": 2000,
        "seed": 3,
    }
    path = write(tmp_path, raw)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    assert (out / "circ_cloud.csv").exists()
    assert (out / "circ_cloud.svg").exists()
    csv = (out / "circ_cloud.csv").read_text().splitlines()
    assert csv[0] == "x,y"
    assert len(csv) == 2001
    svg = (out / "circ_cloud.svg").read_text()
    assert svg.count("<line") == 2 and "<polyline" in svg


def test_deform_scenario(tmp_path):
    raw = {
        "name": "def",
        "torus_rank": 2,
        "lambda": ["1", "0"],
        "direction_normals": [["1", "1"]],
        "analyses": ["deform"],
        "family": [
            {"kind": "circle", "center": [1.0, 1.0], "radius": 1.2},
            {"kind": "ellipse", "center": [1.0, 1.0], "semi_x": 1.2, "semi_y": 0.9},
        ],
        "samples": 1500,
        "seed": 3,
    }
    path = write(tmp_path, raw)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "deformation presymplectically nontrivial: yes" in report


def test_product_model_scenario(tmp_path):
    raw = {
        "name": "product",
        "torus_rank": 2,
        "weights": [[1, 0], [1, 1], [1, -1]],
        "masked": [1, 2],
        "points": [
            [[0, 0], [1, 0], [1, 0]],
            [[1, 0], [0, 0], [0, 0]],
        ],
        "analyses": ["slice-report"],
        "seed": 1,
    }
    path = write(tmp_path, raw)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "point 0 (support [1, 2]): clean=no" in report
    assert "point 1 (support [0]): clean=yes" in report


def test_repo_scenarios_are_valid():
    for name in (
        "segment.json",
        "quasifold.json",
        "product_counterexample.json",
        "circle_nonconvex.json",
        "deformation.json",
    ):
        assert validate_scenario(SCENARIOS / name) == 0


@pytest.mark.parametrize(
    "field, value",
    [("samples", -5), ("t_max", -1), ("lambda", ["1/0", "0"])],
)
def test_bad_segment_field_exits_2(tmp_path, capsys, field, value):
    raw = json.loads((SCENARIOS / "segment.json").read_text())
    raw[field] = value
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"field {field!r}" in err and "internal error" not in err


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"torus_rank": True, "lambda": ["1"], "direction": [["1"]]}, "torus_rank"),
        ({"torus_rank": 1, "weights": [[True], [1]]}, "weights"),
        ({"torus_rank": 1, "weights": [[1], [1]], "masked": [True]}, "masked"),
        ({"torus_rank": 2, "weights": [[1, 0], [0, 1]], "masked": [5]}, "masked"),
    ],
)
def test_boolean_integer_field_exits_2(tmp_path, capsys, raw, field):
    """JSON booleans are not integers, although Python's bool is an int; an
    integer out of range is named by its own field too."""
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"field {field!r}" in err and "internal error" not in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda", [True, False]),
        ("direction", [[True, True]]),
        ("direction_normals", [[True, True]]),
        ("xi", [True, False]),
        ("points", [[True, 0]]),
        ("lambda", [0.1, 1]),
    ],
    ids=["lambda", "direction", "direction_normals", "xi", "points", "lambda-float"],
)
def test_unreadable_scalar_field_exits_2(tmp_path, capsys, field, value):
    """JSON booleans are not scalars, and a float must be a small exact
    rational, not read as its binary expansion."""
    raw = segment_raw()
    if field == "direction":
        del raw["direction_normals"]
    raw[field] = value
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"field {field!r}" in err and "internal error" not in err


def test_exact_float_scalar_field_runs(tmp_path):
    raw = segment_raw()
    raw["lambda"] = [0.5, 0.5]
    out = tmp_path / "out"
    assert run_scenario(write(tmp_path, raw), out_dir=out) == 0
    assert "lambda: (1/2, 1/2)" in (out / "report.txt").read_text()


def test_broken_invariant_exits_3(tmp_path, capsys, monkeypatch):
    """An internal fault exits 3, not 2 like malformed input: here the
    quasifold section's rational rank comes out 0, so its lattice rank
    falls below the quotient dimension."""
    from momentlab import lattice

    monkeypatch.setattr(lattice, "rational_rank", lambda D, rows: 0)
    assert run_scenario(SCENARIOS / "segment.json", out_dir=tmp_path / "out") == 3
    assert ("internal error: AssertionError: quasilattice rank below quotient dimension"
            in capsys.readouterr().err)


def test_symplectization_identity_can_print_no(tmp_path, monkeypatch):
    """A moment polytope cut by one more half-space, x_0 <= 1/2, is no longer
    the orthant cut by the affine plane, and the report says so."""
    from momentlab import models, polyhedra

    moment_polytope = models.AffineSlice.moment_polytope

    def cut(self):
        P = moment_polytope(self)
        return polyhedra.intersect_halfspaces(
            P.scalar_basis, P.dim,
            [(h.normal, h.offset) for h in P.halfspaces] + [([-1, 0], "-1/2")],
            [(h.normal, h.offset) for h in P.equalities])

    monkeypatch.setattr(models.AffineSlice, "moment_polytope", cut)
    raw = segment_raw()
    raw["analyses"] = ["slice-report"]
    out = tmp_path / "out"
    assert run_scenario(write(tmp_path, raw), out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "vertices: (0, 1), (1/2, 1/2)" in report
    assert "affine span is lambda + ideal annihilator: yes" in report
    assert "equals ambient image cut by the affine plane: no" in report


def test_vertex_hull_identity_can_print_no(tmp_path, monkeypatch):
    """With the fixed-leaf stratum over the vertex (1, 0) dropped from the
    strata, its image is missing from the hull, and the report says so."""
    from momentlab import models

    support_strata = models.support_strata
    monkeypatch.setattr(models, "support_strata", lambda slice_: tuple(
        st for st in support_strata(slice_) if st.support != (0,)))
    raw = segment_raw()
    raw["analyses"] = ["morse"]
    out = tmp_path / "out"
    assert run_scenario(write(tmp_path, raw), out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "  support [1] -> (0, 1)\nhull of" in report
    assert "hull of fixed-leaf images equals moment polytope: no" in report


def test_local_cones_identity_can_print_no(tmp_path, monkeypatch):
    """With the stratum over the vertex (1, 0) dropped, its local cone no
    longer bounds the pooled system, which leaves only x_0 >= 0 in the plane:
    a ray, not the segment, and the report says so."""
    from momentlab import models

    support_strata = models.support_strata
    monkeypatch.setattr(models, "support_strata", lambda slice_: tuple(
        st for st in support_strata(slice_) if st.support != (0,)))
    raw = segment_raw()
    raw["analyses"] = ["slice-report"]
    out = tmp_path / "out"
    assert run_scenario(write(tmp_path, raw), out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "vertices: (0, 1), (1, 0)" in report
    assert "equals ambient image cut by the affine plane: yes" in report
    assert "intersection of local cones equals moment polytope: no" in report


@pytest.mark.parametrize("fault", ["vertex", "shifted"])
def test_affine_span_identity_can_print_no(tmp_path, monkeypatch, fault):
    """P's affine span read as its first vertex alone (no direction), or
    moved off the plane by e_0 (the right direction, the wrong base point):
    either way it is not lambda + the ideal's annihilator, and only that line
    of the report says no."""
    from momentlab import linalg, polyhedra
    from momentlab.presymlin import Subspace

    affine_span = polyhedra.affine_span

    def faulty(P):
        base, direction = affine_span(P)
        if fault == "vertex":
            return base, Subspace.zero(P.scalar_basis, P.dim)
        return linalg.vec_add(base, linalg.unit(P.scalar_basis, P.dim, 0)), direction

    monkeypatch.setattr(polyhedra, "affine_span", faulty)
    raw = segment_raw()
    raw["analyses"] = ["slice-report"]
    out = tmp_path / "out"
    assert run_scenario(write(tmp_path, raw), out_dir=out) == 0
    report = (out / "report.txt").read_text()
    assert "affine span is lambda + ideal annihilator: no" in report
    assert "equals ambient image cut by the affine plane: yes" in report
    assert "intersection of local cones equals moment polytope: yes" in report
    assert "rational: yes" in report


@pytest.mark.parametrize("fault", ["facet", "ray"])
def test_contact_identity_can_print_no(tmp_path, monkeypatch, fault):
    """A contact cone missing its first facet or its first ray does not slice
    back to the segment at level one.  The slice reads its H- and V-rep
    separately off the cone, so the report compares both, and says no."""
    import dataclasses

    from momentlab import polyhedra

    homogenize = polyhedra.homogenize

    def faulty(P):
        # drop the domain row or ray behind the cone's first public facet or ray
        cone = homogenize(P)
        D, dim = cone._D, cone.dim
        if fault == "facet":
            first = (cone.halfspaces[0],)
            kept = tuple(a for a in cone._facets
                         if polyhedra._scalar_rows(D, dim, [a], True) != first)
            assert len(kept) == len(cone._facets) - 1
            return dataclasses.replace(cone, _facets=kept)
        first = cone.vrep.rays[0]
        kept = tuple(g for g in cone._rays if polyhedra._to_scalars(D, g[:dim], True) != first)
        assert len(kept) == len(cone._rays) - 1
        return dataclasses.replace(cone, _rays=kept)

    monkeypatch.setattr(polyhedra, "homogenize", faulty)
    raw = segment_raw()
    raw["analyses"] = ["contact-cone"]
    out = tmp_path / "out"
    assert run_scenario(write(tmp_path, raw), out_dir=out) == 0
    report = (out / "report.txt").read_text()
    kept = "  rays: (1, 0, 1)\n" if fault == "ray" else "= 0\n  <(0, 1, 0), .> >= 0\n"
    assert kept in report
    assert "slice at level 1 equals moment polytope: no" in report


def ranked_slice_raw(rank, analyses, slice_field):
    """A slice through (1, ..., 1) in the sum-zero hyperplane, given by its
    normal or by a basis of direction vectors."""
    ones = ["1"] * rank
    raw = {"torus_rank": rank, "lambda": ones, "analyses": analyses, "xi": ones}
    if slice_field == "direction_normals":
        raw["direction_normals"] = [ones]
    else:
        raw["direction"] = [["0"] * i + ["1", "-1"] + ["0"] * (rank - 2 - i)
                            for i in range(rank - 1)]
    return raw


@pytest.mark.parametrize(
    "rank, analyses, slice_field",
    [(7, ["slice-report"], "direction_normals"), (7, ["morse"], "direction"),
     (6, ["contact-cone"], "direction_normals"), (6, ["slice-report", "contact-cone"], "direction")],
)
def test_torus_rank_beyond_polytope_limit_exits_2(tmp_path, capsys, rank, analyses, slice_field):
    """The polytope engine lifts a slice's torus rank by one coordinate, and a
    contact cone by one more, up to polyhedra.MAX_DIM = 7: a larger rank is
    rejected before anything runs, naming torus_rank, and one less passes."""
    path = write(tmp_path, ranked_slice_raw(rank, analyses, slice_field))
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    limit = 5 if "contact-cone" in analyses else 6
    assert f"field 'torus_rank': must be at most {limit} for a slice" in capsys.readouterr().err
    smaller = write(tmp_path, ranked_slice_raw(rank - 1, analyses, slice_field), "smaller.json")
    assert validate_scenario(smaller) == 0


FUZZ_FIELDS = ("name", "constants", "torus_rank", "lambda", "direction_normals",
               "direction", "analyses", "xi", "seed", "samples", "t_max", "weights",
               "masked", "points", "curve", "family")
# fields that change the loaded model even when the scenario does not set them
MODEL_FIELDS = ("constants", "lambda", "direction_normals", "direction", "weights", "points")
FUZZ_VALUES = (None, True, -5, 0, -1.5, 1e308, float("nan"), "x", "1/0", "", [], {},
               ["1/0", "0"], [[]], [["1/0"]], [1, 2], {"kind": "circle"})


@pytest.mark.parametrize("scenario", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_field_fuzz_never_exits_3(tmp_path, capsys, scenario):
    """Replace one top-level field at a time; malformed input must exit 2.

    Accepted inputs are run too, unless the field is one the scenario neither
    sets nor needs for its model (such runs repeat the unmodified scenario).
    """
    base = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    if "samples" in base:
        base["samples"] = 100
    for field in FUZZ_FIELDS:
        for value in FUZZ_VALUES:
            path = write(tmp_path, dict(base, **{field: value}))
            code = validate_scenario(path)
            assert code in (0, 2), (field, value)
            if code == 0 and (field in base or field in MODEL_FIELDS):
                assert run_scenario(path, out_dir=tmp_path / "out") in (0, 2), (field, value)
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "curve",
    [
        {"kind": "circle", "center": [1.0, 1.0], "radius": float("inf")},
        {"kind": "circle", "center": "xy", "radius": 1.2},
        {"kind": "circle", "center": [1.0], "radius": 1.2},
        {"kind": "ellipse", "center": [1.0, 1.0], "semi_x": 1.2, "semi_y": 0.9,
         "angle": float("nan")},
    ],
)
def test_bad_curve_parameter_exits_2(tmp_path, capsys, curve):
    raw = json.loads((SCENARIOS / "circle_nonconvex.json").read_text())
    raw["curve"] = curve
    raw["samples"] = 100
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "field 'curve'" in err and "internal error" not in err


def test_circle_touching_the_orthant_at_the_origin_exits_2(tmp_path, capsys):
    """A circle that meets the orthant only at the origin validates, and its
    run exits 2 at sampling, before any distance is measured."""
    raw = json.loads((SCENARIOS / "circle_nonconvex.json").read_text())
    raw["curve"] = {"kind": "circle", "center": [-1.0, -1.0], "radius": 2 ** 0.5}
    raw["samples"] = 100
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 0
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: curve misses the orthant\n"
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize(
    "curve",
    [
        {"kind": "circle", "center": [1.0, 1.0], "radius": 1e308},
        {"kind": "circle", "center": [1e308, 1.0], "radius": 1.2},
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_curve_exits_2(tmp_path, capsys, curve):
    # finite parameters whose samples overflow: no inf or nan in the report,
    # and no numpy warning ahead of the one error line
    raw = json.loads((SCENARIOS / "circle_nonconvex.json").read_text())
    raw["curve"] = curve
    raw["samples"] = 100
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 0
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "field 'curve'" in err and "internal error" not in err
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("member", [0, 1])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_family_member_exits_2(tmp_path, capsys, member):
    raw = json.loads((SCENARIOS / "deformation.json").read_text())
    raw["family"][member] = {"kind": "circle", "center": [1e308, 1.0], "radius": 1.2}
    raw["samples"] = 100
    path = write(tmp_path, raw)
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "field 'family[0]'" in err and "family[1]" in err
    assert "internal error" not in err
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0, 0.0, 10**400],
                         ids=["nan", "inf", "-inf", "0", "0.0", "huge"])
@pytest.mark.parametrize("name", ["sqrt2", "c"])
def test_nonfinite_or_zero_constant_exits_2(tmp_path, capsys, name, value):
    """A nan sqrt2 used to pass the sqrt check (a comparison with nan is
    false) and ran with the sign of the constant read as negative."""
    raw = json.loads((SCENARIOS / "quasifold.json").read_text())
    raw["constants"] = {name: value}
    if name == "c":
        raw["direction_normals"] = [["1", "c"]]
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "field 'constants'" in err and "internal error" not in err


@pytest.mark.parametrize("constant", [{"sqrt4": 2.0}, {"c": {"value": 1.5, "square": 2.25}},
                                      {"sqrt9": 3}],
                         ids=["sqrt4", "declared-2.25", "sqrt9"])
def test_rational_declared_square_exits_2(tmp_path, capsys, constant):
    """A constant whose declared square is the square of a rational is a
    rational number: sqrt4 = 2 used to run, and the rational line (1, 2) was
    reported irrational on every rationality line."""
    (name,) = constant
    raw = {"constants": constant, "torus_rank": 2, "lambda": ["1", "0"],
           "direction_normals": [["1", name]], "analyses": ["slice-report", "quasifold"]}
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "field 'constants'" in err and "rational square" in err
    assert not (tmp_path / "out" / "report.txt").exists()


def test_direction_and_direction_normals_together_exit_2(tmp_path, capsys):
    """direction used to be ignored silently when direction_normals was
    given as well."""
    raw = segment_raw()
    raw["direction"] = [["1", "-1"]]
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert "field 'direction': give direction or direction_normals, not both" in (
        capsys.readouterr().err)


def test_repeated_analysis_exits_2(tmp_path, capsys):
    """A repeated analysis used to run, and print its section, twice."""
    raw = segment_raw()
    raw["analyses"] = ["morse", "slice-report", "morse"]
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert "field 'analyses': lists an analysis more than once" in capsys.readouterr().err


def test_family_of_mixed_ambient_dimensions_exits_2(tmp_path, capsys):
    """An affine piece in R^2 next to one in R^3 used to validate and then
    exit 3 in the deformation scan, when numpy failed to broadcast."""
    raw = json.loads((SCENARIOS / "deformation.json").read_text())
    raw["family"] = [
        {"kind": "affine", "basepoint": [1.0, 0.0], "direction": [-1.0, 1.0]},
        {"kind": "affine", "basepoint": [1.0, 0.0, 0.0], "direction": [-1.0, 1.0, 0.0]},
    ]
    raw["samples"] = 100
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "field 'family': family[1] lies in R^3, family[0] in R^2" in err
    assert "internal error" not in err


def test_point_off_the_slice_exits_2(tmp_path, capsys):
    """A point whose moment value misses the slice's plane used to validate,
    and the run then failed without naming the field."""
    raw = segment_raw()
    raw["lambda"] = ["1", "1"]
    raw["points"] = [[1, 1]]
    raw["analyses"] = ["slice-report"]
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("field 'points': point 0: point does not lie on the slice") == 2
    raw["points"] = [[2, 0]]  # mu = (2, 0): on the plane mu_0 + mu_1 = 1 + 1
    assert validate_scenario(write(tmp_path, raw)) == 0


def test_constant_without_a_square_exits_2(tmp_path, capsys):
    """A declared constant with no square, used or not, is no product of
    square roots, so exact arithmetic would refuse it at the first
    irrational row; the scenario exits 2 naming it."""
    raw = json.loads((SCENARIOS / "quasifold.json").read_text())
    raw["constants"]["c"] = 0.5
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert "field 'constants': c has no square" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("constants, message", [
    ({"sqrt2": 2 ** 0.5, "sqrt3": 3 ** 0.5, "sqrt6": 6 ** 0.5},
     "sqrt2*sqrt3*sqrt6 has the rational square 36"),
    ({"sqrt2": 2 ** 0.5, "sqrt8": 8 ** 0.5}, "sqrt2*sqrt8 has the rational square 16"),
    ({"a": {"value": 1.5 ** 0.5, "square": 1.5}, "b": {"value": 6 ** 0.5, "square": 6}},
     "a*b has the rational square 9"),
    ({"sqrt2": 2 ** 0.5, "sqrt3": 3 ** 0.5, "sqrt5": 5 ** 0.5, "sqrt7": 7 ** 0.5},
     "at most three square roots"),
], ids=["2-3-6", "2-8", "3/2-6", "four"])
def test_dependent_or_too_many_square_roots_exit_2(tmp_path, capsys, constants, message):
    """Every nonempty subset of the radicands must multiply to a non-square:
    sqrt2, sqrt3 and sqrt6 pass each pairwise check, yet their product is
    6, rational, and the constants 1, sqrt2, sqrt3, sqrt6 and their products
    would be dependent over the rationals.  A fourth root is refused too."""
    raw = {"constants": constants, "torus_rank": 2, "lambda": ["1", "0"],
           "direction_normals": [["1", "1"]], "analyses": ["slice-report"]}
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert f"field 'constants': {message}" in capsys.readouterr().err


@pytest.mark.parametrize("constants, message", [
    ({"sqrt2": -(2 ** 0.5)}, "sqrt2: value -1.4142135623730951 does not match sqrt(2)"),
    ({"c": {"value": 1.5, "square": 2}}, "c: value 1.5 does not match sqrt(2)"),
    ({"c": {"value": 1.5, "square": "2.25"}}, "c: square must be a positive number"),
    ({"c": {"value": 1.5, "square": 0}}, "c: square must be a positive number"),
], ids=["negative-root", "wrong-root", "square-as-text", "zero-square"])
def test_root_not_matching_a_positive_square_exits_2(tmp_path, capsys, constants, message):
    """A scenario's root is the positive root of a positive number: the
    library builds a negative root, but a scenario's value must match the
    square's positive root within 1e-6."""
    raw = {"constants": constants, "torus_rank": 2, "lambda": ["1", "0"],
           "direction_normals": [["1", "1"]], "analyses": ["slice-report"]}
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert f"field 'constants': {message}" in capsys.readouterr().err


def test_square_roots_are_closed_under_products():
    """The basis lists the products of the roots by bitmask, a product of
    sqrt<k> constants named sqrt<n>, any other by its factors' names."""
    b = _build_basis({"constants": {f"sqrt{k}": k ** 0.5 for k in (2, 3, 5)}})
    assert b.names == ("one", "sqrt2", "sqrt3", "sqrt6", "sqrt5", "sqrt10", "sqrt15", "sqrt30")
    assert b.squares == (1, 2, 3, 6, 5, 10, 15, 30)
    assert b.constant("sqrt6") * b.constant("sqrt10") == b.constant("sqrt15").scale(2)
    assert b.ring().domain is b.ring().domain
    b = _build_basis({"constants": {"a": {"value": 1.5 ** 0.5, "square": 1.5}, "sqrt2": 2 ** 0.5}})
    assert b.names == ("one", "a", "sqrt2", "a_sqrt2")
    assert abs(b.float_values[3] - 3 ** 0.5) < 1e-12


def test_two_roots_report_matches_golden_copy(tmp_path):
    """Two square roots run end to end on Z[sqrt2, sqrt3], which holds sqrt6,
    the declared roots' product.  The golden report's rationality and
    quasilattice lines, by hand:

    - the null ideal is the line of n = (1, sqrt2, sqrt3).  Its coefficient
      rows on 1, sqrt2 and sqrt3 are the three unit vectors, so the smallest
      rational subspace containing it is R^3, of dimension 3 > 1: the ideal
      is not rational and the null subgroup is not closed;
    - the polytope is the triangle x >= 0, <n, x> = 1, with vertices e0,
      e1/sqrt2 = (0, 1/2*sqrt2, 0) and e2/sqrt3 = (0, 0, 1/3*sqrt3).  Its
      equality normal n is irrational, so the fan is not rational: "rational:
      no", in agreement with the null subgroup;
    - the quotient by the ideal has dimension 2, with coordinates the
      annihilator rows (1, 0, -1/3*sqrt3) and (0, 1, -1/3*sqrt6), both
      orthogonal to n since sqrt3*sqrt3/3 = 1 and sqrt2 = sqrt6*sqrt3/3.
      The images of the unit vectors are their columns (1, 0), (0, 1) and
      (-1/3*sqrt3, -1/3*sqrt6).  The coefficient rows of the annihilator,
      on 1: (1, 0, 0) and (0, 1, 0), on sqrt3: (0, 0, -1/3), and on sqrt6:
      (0, 0, -1/3), span a space of dimension 3, so the quasilattice has
      rank 3 of expected 2.
    """
    assert validate_scenario(TWO_ROOTS) == 0
    assert run_scenario(TWO_ROOTS, out_dir=tmp_path) == 0
    report = (tmp_path / "report.txt").read_text()
    assert report == (TWO_ROOTS.parent / "two_roots_report.txt").read_text()
    assert "constants: sqrt2=1.41421356237, sqrt3=1.73205080757, sqrt6=2.44948974278" in report
    assert "rank: 3 of expected 2" in report and "rational: no" in report


def test_irrational_xi_report_matches_golden_copy(tmp_path):
    """The two_roots slice with the irrational Morse direction
    xi = (sqrt3, -1, 1/2*sqrt2): eta, its normal pairings and the indices
    match the golden copy byte for byte.  By hand, on support [0] eta
    vanishes at 0 and agrees with xi on the direction rows (1, 0, -1/3*sqrt3)
    and (0, 1, -1/3*sqrt6), so eta = (0, -1 - sqrt6, -3 + 1/2*sqrt2): both
    pairings negative, index 4."""
    scenario = TWO_ROOTS.parent / "irrational_xi.json"
    assert validate_scenario(scenario) == 0
    assert run_scenario(scenario, out_dir=tmp_path) == 0
    report = (tmp_path / "report.txt").read_text()
    assert report == (TWO_ROOTS.parent / "irrational_xi_report.txt").read_text()
    assert [line.split(",")[1] for line in report.splitlines() if "index" in line] == [
        " index 4", " index 0", " index 2"]
    assert "eta (0, -1 - sqrt6, -3 + 1/2*sqrt2)" in report


def test_three_roots_report_matches_golden_copy(tmp_path):
    """Three square roots run end to end on Z[sqrt2, sqrt3, sqrt5]; the
    constants are the seven products of the roots, named sqrt<n> up to
    sqrt30, and the report matches the golden copy byte for byte."""
    scenario = TWO_ROOTS.parent / "three_roots.json"
    assert validate_scenario(scenario) == 0
    assert run_scenario(scenario, out_dir=tmp_path) == 0
    report = (tmp_path / "report.txt").read_text()
    assert report == (TWO_ROOTS.parent / "three_roots_report.txt").read_text()
    assert "sqrt10=3.16227766017, sqrt15=3.87298334621, sqrt30=5.47722557505" in report


def test_masked_points_report_matches_golden_copy(tmp_path):
    """Explicit points of a rank-3 module with masked coordinates 3 and 4,
    weights e0, e1, e0 + e1, e2 and e0 - e1 + e2, byte for byte.  By hand:

    - point 1 has support [0, 1, 2], whose weights are unmasked and of rank
      2: symplectic slice dim 2 * (3 - 2) = 2, and null slice dim
      2 * 2 - 2 + 2 = 4, the masked slots;
    - point 2 has support [3, 4], masked only: the leaf stabilizer is all of
      R^3, while stabilizer + null ideal is ker{e2, e0 - e1 + e2} + R e2,
      spanned by (1, 1, 0) and (0, 0, 1), so the point is not clean.
    """
    scenario = TWO_ROOTS.parent / "masked_points.json"
    assert validate_scenario(scenario) == 0
    assert run_scenario(scenario, out_dir=tmp_path) == 0
    report = (tmp_path / "report.txt").read_text()
    assert report == (TWO_ROOTS.parent / "masked_points_report.txt").read_text()
    assert "point 2 (support [3, 4]): clean=no" in report
    assert "symplectic slice dim 2, null slice dim 4, symplectization slice dim 10" in report


def test_slice_points_report_matches_golden_copy(tmp_path):
    """Explicit points on the two_roots slice <(1, sqrt2, sqrt3), x> = 1,
    with irrational moment values, byte for byte.  By hand, point 1 has
    moment value (1 - 1/2*sqrt2, 1/2, 0) and support [0, 1]: its leaf
    stabilizer is the null ideal plus ker{e0, e1}, spanned by (1, sqrt2, 0)
    and (0, 0, 1), and its symplectic slice is the one unsupported line."""
    scenario = TWO_ROOTS.parent / "slice_points.json"
    assert validate_scenario(scenario) == 0
    assert run_scenario(scenario, out_dir=tmp_path) == 0
    report = (tmp_path / "report.txt").read_text()
    assert report == (TWO_ROOTS.parent / "slice_points_report.txt").read_text()
    assert "    (1, sqrt2, 0)\n    (0, 0, 1)\n  stabilizer + null ideal:" in report


@pytest.mark.parametrize("field", ["t_max", "constants"])
def test_integer_beyond_double_range_exits_2(tmp_path, capsys, field):
    """JSON integers are unbounded; one past the double range used to reach
    float() and exit 3."""
    raw = json.loads((SCENARIOS / "quasifold.json").read_text())
    if field == "t_max":
        raw["analyses"] = ["contact-cone"]
        raw["t_max"] = 10**400
    else:
        raw["constants"] = {"sqrt2": {"value": 1.4142135623730951, "square": 10**400}}
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"field {field!r}" in err and "internal error" not in err


def nested_paths(raw):
    """Key paths of every entry inside constants, curve and family."""
    for field in ("constants", "curve"):
        for key in raw.get(field, {}):
            yield (field, key)
    for i, curve in enumerate(raw.get("family", [])):
        yield ("family", i)
        for key in curve:
            yield ("family", i, key)


def replaced(raw, path, value):
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


NESTED_SCENARIOS = sorted(
    p.stem for p in SCENARIOS.glob("*.json") if any(nested_paths(json.loads(p.read_text())))
)
NESTED_VALUES = FUZZ_VALUES + (float("inf"), [1.0], [1.0, "x"], [1.0, float("inf")])


@pytest.mark.parametrize("scenario", NESTED_SCENARIOS)
def test_nested_field_fuzz_never_exits_3(tmp_path, capsys, scenario):
    """Replace one entry at a time inside constants, curve and family; every
    accepted input is run, since the scenario reads each of those entries."""
    base = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    base["samples"] = 100
    for path in nested_paths(base):
        for value in NESTED_VALUES:
            scenario_path = write(tmp_path, replaced(base, path, value))
            code = validate_scenario(scenario_path)
            assert code in (0, 2), (path, value)
            if code == 0:
                assert run_scenario(scenario_path, out_dir=tmp_path / "out") in (0, 2), (path, value)
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["quasifold", "product_counterexample"])
def test_exact_report_matches_recorded_digest(tmp_path, scenario):
    """The exact scenarios' reports hold no sampled floats, so their bytes
    must match the digests recorded for the benchmark."""
    want = json.loads(EXPECTED.read_text())["scenario_files"][scenario]["report.txt"]
    assert run_scenario(SCENARIOS / f"{scenario}.json", out_dir=tmp_path) == 0
    assert hashlib.sha256((tmp_path / "report.txt").read_bytes()).hexdigest() == want


def test_segment_report_matches_golden_copy(tmp_path):
    """segment's report, the contact-cone section included, byte for byte as
    the committed copy, with its one float line (the sampled H-rep residual,
    which numpy computes) left out, so the comparison holds on any machine."""
    assert run_scenario(SCENARIOS / "segment.json", out_dir=tmp_path) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines(keepends=True)
    exact = [line for line in lines if not line.startswith("max H-rep residual ")]
    assert len(exact) == len(lines) - 1
    assert "".join(exact) == SEGMENT_GOLDEN.read_text()


# -- fresh interpreters: exact runs leave numpy unloaded -----------------------------

PACKAGE_ROOT = str(Path(momentlab.__file__).resolve().parent.parent)
RUN_IN_FRESH_PROCESS = """
import json, sys
from momentlab.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps("numpy" in sys.modules))
sys.exit(code)
"""


def run_fresh(args):
    """momentlab.cli.main(args) in a new interpreter: (exit code, stderr,
    whether numpy was imported by the end of the run)."""
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_IN_FRESH_PROCESS, json.dumps(args)],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stderr, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("scenario", ["quasifold", "product_counterexample"])
def test_exact_scenarios_never_import_numpy(tmp_path, scenario):
    path = str(SCENARIOS / f"{scenario}.json")
    for args in (["validate", path], ["run", path, "--out", str(tmp_path)]):
        assert run_fresh(args) == (0, "", False), args


def test_float_scenario_imports_numpy(tmp_path):
    raw = json.loads((SCENARIOS / "circle_nonconvex.json").read_text())
    raw["samples"] = 100
    assert run_fresh(["run", str(write(tmp_path, raw)), "--out", str(tmp_path / "out")]) == (
        0, "", True)


@pytest.mark.parametrize(
    "curve, message",
    [
        ({"kind": "circle", "center": [1.0, 1.0], "radius": -1.0},
         "field 'curve': radius must be positive"),
        ({"kind": "ellipse", "center": [1.0], "semi_x": 1.2, "semi_y": 0.9},
         "field 'curve': center must be a length-2 vector of finite numbers"),
    ],
)
def test_bad_curve_exits_2_in_a_fresh_process(tmp_path, curve, message):
    raw = json.loads((SCENARIOS / "circle_nonconvex.json").read_text())
    raw["curve"] = curve
    path = str(write(tmp_path, raw))
    for args in (["validate", path], ["run", path, "--out", str(tmp_path / "out")]):
        code, err, _ = run_fresh(args)
        assert (code, err) == (2, f"error: {message}\n"), args

