import copy
import hashlib
import json
from pathlib import Path

import pytest

from momentlab.cli import main, run_scenario, validate_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# SHA-256 of every scenario output, recorded by the benchmark (read only here)
EXPECTED = SCENARIOS.parent / "bench" / "expected.json"


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
    ],
)
def test_boolean_integer_field_exits_2(tmp_path, capsys, raw, field):
    """JSON booleans are not integers, although Python's bool is an int."""
    path = write(tmp_path, raw)
    assert validate_scenario(path) == 2
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"field {field!r}" in err and "internal error" not in err


def test_broken_invariant_exits_3(tmp_path, capsys, monkeypatch):
    """An internal fault exits 3, not 2 like malformed input: here the form
    induced on the reduction's representatives reports one rank too many."""
    from momentlab import linalg, presymlin

    monkeypatch.setattr(
        presymlin.PresympForm, "rank", lambda self: linalg.rank(list(self.matrix)) + 1
    )
    assert run_scenario(SCENARIOS / "segment.json", out_dir=tmp_path / "out") == 3
    assert "internal error: AssertionError: induced form is degenerate" in capsys.readouterr().err


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
