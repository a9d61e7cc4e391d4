import numpy as np
import pytest

from momentlab.reporting import emit_csv, emit_svg, fmt_float


def reference_csv(points):
    """emit_csv's bytes with fmt_float applied to one value at a time."""
    points = np.atleast_2d(points)
    names = ["x", "y", "z"] + [f"c{i}" for i in range(3, points.shape[1])]
    rows = [",".join(names[: points.shape[1]])]
    for p in points:
        rows.append(",".join(fmt_float(v) for v in p))
    return "\n".join(rows) + "\n"


def reference_svg(points, size=480):
    """emit_svg's bytes with fmt_float applied to one value at a time."""
    span = max(float(points.max(initial=1.0)), 1.0) * 1.1
    margin = 0.05 * size

    def sx(x):
        return margin + (x / span) * (size - 2 * margin)

    def sy(y):
        return size - margin - (y / span) * (size - 2 * margin)

    poly = " ".join(f"{fmt_float(sx(x))},{fmt_float(sy(y))}" for x, y in points)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<line x1="{fmt_float(sx(0))}" y1="{fmt_float(sy(0))}" '
        f'x2="{fmt_float(sx(span))}" y2="{fmt_float(sy(0))}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{fmt_float(sx(0))}" y1="{fmt_float(sy(0))}" '
        f'x2="{fmt_float(sx(0))}" y2="{fmt_float(sy(span))}" '
        'stroke="black" stroke-width="1"/>',
        f'<polyline points="{poly}" fill="none" stroke="crimson" '
        'stroke-width="1.5"/>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


EDGE_VALUES = [0.0, -0.0, 1e-20, -1e-20, 5e-324, -5e-324, 1e300, -1e300, 0.1, 2.0 / 3.0,
               123456789012345.0, np.nan, np.inf, -np.inf]

CLOUDS = {
    "seeded-2d": np.random.default_rng(1).uniform(0.0, 2.0, (500, 2)),
    "edge-values-2d": np.array(EDGE_VALUES + EDGE_VALUES[::-1]).reshape(-1, 2),
    "negative-zeros": np.array([[-0.0, 0.5], [0.25, -0.0], [-0.0, -0.0]]),
    "one-dimensional": np.array([-0.0, 1e-20]),
    "three-columns": np.array(EDGE_VALUES[:12]).reshape(-1, 3),
    "four-columns": np.random.default_rng(2).normal(size=(50, 4)) * 1e-7,
    "integers": np.array([[1, 2], [3, 4]]),
    "no-rows": np.empty((0, 2)),
}


@pytest.mark.parametrize("points", CLOUDS.values(), ids=CLOUDS.keys())
def test_csv_bytes_match_per_value_formatting(tmp_path, points):
    emit_csv(points, tmp_path / "cloud.csv")
    assert (tmp_path / "cloud.csv").read_text() == reference_csv(points)


def test_csv_headers_name_extra_columns(tmp_path):
    emit_csv(CLOUDS["four-columns"], tmp_path / "cloud.csv")
    assert (tmp_path / "cloud.csv").read_text().splitlines()[0] == "x,y,z,c3"


SVG_CLOUDS = {k: v for k, v in CLOUDS.items() if np.ndim(v) == 2 and v.shape[1] == 2}
SVG_CLOUDS["large"] = np.array([[1e300, 5e-324], [-0.0, 3.0], [2.5, -1e-20]])


@pytest.mark.parametrize("points", SVG_CLOUDS.values(), ids=SVG_CLOUDS.keys())
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_svg_bytes_match_per_value_formatting(tmp_path, points):
    emit_svg(points, tmp_path / "cloud.svg")
    assert (tmp_path / "cloud.svg").read_text() == reference_svg(points)

