"""Deterministic text, CSV and SVG emitters.

Float sections are formatted to 12 significant digits and exact sections in
the p/q(+r/s*c) form, so identical results produce identical bytes.
"""

from __future__ import annotations

from pathlib import Path
import numpy as np

from .linalg import Vector
from .polyhedra import Polyhedron
from .presymlin import Subspace


def fmt_float(v: float) -> str:
    out = f"{float(v):.12g}"
    return "0" if out == "-0" else out


def _format_rows(points: np.ndarray) -> list[str]:
    """Each row of a 2-D array as its entries printed by fmt_float, comma
    separated.  Adding 0.0 turns -0.0 into 0.0, the one value fmt_float
    rewrites."""
    template = ",".join(["%.12g"] * points.shape[1])
    return [template % tuple(row) for row in (points + 0.0).tolist()]


def fmt_vector(v: Vector) -> str:
    return "(" + ", ".join(str(e) for e in v) + ")"


def fmt_subspace(s: Subspace, indent: str = "  ") -> str:
    if s.dim == 0:
        return indent + "(zero subspace)"
    return "\n".join(indent + fmt_vector(r) for r in s.rows)


def fmt_polyhedron(P: Polyhedron, indent: str = "  ") -> str:
    lines = []
    if P.is_empty:
        return indent + "(empty)"
    for h in P.equalities:
        lines.append(f"{indent}<{fmt_vector(h.normal)}, .> = {h.offset}")
    for h in P.halfspaces:
        lines.append(f"{indent}<{fmt_vector(h.normal)}, .> >= {h.offset}")
    vs, rays = P.vrep.vertices, P.vrep.rays_with_lines
    lines.append(f"{indent}vertices: " + ", ".join(fmt_vector(v) for v in vs))
    if rays:
        lines.append(f"{indent}rays: " + ", ".join(fmt_vector(r) for r in rays))
    return "\n".join(lines)


def yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def emit_report(lines, path: Path) -> None:
    """Write the report lines as one deterministic text file."""
    path.write_text("\n".join(lines) + "\n")


def emit_csv(points: np.ndarray, path: Path) -> None:
    """Rows of coordinates, one point per line, 12 significant digits."""
    points = np.atleast_2d(points)
    names = ["x", "y", "z"] + [f"c{i}" for i in range(3, points.shape[1])]
    header = ",".join(names[: points.shape[1]])
    path.write_text("\n".join([header] + _format_rows(points)) + "\n")


def emit_svg(points: np.ndarray, path: Path, size: int = 480) -> None:
    """Polyline through the given 2-D points plus the two orthant axes."""
    points = np.atleast_2d(points)
    if points.shape[1] != 2:
        raise ValueError("SVG output needs 2-D points")
    span = max(float(points.max(initial=1.0)), 1.0) * 1.1
    margin = 0.05 * size

    def sx(x):
        return margin + (x / span) * (size - 2 * margin)

    def sy(y):
        return size - margin - (y / span) * (size - 2 * margin)

    poly = " ".join(_format_rows(np.stack([sx(points[:, 0]), sy(points[:, 1])], axis=1)))
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
    path.write_text("\n".join(parts) + "\n")
