"""Seeded Monte Carlo engine for moment images of curve slices: nonconvexity
defects, deformation families and contact cones.

Everything here is floating point; the exact engine owns the polyhedral
geometry.  Sampling is uniform in the curve parameter (not arclength), which
is a documented bias that none of the defect metrics are sensitive to at the
sample sizes used.  Clouds are reproducible from (spec, n, seed) and
independent of any chunking: curve parameters are drawn in blocks that stop
at n orthant hits, from one generator stream.

Deformation scans compare clouds by an exact pruned Hausdorff distance: coarse
upper bounds rule out the points that cannot attain it, and every distance
that is computed is computed as the dense search would, so the result is the
dense one bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

RADIAL_TOL = 1e-6
# largest block of parameters sample_image draws and evaluates at once
_MAX_BLOCK = 1 << 20
# _hausdorff bounds each query's nearest distance by every _COARSE_STRIDE-th
# reference point and takes its lower bound from the _TOP largest bounds
_COARSE_STRIDE = 16
_TOP = 32

# Finite curve parameters can still overflow double precision.  The functions
# below return inf or nan then, without a numpy warning; callers check the
# results for finiteness (the cli exits 2 naming the curve).
_overflow_quiet = np.errstate(over="ignore", invalid="ignore")


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class CurveSpec:
    """A parametrized curve (or affine piece) in the moment codomain."""

    kind: str
    ambient_dim: int
    params: dict

    def __post_init__(self):
        if self.kind not in ("affine", "circle", "ellipse", "trig-graph"):
            raise SamplerError(f"unknown curve kind {self.kind!r}")


def _finite(name: str, value) -> float:
    """value as a float; SamplerError naming the parameter unless it is a
    finite real number."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or not math.isfinite(value):
        raise SamplerError(f"{name} must be a finite number")
    return float(value)


def _finite_vector(name: str, value, length: int | None = None) -> tuple[float, ...]:
    """value as a tuple of floats; SamplerError naming the parameter unless it
    is a nonempty list of finite numbers (of the given length)."""
    n = len(value) if isinstance(value, (list, tuple, np.ndarray)) else 0
    if n == 0 or (length is not None and n != length):
        size = f"length-{length}" if length is not None else "nonempty"
        raise SamplerError(f"{name} must be a {size} vector of finite numbers")
    return tuple(_finite(f"{name}[{i}]", x) for i, x in enumerate(value))


def affine_spec(
    basepoint: Sequence[float],
    direction: Sequence[float],
    param_range: tuple[float, float] | None = None,
) -> CurveSpec:
    b = _finite_vector("basepoint", basepoint)
    u = _finite_vector("direction", direction)
    if len(b) != len(u):
        raise SamplerError("basepoint and direction must be equal-length vectors")
    return CurveSpec(
        "affine",
        len(b),
        {"basepoint": b, "direction": u,
         "param_range": _finite_vector("param_range", param_range, 2) if param_range else None},
    )


def circle_spec(center: Sequence[float], radius: float) -> CurveSpec:
    center, radius = _finite_vector("center", center, 2), _finite("radius", radius)
    if radius <= 0:
        raise SamplerError("radius must be positive")
    return CurveSpec("circle", 2, {"center": center, "radius": radius})


def ellipse_spec(
    center: Sequence[float], semi_x: float, semi_y: float, angle: float = 0.0
) -> CurveSpec:
    center = _finite_vector("center", center, 2)
    semi_x, semi_y = _finite("semi_x", semi_x), _finite("semi_y", semi_y)
    if semi_x <= 0 or semi_y <= 0:
        raise SamplerError("semi-axes must be positive")
    return CurveSpec(
        "ellipse",
        2,
        {"center": center, "semi_x": semi_x, "semi_y": semi_y,
         "angle": _finite("angle", angle)},
    )


def trig_graph_spec(
    x_range: tuple[float, float],
    offset: float,
    amplitude: float,
    frequency: float = 1.0,
    phase: float = 0.0,
) -> CurveSpec:
    return CurveSpec(
        "trig-graph",
        2,
        {"x_range": _finite_vector("x_range", x_range, 2),
         "offset": _finite("offset", offset), "amplitude": _finite("amplitude", amplitude),
         "frequency": _finite("frequency", frequency), "phase": _finite("phase", phase)},
    )


@dataclass(frozen=True, eq=False)
class PointCloud:
    points: np.ndarray
    params: np.ndarray
    seed: int
    count: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "count", len(self.points))


def evaluate(spec: CurveSpec, t: np.ndarray) -> np.ndarray:
    p = spec.params
    t = np.asarray(t, dtype=float)
    if spec.kind == "affine":
        b = np.asarray(p["basepoint"])
        u = np.asarray(p["direction"])
        return b[None, :] + t[:, None] * u[None, :]
    if spec.kind == "circle":
        c = np.asarray(p["center"])
        r = p["radius"]
        return np.stack([c[0] + r * np.cos(t), c[1] + r * np.sin(t)], axis=1)
    if spec.kind == "ellipse":
        c = np.asarray(p["center"])
        a, b_, ang = p["semi_x"], p["semi_y"], p["angle"]
        x, y = a * np.cos(t), b_ * np.sin(t)
        ca, sa = np.cos(ang), np.sin(ang)
        return np.stack(
            [c[0] + ca * x - sa * y, c[1] + sa * x + ca * y], axis=1
        )
    x = t
    y = p["offset"] + p["amplitude"] * np.sin(p["frequency"] * x + p["phase"])
    return np.stack([x, y], axis=1)


def tangent(spec: CurveSpec, t: np.ndarray) -> np.ndarray:
    p = spec.params
    t = np.asarray(t, dtype=float)
    if spec.kind == "affine":
        u = np.asarray(p["direction"])
        return np.broadcast_to(u, (len(t), len(u))).copy()
    if spec.kind == "circle":
        r = p["radius"]
        return np.stack([-r * np.sin(t), r * np.cos(t)], axis=1)
    if spec.kind == "ellipse":
        a, b_, ang = p["semi_x"], p["semi_y"], p["angle"]
        dx, dy = -a * np.sin(t), b_ * np.cos(t)
        ca, sa = np.cos(ang), np.sin(ang)
        return np.stack([ca * dx - sa * dy, sa * dx + ca * dy], axis=1)
    dy = p["amplitude"] * p["frequency"] * np.cos(p["frequency"] * t + p["phase"])
    return np.stack([np.ones_like(t), dy], axis=1)


def _param_domain(spec: CurveSpec) -> tuple[float, float]:
    p = spec.params
    if spec.kind == "affine":
        rng = p.get("param_range")
        if rng is not None:
            return rng
        # exact feasible interval of the orthant filter
        b = np.asarray(p["basepoint"])
        u = np.asarray(p["direction"])
        lo, hi = -np.inf, np.inf
        for bi, ui in zip(b, u):
            if ui > 0:
                lo = max(lo, -bi / ui)
            elif ui < 0:
                hi = min(hi, -bi / ui)
            elif bi < 0:
                raise SamplerError("curve misses the orthant")
        if not np.isfinite(lo) or not np.isfinite(hi):
            raise SamplerError(
                "affine piece is unbounded in the orthant; give param_range"
            )
        if lo > hi:
            raise SamplerError("curve misses the orthant")
        return lo, hi
    if spec.kind in ("circle", "ellipse"):
        return 0.0, 2.0 * np.pi
    return p["x_range"]


def sample_image(spec: CurveSpec, n: int, seed: int) -> PointCloud:
    """n parameter-uniform points of the curve inside the orthant.

    Affine pieces use an inclusive grid over the exact feasible interval so
    the endpoints are hit; periodic and graph curves draw up to 100 n
    parameters and keep the first n orthant hits.  The draws come in blocks
    of at most _MAX_BLOCK that stop at n hits; the generator yields the same
    stream block by block as in one call, so the cloud is that of one call.
    """
    if n < 1:
        raise SamplerError("n must be at least 1")
    lo, hi = _param_domain(spec)
    if spec.kind == "affine":
        t = np.linspace(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2.0])
        pts = evaluate(spec, t)
        keep = np.all(pts >= -1e-12, axis=1)
        t, pts = t[keep], pts[keep]
        if len(pts) == 0:
            raise SamplerError("curve misses the orthant")
        return PointCloud(pts, t, seed)
    rng = np.random.default_rng(seed)
    budget, drawn, hits, size = 100 * n, 0, 0, n
    kept_t, kept_pts = [], []
    while hits < n and drawn < budget:
        size = min(size, _MAX_BLOCK, budget - drawn)
        t = rng.uniform(lo, hi, size)
        pts = evaluate(spec, t)
        keep = np.all(pts >= 0.0, axis=1)
        kept_t.append(t[keep])
        kept_pts.append(pts[keep])
        hits += len(kept_t[-1])
        drawn += size
        # size the next block from the hit rate so far, with a quarter to spare
        size = 2 * size if hits == 0 else 5 * (n - hits) * drawn // (4 * hits) + 1
    t, pts = np.concatenate(kept_t)[:n], np.concatenate(kept_pts)[:n]
    if len(pts) == 0:
        raise SamplerError("curve misses the orthant")
    order = np.argsort(t, kind="stable")
    return PointCloud(pts[order], t[order], seed)


@_overflow_quiet
def lift_to_slice(spec: CurveSpec, y: Sequence[float], angles: int) -> np.ndarray:
    """A point upstairs with |x_j|^2 / 2 = y_j and seeded phases."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise SamplerError("cannot lift a point with a negative coordinate")
    rng = np.random.default_rng(angles)
    theta = rng.uniform(0.0, 2.0 * np.pi, len(y))
    return np.sqrt(2.0 * y) * np.exp(1j * theta)


@_overflow_quiet
def lift_cloud(cloud: PointCloud, angles: int) -> np.ndarray:
    y = cloud.points
    if np.any(y < -1e-12):
        raise SamplerError("cannot lift a cloud with negative coordinates")
    rng = np.random.default_rng(angles)
    theta = rng.uniform(0.0, 2.0 * np.pi, y.shape)
    return np.sqrt(2.0 * np.clip(y, 0.0, None)) * np.exp(1j * theta)


def moment_of_lift(x: np.ndarray) -> np.ndarray:
    return 0.5 * (np.abs(x) ** 2)


# -- distance oracles ---------------------------------------------------------


@_overflow_quiet
def distance_to_image(spec: CurveSpec, n_dense: int = 20000) -> Callable:
    """Distance function to (curve intersect orthant): exact projection for
    affine pieces and circles (with a dense fallback near the arc ends),
    dense polyline for the other kinds."""
    if spec.kind == "affine":
        lo, hi = _param_domain(spec)
        b = np.asarray(spec.params["basepoint"])
        u = np.asarray(spec.params["direction"])
        uu = float(u @ u)

        @_overflow_quiet
        def dist_affine(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(pts)
            t = ((pts - b) @ u) / uu
            t = np.clip(t, lo, hi)
            proj = b[None, :] + t[:, None] * u[None, :]
            return np.linalg.norm(pts - proj, axis=1)

        return dist_affine
    dense_t = np.linspace(*_param_domain(spec), n_dense)
    dense = evaluate(spec, dense_t)
    dense = dense[np.all(dense >= 0.0, axis=1)]
    if len(dense) == 0:
        raise SamplerError("curve misses the orthant")
    if spec.kind == "circle":
        c = np.asarray(spec.params["center"])
        r = spec.params["radius"]
        # axis crossings bound the arc components inside the orthant; when
        # the radial projection leaves the orthant the nearest arc point is
        # one of them
        ends = []
        for axis in (0, 1):
            disc = r * r - c[axis] ** 2
            if disc >= 0:
                for sign in (1.0, -1.0):
                    q = np.zeros(2)
                    q[axis] = 0.0
                    q[1 - axis] = c[1 - axis] + sign * np.sqrt(disc)
                    if np.all(q >= -1e-12):
                        ends.append(q)
        endpoints = np.array(ends) if ends else dense[:1]

        @_overflow_quiet
        def dist_circle(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(pts)
            delta = pts - c
            norms = np.linalg.norm(delta, axis=1)
            safe = norms > 1e-15
            proj = np.where(
                safe[:, None], c + r * delta / np.where(safe, norms, 1.0)[:, None],
                c + np.array([r, 0.0]),
            )
            radial = np.abs(norms - r)
            inside = np.all(proj >= -1e-12, axis=1)
            to_ends = np.linalg.norm(
                pts[:, None, :] - endpoints[None, :, :], axis=2
            ).min(axis=1)
            return np.where(inside, np.minimum(radial, to_ends), to_ends)

        return dist_circle

    @_overflow_quiet
    def dist_dense(pts: np.ndarray) -> np.ndarray:
        return _min_dist_chunked(np.atleast_2d(pts), dense)

    return dist_dense


@_overflow_quiet
def _min_sq_dist_chunked(pts: np.ndarray, ref: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Squared distance from each point to its nearest reference point."""
    out = np.empty(len(pts))
    for i in range(0, len(pts), chunk):
        block = pts[i : i + chunk]
        d2 = ((block[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        out[i : i + chunk] = d2.min(axis=1)
    return out


def _min_dist_chunked(pts: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.sqrt(_min_sq_dist_chunked(pts, ref))


@_overflow_quiet
def convexity_defect(
    cloud: PointCloud,
    membership: Callable,
    n_pairs: int = 50000,
    seed: int | None = None,
) -> float:
    """Largest distance from a sampled chord midpoint to the image set; zero
    in the limit exactly for convex images."""
    if cloud.count == 0:
        raise SamplerError("empty cloud")
    if cloud.count == 1:
        return 0.0
    rng = np.random.default_rng(cloud.seed if seed is None else seed)
    i = rng.integers(0, cloud.count, n_pairs)
    j = rng.integers(0, cloud.count, n_pairs)
    mid = 0.5 * (cloud.points[i] + cloud.points[j])
    return float(np.max(membership(mid)))


# -- deformation families --------------------------------------------------------


@dataclass(frozen=True)
class PairVerdict:
    first: int
    second: int
    translate_equivalent: bool
    hausdorff_after_shift: float


@dataclass(frozen=True)
class DeformationReport:
    clouds: tuple[PointCloud, ...]
    pairs: tuple[PairVerdict, ...]

    @property
    def presymplectically_nontrivial(self) -> bool:
        return any(not p.translate_equivalent for p in self.pairs)


def _directed_sq(A: np.ndarray, B: np.ndarray) -> float:
    """max over a in A of the squared distance to the nearest b in B, for
    finite clouds (Taha & Hanbury, IEEE TPAMI 2015).  The distance to every
    _COARSE_STRIDE-th point of B bounds each a's minimum from above.  The
    exact minima of the _TOP points with the largest bounds give a lower
    bound on the answer that is attained; only the points whose upper bound
    exceeds it can beat it, so only theirs are computed too."""
    upper = _min_sq_dist_chunked(A, B[::_COARSE_STRIDE])
    order = np.argsort(-upper)
    top, rest = order[:_TOP], order[_TOP:]
    best = float(_min_sq_dist_chunked(A[top], B).max())
    rest = rest[upper[rest] > best]
    return float(_min_sq_dist_chunked(A[rest], B).max(initial=best))


@_overflow_quiet
def _hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        # np.maximum keeps a nan from either side, which the builtin max can drop
        return float(
            np.maximum(_min_dist_chunked(A, B).max(), _min_dist_chunked(B, A).max())
        )
    # sqrt is monotone, so one root of the larger squared distance is exact
    return float(np.sqrt(max(_directed_sq(A, B), _directed_sq(B, A))))


@_overflow_quiet
def deformation_scan(
    family: Sequence[CurveSpec],
    n: int,
    seed: int,
    tolerance: float = 1e-3,
) -> DeformationReport:
    """Samples each member with the same seed and tests every pair of images
    for translate equivalence (centroid-aligned Hausdorff distance within the
    tolerance)."""
    clouds = tuple(sample_image(spec, n, seed) for spec in family)
    pairs = []
    for a in range(len(clouds)):
        for b in range(a + 1, len(clouds)):
            A, B = clouds[a].points, clouds[b].points
            shift = B.mean(axis=0) - A.mean(axis=0)
            h = _hausdorff(A + shift, B)
            pairs.append(PairVerdict(a, b, h <= tolerance, h))
    return DeformationReport(clouds, tuple(pairs))


# -- contact cones -----------------------------------------------------------------


def _unit_normals(spec: CurveSpec, t: np.ndarray) -> np.ndarray:
    tan = tangent(spec, t)
    normals = np.stack([-tan[:, 1], tan[:, 0]], axis=1)
    return normals / np.linalg.norm(normals, axis=1)[:, None]


def contact_cone_sample(
    spec: CurveSpec, n: int, t_max: float, seed: int
) -> PointCloud:
    """Points (t y, t) over the sampled image, after checking that the curve
    is nowhere radially tangent (contact-type condition)."""
    if spec.ambient_dim != 2:
        raise SamplerError("contact sampling is implemented for plane curves")
    base = sample_image(spec, n, seed)
    radial = np.sum(base.points * _unit_normals(spec, base.params), axis=1)
    # a sign change along the parameter is a zero crossing the sample grid
    # may have stepped over, so it counts as a tangency too
    crosses = bool(len(radial) > 1 and np.any(radial[:-1] * radial[1:] < 0))
    if crosses or float(np.abs(radial).min(initial=np.inf)) < RADIAL_TOL:
        raise SamplerError("not of contact type: radial tangency detected")
    rng = np.random.default_rng(seed + 1)
    t = rng.uniform(0.0, t_max, len(base.points)) if t_max > 0 else np.zeros(
        len(base.points)
    )
    pts = np.concatenate([t[:, None] * base.points, t[:, None]], axis=1)
    return PointCloud(pts, base.params, seed)
