"""Exact convex polyhedra over the extended scalars.

H-representations are canonicalized through a double-description round trip:
constraints -> generators -> irredundant facets.  Everything is exact.  The
double description loop runs fraction-free in the number domain that
scalars._domain picks for its rows: Z for rational data, Z[s] for a declared
quadratic surd, where signs follow the integer quadratic rule, and the
ExtScalars otherwise, whose signs come from ExtScalar.sign().  The signs
around the loop are decided in the same domain: vertices are divided out of
the homogenized rays, facets are reduced modulo the equalities and
deduplicated as canonical rays, and containment (contains, poly_equal)
evaluates every constraint row at every homogenized generator.  Sizes are
capped at desk scale, where the double description method is entirely
adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import lattice, linalg
from .linalg import Vector
from .presymlin import Subspace
from .scalars import (
    BasisMismatchError,
    ConstantBasis,
    ExtScalar,
    ScalarError,
    _Domain,
    _domain,
    parse_scalar,
)

MAX_DIM = 7
MAX_CONSTRAINTS = 96


class PolyhedronError(ScalarError):
    pass


class DeskScaleError(PolyhedronError):
    """Input exceeds the documented desk-scale limits."""


class EmptyPolyhedronError(PolyhedronError):
    pass


@dataclass(frozen=True)
class HalfSpace:
    """The constraint <normal, x> >= offset (or = offset as an equality)."""

    normal: Vector
    offset: ExtScalar


@dataclass(frozen=True)
class VRep:
    vertices: tuple[Vector, ...]
    rays: tuple[Vector, ...]
    lines: tuple[Vector, ...]

    @property
    def rays_with_lines(self) -> tuple[Vector, ...]:
        out = list(self.rays)
        for l in self.lines:
            out.append(l)
            out.append(linalg.vec_neg(l))
        return tuple(out)


@dataclass(frozen=True)
class Polyhedron:
    scalar_basis: ConstantBasis
    dim: int
    halfspaces: tuple[HalfSpace, ...]
    equalities: tuple[HalfSpace, ...]
    vrep: VRep | None = field(default=None, compare=False)

    @property
    def is_empty(self) -> bool:
        return self.vrep is not None and not self.vrep.vertices

    def contains(self, point: Sequence) -> bool:
        v = linalg.as_vector(self.scalar_basis, point)
        if len(v) != self.dim:
            raise PolyhedronError("point has wrong dimension")
        if any(e.basis != self.scalar_basis for e in v):
            raise BasisMismatchError("point uses a different constant basis")
        return not self.is_empty and _generators_inside(self, [v])

    def to_json_dict(self) -> dict:
        def enc(hs: HalfSpace) -> dict:
            return {
                "normal": [str(e) for e in hs.normal],
                "offset": str(hs.offset),
            }

        return {
            "dim": self.dim,
            "halfspaces": [enc(h) for h in self.halfspaces],
            "equalities": [enc(h) for h in self.equalities],
        }

    @staticmethod
    def from_json_dict(data: dict, basis: ConstantBasis) -> "Polyhedron":
        def dec(items):
            return [
                ([parse_scalar(e, basis) for e in h["normal"]],
                 parse_scalar(h.get("offset", 0), basis))
                for h in items
            ]

        return intersect_halfspaces(
            basis,
            data["dim"],
            dec(data.get("halfspaces", [])),
            dec(data.get("equalities", [])),
        )


# -- double description ---------------------------------------------------------


def _sort_key(v: Vector):
    return tuple(e.coeffs for e in v)


def _to_scalars(D: _Domain, v, ray: bool) -> Vector:
    """v as scalars, divided by its first nonzero entry, or for a ray by that
    entry's absolute value."""
    for e in v:
        s = D.sign(e)
        if s:
            return D.div(v, D.neg((e,))[0] if ray and s < 0 else e)
    raise AssertionError("zero generator")


def cone_double_description(
    basis: ConstantBasis, dim: int, rows: Sequence[Vector]
) -> tuple[list[Vector], list[Vector]]:
    """Generators (lines, rays) of the cone {x : <row, x> >= 0 for all rows}.

    Lines come divided by their first nonzero entry, rays by its absolute
    value.  The loop is fraction-free in the number domain scalars._domain
    picks, and the generators are converted back to scalars once, at the
    end.  Zero sets are bit masks over the rows.
    """
    D = _domain(basis, rows)
    dot, sign, comb, canon = D.dot, D.sign, D.comb, D.canon
    lines = [D.unit(dim, i) for i in range(dim)]
    rays: list = []
    zsets: list[int] = []
    for idx, a in enumerate(map(D.conv, rows)):
        bit = 1 << idx
        vals = [dot(a, l) for l in lines]
        pivot = next((j for j, v in enumerate(vals) if sign(v)), None)
        if pivot is not None:
            # the lineality shrinks: every other generator is moved onto the
            # hyperplane of `a` along the promoted line, oriented into a >= 0
            r0 = lines.pop(pivot)
            if sign(vals.pop(pivot)) < 0:
                r0 = D.neg(r0)
            v0 = dot(a, r0)
            lines = [l if not sign(v) else comb(v0, l, v, r0) for l, v in zip(lines, vals)]
            new_rays = []
            for r in rays:
                t = dot(a, r)
                new_rays.append(r if not sign(t) else canon(comb(v0, r, t, r0)))
            rays = new_rays + [canon(r0)]
            # the promoted lineality vector vanishes on every earlier row
            zsets = [z | bit for z in zsets] + [bit - 1]
            continue
        # the constraint vanishes on the lineality; split the rays
        plus, zero, minus = [], [], []
        for k, r in enumerate(rays):
            t = dot(a, r)
            s = sign(t)
            (plus if s > 0 else zero if s == 0 else minus).append((k, t))
        new_rays = [rays[k] for k, _ in plus] + [rays[k] for k, _ in zero]
        new_zsets = [zsets[k] for k, _ in plus] + [zsets[k] | bit for k, _ in zero]
        for kp, sp in plus:
            for km, sm in minus:
                common = zsets[kp] & zsets[km]
                adjacent = not any(
                    common & z == common and ko != kp and ko != km
                    for ko, z in enumerate(zsets)
                )
                if not adjacent:
                    continue
                new_rays.append(canon(comb(sp, rays[km], sm, rays[kp])))
                new_zsets.append(common | bit)
        # deduplicate canonical rays
        seen: set = set()
        rays, zsets = [], []
        for r, z in zip(new_rays, new_zsets):
            if r not in seen:
                seen.add(r)
                rays.append(r)
                zsets.append(z)
    return [_to_scalars(D, l, False) for l in lines], [_to_scalars(D, r, True) for r in rays]


def _check_scale(dim: int, n_constraints: int) -> None:
    if dim > MAX_DIM:
        raise DeskScaleError(
            f"ambient dimension {dim} exceeds the supported limit {MAX_DIM}"
        )
    if n_constraints > MAX_CONSTRAINTS:
        raise DeskScaleError(
            f"{n_constraints} constraints exceed the supported limit {MAX_CONSTRAINTS}"
        )


def intersect_halfspaces(
    basis: ConstantBasis,
    dim: int,
    halfspaces: Sequence[tuple[Sequence, object]] = (),
    equalities: Sequence[tuple[Sequence, object]] = (),
) -> Polyhedron:
    """Canonical polyhedron {x : <n_i, x> >= b_i, <m_j, x> = c_j}.

    Redundant constraints are removed by converting to generators and back;
    emptiness is detected exactly.
    """
    hs = [(linalg.as_vector(basis, n), _as_scalar(basis, b)) for n, b in halfspaces]
    eqs = [(linalg.as_vector(basis, n), _as_scalar(basis, b)) for n, b in equalities]
    for n, _ in hs + eqs:
        if len(n) != dim:
            raise PolyhedronError("constraint normal has wrong dimension")
    _check_scale(dim + 1, 2 * len(eqs) + len(hs) + 1)
    rows: list[Vector] = [linalg.unit(basis, dim + 1, dim)]  # t >= 0 first
    for n, b in eqs:
        row = tuple(n) + (-b,)
        rows.append(row)
        rows.append(linalg.vec_neg(row))
    for n, b in hs:
        rows.append(tuple(n) + (-b,))
    lines, rays = cone_double_description(basis, dim + 1, rows)
    D = _domain(basis, rows)
    vertices, recession = [], []
    for l in lines:
        if not l[dim].is_zero():
            raise AssertionError("lineality escaped t >= 0")
    for r in rays:
        if r[dim].is_zero():
            recession.append(r[:dim])  # DD rays come normalized
        else:  # t > 0, the first row
            g = D.conv(r)
            vertices.append(D.div(g[:dim], g[dim]))
    vrep = VRep(
        vertices=tuple(sorted(vertices, key=_sort_key)),
        rays=tuple(sorted(recession, key=_sort_key)),
        lines=tuple(sorted((l[:dim] for l in lines), key=_sort_key)),
    )
    if not vertices:
        return Polyhedron(basis, dim, (), (), VRep((), (), ()))
    return _from_vrep_with_cache(basis, dim, vrep)


def _as_scalar(basis: ConstantBasis, value) -> ExtScalar:
    if isinstance(value, ExtScalar):
        return value
    if isinstance(value, str):
        return parse_scalar(value, basis)
    return basis.from_rational(Fraction(value))


def _from_vrep_with_cache(basis: ConstantBasis, dim: int, vrep: VRep) -> Polyhedron:
    # dual double description: generators become constraints on (normal, c)
    rows: list[Vector] = []
    for v in vrep.vertices:
        rows.append(tuple(v) + (basis.one(),))
    for r in vrep.rays:
        rows.append(tuple(r) + (basis.zero(),))
    for l in vrep.lines:
        row = tuple(l) + (basis.zero(),)
        rows.append(row)
        rows.append(linalg.vec_neg(row))
    _check_scale(dim + 1, len(rows))
    dual_lines, dual_rays = cone_double_description(basis, dim + 1, rows)
    eq_space, pivots = linalg.rref(dual_lines)
    equalities = []
    for l in eq_space:  # rref rows: the pivot is already 1
        normal, c = l[:dim], l[dim]
        if linalg.vec_is_zero(normal):
            raise AssertionError("trivial equality produced")
        equalities.append(HalfSpace(normal, -c))
    # reduce each facet modulo the equalities in the domain of the run; the
    # pivots of the converted rref rows are positive
    D = _domain(basis, rows)
    sign, comb = D.sign, D.comb
    eq_rows = [(p, D.conv(l)) for p, l in zip(pivots, eq_space)]
    halfspaces = []
    seen = set()
    for r in dual_rays:
        v = D.conv(r)
        for p, row in eq_rows:
            if sign(v[p]):
                v = comb(row[p], v, v[p], row)
        if not any(sign(e) for e in v[:dim]):
            continue  # the trivial t >= 0 direction
        v = D.canon(v)
        if v not in seen:
            seen.add(v)
            nr = _to_scalars(D, v, True)
            halfspaces.append(HalfSpace(nr[:dim], -nr[dim]))
    halfspaces.sort(key=lambda h: _sort_key(h.normal + (h.offset,)))
    equalities.sort(key=lambda h: _sort_key(h.normal + (h.offset,)))
    return Polyhedron(basis, dim, tuple(halfspaces), tuple(equalities), vrep)


def from_generators(
    basis: ConstantBasis,
    dim: int,
    vertices: Sequence[Sequence],
    rays: Sequence[Sequence] = (),
    lines: Sequence[Sequence] = (),
) -> Polyhedron:
    """Polyhedron conv(vertices) + cone(rays) + span(lines)."""
    if not vertices:
        return Polyhedron(basis, dim, (), (), VRep((), (), ()))
    vrep = VRep(
        tuple(sorted((linalg.as_vector(basis, v) for v in vertices), key=_sort_key)),
        tuple(sorted((linalg.as_vector(basis, r) for r in rays), key=_sort_key)),
        tuple(sorted((linalg.as_vector(basis, l) for l in lines), key=_sort_key)),
    )
    poly = _from_vrep_with_cache(basis, dim, vrep)
    # re-enumerate so cached generators are irredundant (inputs may not be)
    return intersect_halfspaces(
        basis,
        dim,
        [(h.normal, h.offset) for h in poly.halfspaces],
        [(h.normal, h.offset) for h in poly.equalities],
    )


# -- public operations -----------------------------------------------------------


def enumerate_vertices(P: Polyhedron) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Exact vertices and recession rays (lines appear as opposite ray pairs)."""
    if P.is_empty or P.vrep is None:
        raise EmptyPolyhedronError("empty polyhedron has no vertices")
    return P.vrep.vertices, P.vrep.rays_with_lines


def affine_span(P: Polyhedron) -> tuple[Vector, Subspace]:
    """Basepoint and direction space of the affine hull."""
    if P.is_empty or P.vrep is None:
        raise EmptyPolyhedronError("empty polyhedron has no affine span")
    base = P.vrep.vertices[0]
    directions = [linalg.vec_sub(v, base) for v in P.vrep.vertices[1:]]
    directions += list(P.vrep.rays) + list(P.vrep.lines)
    return base, Subspace.from_vectors(P.scalar_basis, P.dim, directions)


def is_rational_polyhedral(P: Polyhedron) -> bool:
    """Whether the normal fan is rational: the affine hull must be cut out by
    a rational subspace and every facet normal must admit a rational
    representative in the quotient by that subspace (offsets are free)."""
    if P.is_empty:
        raise EmptyPolyhedronError("empty polyhedron has no rationality verdict")
    _, direction = affine_span(P)
    cutting = direction.annihilator()
    if not lattice.is_rational_subspace(cutting):
        return False
    if direction.dim == 0:
        return True
    gens = lattice.quasilattice(cutting)
    for hs in P.halfspaces:
        coords = tuple(linalg.dot(hs.normal, d) for d in direction.rows)
        if all(e.is_zero() for e in coords):
            continue
        if not lattice.ray_meets_rational_span(coords, gens.generators):
            return False
    return True


def homogenize(P: Polyhedron) -> Polyhedron:
    """Cone over P: the closure of {(t v, t) : v in P, t >= 0}."""
    if P.is_empty:
        raise EmptyPolyhedronError("cannot homogenize an empty polyhedron")
    basis = P.scalar_basis
    zero = basis.zero()
    hs = [(tuple(h.normal) + (-h.offset,), zero) for h in P.halfspaces]
    hs.append((linalg.unit(basis, P.dim + 1, P.dim), zero))
    eqs = [(tuple(h.normal) + (-h.offset,), zero) for h in P.equalities]
    return intersect_halfspaces(basis, P.dim + 1, hs, eqs)


def _check_coordinates(P: Polyhedron, coords: Sequence[int]) -> None:
    for c in coords:
        if not 0 <= c < P.dim:
            raise PolyhedronError(
                f"coordinate {c} is out of range for a polyhedron of dimension {P.dim}"
            )


def slice_at_level(P: Polyhedron, coord: int, level) -> Polyhedron:
    """Intersect with {x_coord = level} and drop that coordinate."""
    _check_coordinates(P, [coord])
    basis = P.scalar_basis
    extra = [(linalg.unit(basis, P.dim, coord), _as_scalar(basis, level))]
    sliced = intersect_halfspaces(
        basis,
        P.dim,
        [(h.normal, h.offset) for h in P.halfspaces],
        [(h.normal, h.offset) for h in P.equalities] + extra,
    )
    keep = [i for i in range(P.dim) if i != coord]
    return project(sliced, keep)


def project(P: Polyhedron, keep: Sequence[int]) -> Polyhedron:
    """Exact orthogonal projection onto the kept coordinates, in the order of
    `keep`: the hull of P's cached generators restricted to them.  Projection
    adds no generators, so the result is no larger than P's own V-rep."""
    keep = list(keep)
    if sorted(set(keep)) != sorted(keep):
        raise PolyhedronError("keep must be a list of distinct coordinates")
    _check_coordinates(P, keep)
    basis = P.scalar_basis
    if P.is_empty:
        return Polyhedron(basis, len(keep), (), (), VRep((), (), ()))
    pick = lambda vs: [tuple(v[i] for i in keep) for v in vs]
    return from_generators(
        basis, len(keep), pick(P.vrep.vertices), pick(P.vrep.rays), pick(P.vrep.lines)
    )


def poly_equal(P: Polyhedron, Q: Polyhedron) -> bool:
    """Exact set equality via mutual containment of generators."""
    if P.dim != Q.dim:
        raise PolyhedronError("polyhedra live in different dimensions")
    if P.scalar_basis != Q.scalar_basis:
        raise BasisMismatchError("polyhedra use different constant bases")
    if P.is_empty or Q.is_empty:
        return P.is_empty and Q.is_empty
    return (_generators_inside(Q, P.vrep.vertices, P.vrep.rays, P.vrep.lines)
            and _generators_inside(P, Q.vrep.vertices, Q.vrep.rays, Q.vrep.lines))


def _generators_inside(
    Q: Polyhedron,
    vertices: Sequence[Vector],
    rays: Sequence[Vector] = (),
    lines: Sequence[Vector] = (),
) -> bool:
    """Whether conv(vertices) + cone(rays) + span(lines) lies in Q.

    Q's rows (normal, -offset) and the homogenized generators (v, 1), (r, 0)
    and (l, 0) go into one domain, chosen from all of them, where every sign
    is exact: each row vanishes on a line, an equality row on every
    generator, and a half-space row is nonnegative on vertices and rays.
    Q must be nonempty: an empty polyhedron keeps no constraints.
    """
    basis = Q.scalar_basis
    one, zero = basis.one(), basis.zero()
    eqs = [tuple(h.normal) + (-h.offset,) for h in Q.equalities]
    hss = [tuple(h.normal) + (-h.offset,) for h in Q.halfspaces]
    points = [tuple(v) + (one,) for v in vertices] + [tuple(r) + (zero,) for r in rays]
    flats = [tuple(l) + (zero,) for l in lines]
    D = _domain(basis, eqs + hss + points + flats)
    conv, dot, sign = D.conv, D.dot, D.sign
    eqs, hss = [conv(a) for a in eqs], [conv(a) for a in hss]
    for g in map(conv, points):
        if any(sign(dot(a, g)) for a in eqs) or any(sign(dot(a, g)) < 0 for a in hss):
            return False
    for g in map(conv, flats):
        if any(sign(dot(a, g)) for a in eqs + hss):
            return False
    return True


def intersect(P: Polyhedron, Q: Polyhedron) -> Polyhedron:
    if P.dim != Q.dim:
        raise PolyhedronError("polyhedra live in different dimensions")
    if P.is_empty or Q.is_empty:
        return Polyhedron(P.scalar_basis, P.dim, (), (), VRep((), (), ()))
    return intersect_halfspaces(
        P.scalar_basis,
        P.dim,
        [(h.normal, h.offset) for h in P.halfspaces]
        + [(h.normal, h.offset) for h in Q.halfspaces],
        [(h.normal, h.offset) for h in P.equalities]
        + [(h.normal, h.offset) for h in Q.equalities],
    )


def is_bounded(P: Polyhedron) -> bool:
    if P.is_empty:
        return True
    return not P.vrep.rays and not P.vrep.lines
