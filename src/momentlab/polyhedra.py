"""Exact convex polyhedra over the extended scalars.

H-representations are canonicalized through a double-description round trip:
constraints -> generators -> irredundant facets.  Everything is exact.  Each
public operation picks one number domain with scalars._domain: Z for
rational data, Z[s] for a declared quadratic surd, where signs follow the
integer quadratic rule, and the ExtScalars otherwise, whose signs come from
ExtScalar.sign().  Its input rows are converted into that domain once, and
both double description passes, primal and dual, run fraction-free on
domain rows; ExtScalars are built only for the Polyhedron's public fields.
Vertices are divided out of the homogenized rays, equalities are one
elimination of the dual lines, facets are reduced modulo them and
deduplicated as canonical rays, and containment (contains, poly_equal)
evaluates every constraint row at every homogenized generator.  cut_out_by
decides whether P equals the polyhedron of given rows without double
description: containment, one rank of the given equalities, and P's facet
rows found among the given rows, both reduced as the dual pass reduces.
from_generators keeps the input generators that are extreme by incidence
against the facets of one dual pass, with ranks read off elimination pivots.
The contact cone and its level-one slice are read off representations with
no double description.  homogenize of a P without lines takes P's own facet
and equality rows as the cone's, already canonical, and the rays (v, 1) and
(r, 0) over P's vertices and rays; slice_at_level of a pointed cone at a
positive level, with no ray below level 0, divides the rays that cross the
level into vertices and moves the level into the rows' offset column, rows
canonicalized by the helper the dual pass uses (_canonical_hrep).  A P with
lines, and every other slice, runs intersect_halfspaces on P's own rows, with
t >= 0 or with the level substituted, in one dimension less with no
projection pass.  P's affine span is computed on first read and kept on P.
Sizes are capped at desk scale, where the double description method is
entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    _eliminate,
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
    vrep: VRep = field(compare=False)

    @property
    def is_empty(self) -> bool:
        return not self.vrep.vertices

    def contains(self, point: Sequence) -> bool:
        v = linalg.as_vector(self.scalar_basis, point)
        if len(v) != self.dim:
            raise PolyhedronError("point has wrong dimension")
        if any(e.basis != self.scalar_basis for e in v):
            raise BasisMismatchError("point uses a different constant basis")
        return not self.is_empty and _generators_inside(self, [v])

    @cached_property
    def _affine_span(self) -> tuple[Vector, Subspace]:
        """The nonempty P's first vertex and the span of its generator
        differences, computed on first read (affine_span is the entry point)."""
        base = self.vrep.vertices[0]
        directions = [linalg.vec_sub(v, base) for v in self.vrep.vertices[1:]]
        directions += list(self.vrep.rays) + list(self.vrep.lines)
        return base, Subspace.from_vectors(self.scalar_basis, self.dim, directions)


def _empty(basis: ConstantBasis, dim: int) -> Polyhedron:
    return Polyhedron(basis, dim, (), (), VRep((), (), ()))


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


def cone_double_description(D: _Domain, dim: int, rows: Sequence) -> tuple[list, list]:
    """Generators (lines, rays) of the cone {x : <row, x> >= 0 for all rows}.

    Rows and generators are vectors of the number domain D, and the loop is
    fraction-free in it.  Rays come canonical (D.canon), lines up to a
    nonzero multiple.  Zero sets are bit masks over the rows.
    """
    dot, sign, comb, canon = D.dot, D.sign, D.comb, D.canon
    lines = [D.unit(dim, i) for i in range(dim)]
    rays: list = []
    zsets: list[int] = []
    for idx, a in enumerate(rows):
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
    return lines, rays


def _check_scale(dim: int, n_constraints: int) -> None:
    if dim > MAX_DIM:
        raise DeskScaleError(
            f"ambient dimension {dim} exceeds the supported limit {MAX_DIM}"
        )
    if n_constraints > MAX_CONSTRAINTS:
        raise DeskScaleError(
            f"{n_constraints} constraints exceed the supported limit {MAX_CONSTRAINTS}"
        )


def _primal(D: _Domain, dim: int, eq_rows: list, hs_rows: list) -> tuple[VRep, list]:
    """The sorted V-representation of {x : <a, (x, 1)> = 0 for a in eq_rows,
    >= 0 for a in hs_rows}, from one pass over t >= 0, then each equality row
    and its negation, then the half-space rows, all in D; and the homogenized
    generators in D (rays, then each line and its negation), which are the
    dual pass's rows.  A ray with t > 0 is a vertex times t."""
    rows = [D.unit(dim + 1, dim)]
    for a in eq_rows:
        rows += [a, D.neg(a)]
    lines, rays = cone_double_description(D, dim + 1, rows + hs_rows)
    if any(D.nonzero(l[dim]) for l in lines):
        raise AssertionError("lineality escaped t >= 0")
    vertices, recession = [], []
    for g in rays:
        if D.nonzero(g[dim]):  # t > 0, the first row
            vertices.append(D.div(g[:dim], g[dim]))
        else:
            recession.append(_to_scalars(D, g[:dim], True))
    vrep = VRep(
        tuple(sorted(vertices, key=_sort_key)),
        tuple(sorted(recession, key=_sort_key)),
        tuple(sorted((_to_scalars(D, l[:dim], False) for l in lines), key=_sort_key)),
    )
    return vrep, rays + [g for l in lines for g in (l, D.neg(l))]


def _reduction(D: _Domain, dim: int, eq_rows: list):
    """`eq_rows` eliminated in D to a positive last pivot, that pivot, and the
    map taking a primitive row (normal, -offset) to its canonical form modulo
    their span, or to None when its normal part vanishes there (the trivial
    t >= 0 direction)."""
    rows, pivots, last = _eliminate(D, eq_rows)
    if D.sign(last) < 0:
        rows, last = [D.neg(r) for r in rows], D.neg((last,))[0]

    def reduce(v):
        for p, row in zip(pivots, rows):  # row[p] is last > 0
            if D.nonzero(v[p]):
                v = D.comb(last, v, v[p], row)
        return D.canon(v) if any(map(D.nonzero, v[:dim])) else None

    return rows, last, reduce


def _dual(D: _Domain, dim: int, gens: list) -> tuple[tuple, tuple, list, list]:
    """The H-representation of the polyhedron whose homogenized generators
    (g, 1) for a vertex g and (g, 0) for a ray are `gens`, in D, as
    _canonical_hrep returns it.  The dual cone's lines span the equalities
    and its rays are the facets, with at most the trivial t >= 0 direction
    besides them."""
    _check_scale(dim + 1, len(gens))
    lines, rays = cone_double_description(D, dim + 1, gens)
    return _canonical_hrep(D, dim, lines, rays)


def _canonical_hrep(D: _Domain, dim: int, eq_rows: list, facet_rows: list
                    ) -> tuple[tuple, tuple, list, list]:
    """The canonical H-representation of a nonempty polyhedron from rows
    (normal, -offset) in D: `eq_rows` span its equalities, and `facet_rows`
    hold a row of each facet, besides rows whose normal part vanishes modulo
    the equalities.  Returns the sorted half-spaces and equalities, and in the
    same order their rows in D, positive multiples of the scalar ones.

    One elimination, normalized to a positive last pivot, gives the reduced
    equality rows.  The facet rows, reduced modulo those rows, made canonical
    and deduplicated, are the facets.  `eq_rows` is consumed.
    """
    eq_rows, last, reduce = _reduction(D, dim, eq_rows)
    equalities = []
    for row in eq_rows:
        e = D.div(row, last)  # the reduced row: its pivot is 1
        if linalg.vec_is_zero(e[:dim]):
            raise AssertionError("trivial equality produced")
        equalities.append((HalfSpace(e[:dim], -e[dim]), row))
    facets: dict = {}
    for v in map(reduce, facet_rows):
        if v is not None and v not in facets:
            nr = _to_scalars(D, v, True)
            facets[v] = HalfSpace(nr[:dim], -nr[dim])
    key = lambda pair: _halfspace_key(pair[0])
    hs = sorted(((h, v) for v, h in facets.items()), key=key)
    eqs = sorted(equalities, key=key)
    return (tuple(h for h, _ in hs), tuple(h for h, _ in eqs),
            [v for _, v in hs], [r for _, r in eqs])


def _halfspace_key(h: HalfSpace):
    return _sort_key(h.normal + (h.offset,))


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
    eq_rows = [n + (-b,) for n, b in eqs]
    hs_rows = [n + (-b,) for n, b in hs]
    D = _domain(basis, eq_rows + hs_rows)
    vrep, gens = _primal(D, dim, list(map(D.conv, eq_rows)), list(map(D.conv, hs_rows)))
    if not vrep.vertices:
        return _empty(basis, dim)
    halfspaces, equalities, _, _ = _dual(D, dim, gens)
    return Polyhedron(basis, dim, halfspaces, equalities, vrep)


def _as_scalar(basis: ConstantBasis, value) -> ExtScalar:
    if isinstance(value, ExtScalar):
        return value
    if isinstance(value, str):
        return parse_scalar(value, basis)
    return basis.from_rational(Fraction(value))


def from_generators(
    basis: ConstantBasis,
    dim: int,
    vertices: Sequence[Sequence],
    rays: Sequence[Sequence] = (),
    lines: Sequence[Sequence] = (),
) -> Polyhedron:
    """Polyhedron conv(vertices) + cone(rays) + span(lines).

    One dual double description gives the H-representation.  The cached
    generators are the extreme ones among the inputs, read off by incidence
    against it (Fukuda-Prodon 1996): a vertex is extreme iff the facet normals
    tight at it, together with the equality normals, have rank dim, and a ray
    iff they have rank dim - 1.  Ranks are the pivot counts of one
    elimination, on the dual pass's own rows.  Rays come divided by the
    absolute value of their first nonzero entry, deduplicated and sorted,
    exactly as intersect_halfspaces returns them.  When no vertex is extreme,
    the normals do not span R^dim and P has lines (given, or from opposite
    rays).  Then P has no extreme points, and its V-representation is the
    one a primal pass over its own facet rows gives, as intersect_halfspaces
    would.
    """
    if not vertices:
        return _empty(basis, dim)
    one, zero = basis.one(), basis.zero()
    vs = [linalg.as_vector(basis, v) for v in vertices]
    points = [v + (one,) for v in vs]
    directions = [linalg.as_vector(basis, r) + (zero,) for r in rays]
    flats = [linalg.as_vector(basis, l) + (zero,) for l in lines]
    D = _domain(basis, points + directions + flats)
    points, directions, flats = ([D.conv(g) for g in gs] for gs in (points, directions, flats))
    gens = points + directions + [g for l in flats for g in (l, D.neg(l))]
    halfspaces, equalities, hs_rows, eq_rows = _dual(D, dim, gens)
    # the H-rep stays within the limits intersect_halfspaces accepts
    _check_scale(dim + 1, 2 * len(equalities) + len(halfspaces) + 1)
    eq_normals = [a[:dim] for a in eq_rows]

    def tight_rank(g) -> int:
        normals = eq_normals + [a[:dim] for a in hs_rows if not D.nonzero(D.dot(a, g))]
        return len(_eliminate(D, normals)[1])

    extreme = {_sort_key(v): v for v, g in zip(vs, points) if tight_rank(g) == dim}
    if not extreme:
        vrep = _primal(D, dim, eq_rows, hs_rows)[0]
        return Polyhedron(basis, dim, halfspaces, equalities, vrep)
    extreme_rays = {}
    for g in directions:
        if tight_rank(g) == dim - 1:
            r = _to_scalars(D, g[:dim], True)
            extreme_rays[_sort_key(r)] = r
    vrep = VRep(
        tuple(extreme[k] for k in sorted(extreme)),
        tuple(extreme_rays[k] for k in sorted(extreme_rays)),
        (),
    )
    return Polyhedron(basis, dim, halfspaces, equalities, vrep)


# -- public operations -----------------------------------------------------------


def enumerate_vertices(P: Polyhedron) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Exact vertices and recession rays (lines appear as opposite ray pairs)."""
    if P.is_empty:
        raise EmptyPolyhedronError("empty polyhedron has no vertices")
    return P.vrep.vertices, P.vrep.rays_with_lines


def affine_span(P: Polyhedron) -> tuple[Vector, Subspace]:
    """Basepoint and direction space of the affine hull, kept on P."""
    if P.is_empty:
        raise EmptyPolyhedronError("empty polyhedron has no affine span")
    return P._affine_span


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
    # column i of the pairings holds facet i against each direction row
    pairings = linalg.mat_vecs([h.normal for h in P.halfspaces], direction.rows, P.scalar_basis)
    for coords in zip(*pairings):
        if all(e.is_zero() for e in coords):
            continue
        if not lattice.ray_meets_rational_span(coords, gens.generators):
            return False
    return True


def homogenize(P: Polyhedron) -> Polyhedron:
    """Cone over P: the closure of {(t v, t) : v in P, t >= 0}.

    For P without lines both representations are read off P's own, with no
    double description (Ziegler, Lectures on Polytopes, 1995, Lecture 2; the
    cone Lerman builds contact toric manifolds on, 2003).  Each facet and
    equality row (n, -o) of P gives the cone's row ((n, -o), 0).  The cone's
    equalities keep P's pivots, so these rows are already reduced and
    canonical.  t >= 0 is one more facet iff rec(P) is as large as P, for a
    polytope iff P is a point.  The apex is the only vertex; each vertex v of
    P gives the ray (v, 1) and each ray r the ray (r, 0).  A P with lines
    takes intersect_halfspaces on those rows and t >= 0.
    """
    if P.is_empty:
        raise EmptyPolyhedronError("cannot homogenize an empty polyhedron")
    basis, dim, vrep = P.scalar_basis, P.dim, P.vrep
    zero = basis.zero()
    hs, eqs = _rows(P.halfspaces), _rows(P.equalities)
    t = linalg.unit(basis, dim + 1, dim)
    if vrep.lines:
        return intersect_halfspaces(
            basis, dim + 1, [(n, zero) for n in hs + [t]], [(n, zero) for n in eqs])
    # the limits the double description route checks: its constraints, then
    # its homogenized generators, the apex and one per ray
    _check_scale(dim + 2, 2 * len(eqs) + len(hs) + 2)
    _check_scale(dim + 2, 1 + len(vrep.vertices) + len(vrep.rays))
    if linalg.rank(vrep.rays) == dim - len(eqs):
        hs.append(t)
    points = [tuple(v) + (basis.one(),) for v in vrep.vertices]
    D = _domain(basis, points)
    rays = [_to_scalars(D, D.conv(g), True) for g in points]
    rays += [tuple(r) + (zero,) for r in vrep.rays]
    cone_rows = lambda ns: tuple(sorted((HalfSpace(n, zero) for n in ns), key=_halfspace_key))
    return Polyhedron(basis, dim + 1, cone_rows(hs), cone_rows(eqs),
                      VRep(((zero,) * (dim + 1),), tuple(sorted(rays, key=_sort_key)), ()))


def _check_coordinates(P: Polyhedron, coords: Sequence[int]) -> None:
    for c in coords:
        if not 0 <= c < P.dim:
            raise PolyhedronError(
                f"coordinate {c} is out of range for a polyhedron of dimension {P.dim}"
            )


def slice_at_level(P: Polyhedron, coord: int, level) -> Polyhedron:
    """Intersect with {x_coord = level} and drop that coordinate: the y with
    (y, level inserted at coord) in P.  An empty P keeps no rows, and slices
    empty.  A pointed cone (its one vertex the origin, no lines) with no ray
    below level 0, sliced at a positive level, is read off its
    representations (_cone_slice).  Any other P is its own rows with x_coord
    = level substituted, so one intersect_halfspaces in dimension dim - 1
    gives the canonical polyhedron."""
    _check_coordinates(P, [coord])
    basis = P.scalar_basis
    if P.is_empty:
        return _empty(basis, P.dim - 1)
    level = _as_scalar(basis, level)
    vrep = P.vrep
    if (level.sign() > 0 and not vrep.lines and len(vrep.vertices) == 1
            and linalg.vec_is_zero(vrep.vertices[0])
            and all(r[coord].sign() >= 0 for r in vrep.rays)):
        return _cone_slice(P, coord, level)

    def substituted(rows):
        return [(h.normal[:coord] + h.normal[coord + 1:], h.offset - h.normal[coord] * level)
                for h in rows]

    return intersect_halfspaces(
        basis, P.dim - 1, substituted(P.halfspaces), substituted(P.equalities))


def _cone_slice(C: Polyhedron, coord: int, level: ExtScalar) -> Polyhedron:
    """slice_at_level of a pointed cone C at level > 0, every ray g with
    g[coord] >= 0, with no double description.

    The plane meets C's relative interior, so the slice's faces are those of
    C that meet it.  Its vertices are level * g / g[coord] for the rays with
    g[coord] > 0 (none: the slice is empty), divided in D as _primal divides,
    and its rays are the rays with g[coord] = 0.  Its rows are C's rows, whose
    offsets are zero, with the level substituted: (n, 0) becomes
    (n without n_coord, level * n_coord), a column move at level one.  They
    are canonicalized as _dual's; the facet x_coord >= 0, whose normal part
    vanishes there, drops out.
    """
    basis, dim = C.scalar_basis, C.dim - 1
    drop = lambda v: v[:coord] + v[coord + 1:]
    times_level = (lambda e: e) if level == basis.one() else (lambda e: e * level)
    # a vertex level * g / g[coord], homogenized: (level * g, g[coord])
    points = [tuple(map(times_level, drop(g))) + (g[coord],)
              for g in C.vrep.rays if not g[coord].is_zero()]
    if not points:
        return _empty(basis, dim)
    rays = sorted((drop(g) for g in C.vrep.rays if g[coord].is_zero()), key=_sort_key)
    moved = lambda rows: [drop(h.normal) + (times_level(h.normal[coord]),) for h in rows]
    eqs, hss = moved(C.equalities), moved(C.halfspaces)
    D = _domain(basis, points + eqs + hss)
    vertices = sorted((D.div(g[:dim], g[dim]) for g in map(D.conv, points)), key=_sort_key)
    halfspaces, equalities, _, _ = _canonical_hrep(
        D, dim, list(map(D.conv, eqs)), list(map(D.conv, hss)))
    return Polyhedron(basis, dim, halfspaces, equalities, VRep(tuple(vertices), tuple(rays), ()))


def project(P: Polyhedron, keep: Sequence[int]) -> Polyhedron:
    """Exact orthogonal projection onto the kept coordinates, in the order of
    `keep`: the hull of P's cached generators restricted to them.  Projection
    adds no generators, so the result is no larger than P's own V-rep."""
    keep = list(keep)
    if sorted(set(keep)) != sorted(keep):
        raise PolyhedronError("keep must be a list of distinct coordinates")
    _check_coordinates(P, keep)
    pick = lambda vs: [tuple(v[i] for i in keep) for v in vs]
    return from_generators(
        P.scalar_basis, len(keep), pick(P.vrep.vertices), pick(P.vrep.rays), pick(P.vrep.lines)
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
    """Whether conv(vertices) + cone(rays) + span(lines) lies in Q, in one
    domain chosen from Q's rows and the homogenized generators.  Q must be
    nonempty: an empty polyhedron keeps no constraints."""
    eqs, hss = _rows(Q.equalities), _rows(Q.halfspaces)
    points, flats = _homogenized(Q.scalar_basis, vertices, rays, lines)
    D = _domain(Q.scalar_basis, eqs + hss + points + flats)
    return _rows_hold(D, *([D.conv(a) for a in rows] for rows in (eqs, hss, points, flats)))


def _rows(halfspaces: Sequence[HalfSpace]) -> list:
    return [tuple(h.normal) + (-h.offset,) for h in halfspaces]


def _homogenized(basis: ConstantBasis, vertices, rays, lines) -> tuple[list, list]:
    """The points (v, 1) and (r, 0), and the flats (l, 0)."""
    one, zero = basis.one(), basis.zero()
    points = [tuple(v) + (one,) for v in vertices] + [tuple(r) + (zero,) for r in rays]
    return points, [tuple(l) + (zero,) for l in lines]


def _rows_hold(D: _Domain, eqs: list, hss: list, points: list, flats: list) -> bool:
    """Whether, with exact signs in D, every row vanishes on the flats, the
    equality rows on the points, and the half-space rows are nonnegative on
    the points."""
    dot, sign = D.dot, D.sign
    for g in points:
        if any(sign(dot(a, g)) for a in eqs) or any(sign(dot(a, g)) < 0 for a in hss):
            return False
    return not any(sign(dot(a, g)) for g in flats for a in eqs + hss)


def cut_out_by(
    P: Polyhedron,
    halfspaces: Sequence[tuple[Sequence, object]] = (),
    equalities: Sequence[tuple[Sequence, object]] = (),
) -> bool:
    """Whether the nonempty P equals Q = {x : <n, x> >= b, <m, x> = c}, read
    off P's own H- and V-representation in one domain, with no double
    description.  Precondition: Q spans the plane of its equalities, as when
    the plane meets the interior of the half-spaces.  Then P = Q iff

    - P lies in Q: every given row holds on P's homogenized generators;
    - the given equality rows, which then lie in the span of P's, have as
      many pivots as P has equalities (else P is flatter than Q);
    - every facet row of P, reduced modulo the equalities and made canonical
      as _dual does, is a given half-space row reduced the same way: a facet
      inequality appears, up to positive scaling, in every H-representation
      (Ziegler, Lectures on Polytopes, 1995, Lecture 2).
    """
    if P.is_empty:
        raise EmptyPolyhedronError("empty polyhedron has no representation to check")
    basis, dim = P.scalar_basis, P.dim
    hss, eqs = ([linalg.as_vector(basis, n) + (-_as_scalar(basis, b),) for n, b in rows]
                for rows in (halfspaces, equalities))
    if any(len(a) != dim + 1 for a in hss + eqs):
        raise PolyhedronError("constraint normal has wrong dimension")
    facets = _rows(P.halfspaces)
    points, flats = _homogenized(basis, P.vrep.vertices, P.vrep.rays, P.vrep.lines)
    D = _domain(basis, hss + eqs + facets + points + flats)
    hss, eqs, points, flats = ([D.conv(a) for a in rows] for rows in (hss, eqs, points, flats))
    if not _rows_hold(D, eqs, hss, points, flats):
        return False
    eq_rows, _, reduce = _reduction(D, dim, eqs)
    # a scalar facet row converts to its canonical form; a given row is made
    # primitive first
    given = {reduce(D.comb(D.one, a, D.zero, a)) for a in hss}
    return (len(eq_rows) == len(P.equalities)
            and all(reduce(D.conv(f)) in given for f in facets))


def is_bounded(P: Polyhedron) -> bool:
    return not P.vrep.rays and not P.vrep.lines
