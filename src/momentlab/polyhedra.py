"""Exact convex polyhedra over the extended scalars.

H-representations are canonicalized through a double-description round trip:
constraints -> generators -> irredundant facets (Fukuda & Prodon, "Double
description method revisited", 1996).  Everything is exact.  A polyhedron
keeps its double description in one number domain, which scalars._domain
picks from the input rows: Z for rational data, else the basis's ring
Z[s_1..s_k] of square roots, whose signs are exact integer rules.  It holds the
reduced equality rows and the facet rows, each the canonical positive
multiple in the domain of its scalar row, and the homogenized vertices,
rays and lines.  Both double description passes, primal and dual, run
fraction-free on domain rows; the equalities are one elimination of the dual
lines, and the facets are reduced modulo them and deduplicated as canonical
rays.  The public halfspaces, equalities and vrep are built on first read,
with vertices divided out of the homogenized rays and every field sorted.
Comparisons read the domain rows and never build them: equality of canonical
H-representations, containment (contains, poly_equal), which evaluates
every constraint row at every homogenized generator, and cut_out_by, which
decides whether P equals the polyhedron of given rows without double
description: containment, one rank of the given equalities, and P's facet
rows found among the given rows, both reduced as the dual pass reduces.
Where two sides differ in domain, rows over Z are lifted into the other's
(scalars._common); rows are positive multiples, so every sign is kept.
The contact cone is read off P's representation with no double description:
homogenize takes P's own facet and equality rows, with a 0 appended, as the
cone's, already canonical, P's homogenized vertices and rays, with a 0
appended, as its rays, and P's lines, so extended, as its lines.
slice_at_level converts the level into P's domain once and moves it into the
offset column of each of P's rows.  A pointed cone at a positive level, with
no ray below level 0, divides the rays that cross the level into vertices
and canonicalizes the moved rows by the helper the dual pass uses
(_canonical_hrep); every other slice gives the moved rows to one double
description in one dimension less (_build, the tail of
intersect_halfspaces), with no projection pass.  P's facts are read off its
domain rows too: its affine span is its first vertex and the kernel of its
equality normals, eliminated in P's domain and kept there as the
direction's rows, computed on first read and kept on P; the rationality of
its normal fan reads the integer coefficient rows of its equality and facet
normals (lattice.rational_fan), with no scalar built.  Sizes are capped at
desk scale, where the double description method is entirely adequate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _Z,
    _Domain,
    _common,
    _domain,
    _eliminate,
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


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """A polyhedron in R^dim over scalar_basis, held in its number domain D:
    the reduced equality rows and the facet rows (normal, -offset), each the
    canonical positive multiple in D of its scalar row, and the homogenized
    generators, a positive multiple of (v, 1) per vertex v, of (r, 0) per
    ray r and a nonzero one of (l, 0) per line l.  halfspaces, equalities and
    vrep are built on first read.  Two polyhedra are equal when they share
    basis, dimension and canonical H-representation, decided on these rows.
    """

    scalar_basis: ConstantBasis
    dim: int
    _D: _Domain = field(repr=False)
    _eqs: tuple = field(repr=False)
    _facets: tuple = field(repr=False)
    _vertices: tuple = field(repr=False)
    _rays: tuple = field(repr=False)
    _lines: tuple = field(repr=False)

    @cached_property
    def halfspaces(self) -> tuple[HalfSpace, ...]:
        return _scalar_rows(self._D, self.dim, self._facets, True)

    @cached_property
    def equalities(self) -> tuple[HalfSpace, ...]:
        return _scalar_rows(self._D, self.dim, self._eqs, False)

    @cached_property
    def vrep(self) -> VRep:
        return VRep(*(tuple(v for v, _ in part) for part in self._paired_vrep))

    @cached_property
    def _paired_vrep(self) -> tuple[tuple, tuple, tuple]:
        """vrep's vertices, rays and lines, each paired with its homogenized
        generator, in vrep's order."""
        D, dim = self._D, self.dim
        return tuple(tuple(sorted(zip(vs, gens), key=lambda p: _sort_key(p[0]))) for vs, gens in (
            ((D.div(g[:dim], g[dim]) for g in self._vertices), self._vertices),
            ((_to_scalars(D, g[:dim], True) for g in self._rays), self._rays),
            ((_to_scalars(D, g[:dim], False) for g in self._lines), self._lines),
        ))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        if (self.scalar_basis != other.scalar_basis or self.dim != other.dim
                or len(self._facets) != len(other._facets) or len(self._eqs) != len(other._eqs)):
            return False
        _, lift, lift_other = _common(self._D, other._D)
        same = lambda a, b: set(map(lift, a)) == set(map(lift_other, b))
        return same(self._facets, other._facets) and same(self._eqs, other._eqs)

    def __hash__(self) -> int:
        # sign patterns are those of the scalar rows in every domain
        signs = lambda rows: frozenset(tuple(map(self._D.sign, a)) for a in rows)
        return hash((self.scalar_basis, self.dim, signs(self._facets), signs(self._eqs)))

    @property
    def is_empty(self) -> bool:
        return not self._vertices

    def contains(self, point: Sequence) -> bool:
        basis = self.scalar_basis
        v = linalg.as_vector(basis, point)
        if len(v) != self.dim:
            raise PolyhedronError("point has wrong dimension")
        if self.is_empty:
            return False
        h = v + (basis.one(),)
        E = _domain(basis, [h])
        D, lift, lift_point = _common(self._D, E)
        eqs, facets, _, _ = _parts(self, lift)
        return _rows_hold(D, eqs, facets, [lift_point(E.conv(h))], [])

    @cached_property
    def _affine_span(self) -> tuple[Vector, Subspace]:
        """The nonempty P's first vertex and the kernel of its equality
        normals, eliminated and kept in P's domain, computed on first read
        (affine_span is the entry point)."""
        dim = self.dim
        direction = Subspace(self.scalar_basis, dim,
                             *linalg._kernel(self._D, [a[:dim] for a in self._eqs], dim))
        return self.vrep.vertices[0], direction


def _empty(basis: ConstantBasis, dim: int) -> Polyhedron:
    return Polyhedron(basis, dim, _Z, (), (), (), (), ())


def _scalar_rows(D: _Domain, dim: int, rows, facet: bool) -> tuple[HalfSpace, ...]:
    """The sorted half-spaces of rows (normal, -offset) in D: a facet row
    divided by the absolute value of its first nonzero entry, a reduced
    equality row by its pivot."""
    out = []
    for v in rows:
        r = _to_scalars(D, v, facet)
        out.append(HalfSpace(r[:dim], -r[dim]))
    return tuple(sorted(out, key=_halfspace_key))


def _parts(P: Polyhedron, lift) -> tuple[list, list, list, list]:
    """P's equality rows, facet rows, homogenized vertices and rays, and
    lines, each mapped by lift."""
    return ([lift(a) for a in P._eqs], [lift(a) for a in P._facets],
            [lift(g) for g in P._vertices + P._rays], [lift(l) for l in P._lines])


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


def _primal(D: _Domain, dim: int, eq_rows: list, hs_rows: list) -> tuple[list, list]:
    """The homogenized generators of {x : <a, (x, 1)> = 0 for a in eq_rows,
    >= 0 for a in hs_rows}, in D, from one pass over t >= 0, then each
    equality row and its negation, then the half-space rows: the rays, in the
    pass's order, and the lines.  A ray with t > 0 is a vertex times t."""
    rows = [D.unit(dim + 1, dim)]
    for a in eq_rows:
        rows += [a, D.neg(a)]
    lines, rays = cone_double_description(D, dim + 1, rows + hs_rows)
    if any(D.nonzero(l[dim]) for l in lines):
        raise AssertionError("lineality escaped t >= 0")
    return rays, lines


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


def _dual(D: _Domain, dim: int, gens: list) -> tuple[tuple, tuple]:
    """The H-representation of the polyhedron whose homogenized generators
    (g, 1) for a vertex g and (g, 0) for a ray are `gens`, in D, as
    _canonical_hrep returns it.  The dual cone's lines span the equalities
    and its rays are the facets, with at most the trivial t >= 0 direction
    besides them."""
    _check_scale(dim + 1, len(gens))
    lines, rays = cone_double_description(D, dim + 1, gens)
    return _canonical_hrep(D, dim, lines, rays)


def _canonical_hrep(D: _Domain, dim: int, eq_rows: list, facet_rows: list) -> tuple[tuple, tuple]:
    """The canonical H-representation of a nonempty polyhedron from rows
    (normal, -offset) in D: `eq_rows` span its equalities, and `facet_rows`
    hold a row of each facet, besides rows whose normal part vanishes modulo
    the equalities.  Returns the equality rows and the facet rows, each the
    canonical positive multiple in D of its scalar row.

    One elimination, normalized to a positive last pivot, gives the reduced
    equality rows.  The facet rows, reduced modulo those rows, made canonical
    and deduplicated, are the facets.  `eq_rows` is consumed.
    """
    eq_rows, _, reduce = _reduction(D, dim, eq_rows)
    if any(not any(map(D.nonzero, row[:dim])) for row in eq_rows):
        raise AssertionError("trivial equality produced")
    equalities = tuple(D.canon(D.comb(D.one, row, D.zero, row)) for row in eq_rows)
    facets = dict.fromkeys(v for v in map(reduce, facet_rows) if v is not None)
    return equalities, tuple(facets)


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
    D, hs, eqs = _constraint_rows(basis, dim, halfspaces, equalities)
    return _build(basis, D, dim, eqs, hs)


def _constraint_rows(basis: ConstantBasis, dim: int, halfspaces, equalities):
    """The rows (n, -b) of the (normal, offset) pairs, half-spaces and
    equalities, in the one domain scalars._domain picks for them all."""
    hs, eqs = ([linalg.as_vector(basis, n) + (-_as_scalar(basis, b),) for n, b in rows]
               for rows in (halfspaces, equalities))
    if any(len(a) != dim + 1 for a in hs + eqs):
        raise PolyhedronError("constraint normal has wrong dimension")
    D = _domain(basis, hs + eqs)
    return D, list(map(D.conv, hs)), list(map(D.conv, eqs))


def _build(basis: ConstantBasis, D: _Domain, dim: int, eq_rows: list, hs_rows: list) -> Polyhedron:
    """The canonical polyhedron {x : <a, (x, 1)> = 0 for a in eq_rows, >= 0
    for a in hs_rows}, rows in D: the primal pass, then, unless it finds no
    vertex, the dual pass on its generators."""
    _check_scale(dim + 1, 2 * len(eq_rows) + len(hs_rows) + 1)
    rays, lines = _primal(D, dim, eq_rows, hs_rows)
    vertices = tuple(g for g in rays if D.nonzero(g[dim]))  # t > 0, the first row
    if not vertices:
        return _empty(basis, dim)
    eqs, facets = _dual(D, dim, rays + [g for l in lines for g in (l, D.neg(l))])
    return Polyhedron(basis, dim, D, eqs, facets, vertices,
                      tuple(g for g in rays if not D.nonzero(g[dim])), tuple(lines))


def _as_scalar(basis: ConstantBasis, value) -> ExtScalar:
    """An offset or a level, read as linalg.as_vector reads an entry."""
    return linalg.as_vector(basis, (value,))[0]


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
    representative in the quotient by that subspace (offsets are free).
    Read off the normal parts of P's equality and facet rows in P's domain
    (lattice.rational_fan)."""
    if P.is_empty:
        raise EmptyPolyhedronError("empty polyhedron has no rationality verdict")
    dim = P.dim
    return lattice.rational_fan(P._D, [a[:dim] for a in P._eqs], [f[:dim] for f in P._facets])


def homogenize(P: Polyhedron) -> Polyhedron:
    """Cone over P: the closure of {(t v, t) : v in P, t >= 0}, read off P's
    own representation with no double description (Ziegler, Lectures on
    Polytopes, 1995, Lecture 2; the cone Lerman builds contact toric
    manifolds on, 2003).  Each facet and equality row a = (n, -o) of P gives
    the cone's row (a, 0).  The cone's equalities keep P's pivots, so these
    rows are already reduced and canonical.  t >= 0 is one more facet iff
    rec(P) is as large as P, for a polytope iff P is a point.  The apex is
    the only vertex, each of P's homogenized vertices and rays g gives the
    ray (g, 0), and each line l the line (l, 0).
    """
    if P.is_empty:
        raise EmptyPolyhedronError("cannot homogenize an empty polyhedron")
    basis, dim, D = P.scalar_basis, P.dim, P._D
    # the limits a double description of the cone checks: its constraints,
    # then its homogenized generators, the apex, one per ray, two per line
    _check_scale(dim + 2, 2 * len(P._eqs) + len(P._facets) + 2)
    _check_scale(dim + 2, 1 + len(P._vertices) + len(P._rays) + 2 * len(P._lines))
    up = lambda v: v + (D.zero,)
    facets = tuple(map(up, P._facets))
    if len(_eliminate(D, [r[:dim] for r in P._rays + P._lines], dim)[1]) == dim - len(P._eqs):
        facets += (D.unit(dim + 2, dim),)
    return Polyhedron(basis, dim + 1, D, tuple(map(up, P._eqs)), facets,
                      (D.unit(dim + 2, dim + 1),), tuple(map(up, P._vertices + P._rays)),
                      tuple(map(up, P._lines)))


def _check_coordinates(P: Polyhedron, coords: Sequence[int]) -> None:
    for c in coords:
        if not 0 <= c < P.dim:
            raise PolyhedronError(
                f"coordinate {c} is out of range for a polyhedron of dimension {P.dim}"
            )


def slice_at_level(P: Polyhedron, coord: int, level) -> Polyhedron:
    """Intersect with {x_coord = level} and drop that coordinate: the y with
    (y, level inserted at coord) in P.  An empty P keeps no rows, and slices
    empty.  The level is converted into P's domain once, as lv / mult with
    mult > 0 (an irrational level over a rational P lifts P's rows into its
    domain), and moved into each of P's rows: a column move, with (n, -o)
    becoming (mult * (n without n_coord), -mult * o + lv * n_coord).

    A pointed cone (its one vertex the origin, no lines) with no ray below
    level 0, sliced at a positive level, is read off its representations.
    The plane meets its relative interior, so the slice's faces are those of
    the cone that meet it.  Its vertices are level * g / g[coord] for the
    rays g with g[coord] > 0 (none: the slice is empty), its rays are the
    rays with g[coord] = 0, and its moved rows are canonicalized as _dual's;
    the facet x_coord >= 0, whose normal part vanishes there, drops out.
    Any other P gives the moved rows to one double description in dimension
    dim - 1 (_build)."""
    _check_coordinates(P, [coord])
    basis, dim = P.scalar_basis, P.dim - 1
    if P.is_empty:
        return _empty(basis, dim)
    level = _as_scalar(basis, level)
    E = _domain(basis, [(level,)])
    D, lift, lift_level = _common(P._D, E)
    # a positive multiple of (level, 1): lv over its multiplier is the level
    lv, mult = lift_level(E.conv((level, basis.one())))
    moved = lambda rows: [_substituted(D, lift(a), coord, mult, lv) for a in rows]
    if (D.sign(lv) > 0 and not P._lines and len(P._vertices) == 1
            and not any(map(P._D.nonzero, P._vertices[0][:P.dim]))
            and all(P._D.sign(r[coord]) >= 0 for r in P._rays)):
        rays = [lift(g) for g in P._rays]
        vertices = tuple(_substituted(D, g, coord, lv, mult) for g in rays if D.nonzero(g[coord]))
        if not vertices:
            return _empty(basis, dim)
        eqs, facets = _canonical_hrep(D, dim, moved(P._eqs), moved(P._facets))
        slice_rays = tuple(g[:coord] + g[coord + 1:] for g in rays if not D.nonzero(g[coord]))
        return Polyhedron(basis, dim, D, eqs, facets, vertices, slice_rays, ())
    return _build(basis, D, dim, moved(P._eqs), moved(P._facets))


def _substituted(D: _Domain, v, coord: int, x, y):
    """x * v without entry coord, plus y * v[coord] in the last entry, in D,
    for x > 0.  For a row (n, -o) that is a positive multiple of the row
    with x_coord = y / x substituted; for a ray (g, 0) with g[coord] > 0 and
    y > 0, of the point x * g / (y * g[coord]) homogenized, g[coord]
    dropped."""
    rest = v[:coord] + v[coord + 1:]
    return D.comb(x, rest, D.neg((y,))[0], (D.zero,) * (len(rest) - 1) + (v[coord],))


def poly_equal(P: Polyhedron, Q: Polyhedron) -> bool:
    """Exact set equality via mutual containment of generators."""
    if P.dim != Q.dim:
        raise PolyhedronError("polyhedra live in different dimensions")
    if P.scalar_basis != Q.scalar_basis:
        raise BasisMismatchError("polyhedra use different constant bases")
    if P.is_empty or Q.is_empty:
        return P.is_empty and Q.is_empty
    return _inside(P, Q) and _inside(Q, P)


def _inside(P: Polyhedron, Q: Polyhedron) -> bool:
    """Whether the nonempty P lies in the nonempty Q: Q's rows hold on P's
    homogenized generators, in one domain for both."""
    D, lift_p, lift_q = _common(P._D, Q._D)
    eqs, facets, _, _ = _parts(Q, lift_q)
    _, _, points, flats = _parts(P, lift_p)
    return _rows_hold(D, eqs, facets, points, flats)


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
    off P's own H- and V-representation with no double description, in P's
    domain or the given rows' (with the rows over Z lifted).  Precondition:
    Q spans the plane of its equalities, as when the plane meets the interior
    of the half-spaces.  Then P = Q iff

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
    return _cut_out(P, *_constraint_rows(P.scalar_basis, P.dim, halfspaces, equalities))


def _cut_out(P: Polyhedron, E: _Domain, hss: list, eqs: list) -> bool:
    """cut_out_by on the rows (normal, -offset) of the domain E."""
    D, lift_p, lift_e = _common(P._D, E)
    hss, eqs = [lift_e(a) for a in hss], [lift_e(a) for a in eqs]
    _, facets, points, flats = _parts(P, lift_p)
    if not _rows_hold(D, eqs, hss, points, flats):
        return False
    eq_rows, _, reduce = _reduction(D, P.dim, eqs)
    # a given row is made primitive first; P's facet rows are canonical
    given = {reduce(D.comb(D.one, a, D.zero, a)) for a in hss}
    return len(eq_rows) == len(P._eqs) and all(reduce(f) in given for f in facets)


def is_bounded(P: Polyhedron) -> bool:
    return not P._rays and not P._lines
