"""Computable Hamiltonian models: weighted torus modules, coisotropic affine
slices, null ideals, cleanness tests, exact moment images, local cones and
symplectic and null slice data.

Stabilizers, cleanness and slice data are kernels and ranks of the integer
weights on a point's support, in the torus dimension.  Tangent, dphi and
orbit objects live in an adapted frame with two slots per complex
coordinate: radial and angular through the point on a supported coordinate,
the real and imaginary axes off it.  dphi reads only the radial slots of the
supported unmasked coordinates and the orbit only the angular slots of the
support, so each of these subspaces is assembled from a system with one
column per supported coordinate, its rows placed in those slots, with a unit
row on every slot the system leaves free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import lattice, linalg, polyhedra, presymlin
from .linalg import Vector
from .polyhedra import Polyhedron
from .presymlin import PresympForm, Subspace
from .scalars import (
    ConstantBasis,
    ExtScalar,
    ScalarError,
    _clear_denominators,
    _common,
    _Domain,
    _domain,
    _eliminate,
)


class ModelError(ScalarError):
    pass


class SliceValidationError(ModelError):
    pass


class NotApplicableError(ModelError):
    pass


# -- weighted modules ------------------------------------------------------------


@dataclass(frozen=True)
class WeightedModule:
    """Torus action on a complex coordinate space by integer weight vectors.

    The form is the standard one on unmasked coordinates and zero on masked
    ones, so the masked coordinates span the kernel of the form and drop out
    of the moment map.
    """

    scalar_basis: ConstantBasis
    torus_rank: int
    weights: tuple[tuple[int, ...], ...]
    masked: frozenset[int] = frozenset()

    def __post_init__(self):
        for j, w in enumerate(self.weights):
            if len(w) != self.torus_rank:
                raise ModelError("weight vector has wrong length")
            if not all(isinstance(a, int) and not isinstance(a, bool) for a in w):
                raise ModelError(f"weight of coordinate {j} is not a vector of integers")
        if any(j < 0 or j >= len(self.weights) for j in self.masked):
            raise ModelError("masked index out of range")

    @property
    def n_coords(self) -> int:
        return len(self.weights)

    @property
    def module(self) -> "WeightedModule":
        return self

    def tangent(self, point: "ModelPoint") -> Subspace:
        """The whole space: every point of a module is admissible."""
        return Subspace.full(self.scalar_basis, 2 * self.n_coords)

    def null_ideal(self) -> Subspace:
        """Kernel of the action on the symplectic part: all xi pairing to
        zero with every unmasked weight."""
        rows = [
            linalg.as_vector(self.scalar_basis, self.weights[j])
            for j in range(self.n_coords)
            if j not in self.masked
        ]
        return Subspace.kernel_of(self.scalar_basis, self.torus_rank, rows)


def standard_module(basis: ConstantBasis, d: int) -> WeightedModule:
    weights = tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d))
    return WeightedModule(basis, d, weights)


# -- points ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPoint:
    """A point of a weighted module, known through its support and its exact
    per-coordinate moment values mu_j = |z_j|^2 / 2, which is all every
    pointwise subspace computation needs.
    """

    support: tuple[int, ...]
    mu: tuple[ExtScalar, ...]

    @staticmethod
    def from_coordinates(basis: ConstantBasis, entries: Sequence) -> "ModelPoint":
        coords = []
        for z in entries:
            if isinstance(z, (tuple, list)):
                re, im = z
            else:
                re, im = z, 0
            coords.append(
                (linalg.as_vector(basis, [re])[0], linalg.as_vector(basis, [im])[0])
            )
        support = tuple(
            j for j, (re, im) in enumerate(coords) if not (re.is_zero() and im.is_zero())
        )
        mu = tuple(
            (re * re + im * im).scale(Fraction(1, 2)) for re, im in coords
        )
        return ModelPoint(support, mu)


def _require_length(module: WeightedModule, point: ModelPoint) -> None:
    """Raise unless the point has one moment value per coordinate."""
    if len(point.mu) != module.n_coords:
        raise ModelError(f"point has {len(point.mu)} coordinates, "
                         f"the model has {module.n_coords}")


def _require_point(model, point: ModelPoint) -> None:
    """Raise unless the point has the model's length and, on a slice, lies on it."""
    if isinstance(model, AffineSlice):
        _require_on_slice(model, point)
    else:
        _require_length(model, point)


# -- moment map and derivatives ---------------------------------------------------


def moment_quadratic(module: WeightedModule, e: ModelPoint) -> Vector:
    """The moment covector: sum over unmasked coordinates of mu_j * alpha_j."""
    _require_length(module, e)
    basis = module.scalar_basis
    out = list(linalg.zeros(basis, module.torus_rank))
    for j in range(module.n_coords):
        if j in module.masked:
            continue
        m = e.mu[j]
        if m.is_zero():
            continue
        for k, a in enumerate(module.weights[j]):
            if a:
                out[k] = out[k] + m.scale(a)
    return tuple(out)


# -- adapted frame ------------------------------------------------------------------


def adapted_form(module: WeightedModule, point: ModelPoint) -> PresympForm:
    """The form in the adapted frame at the point: each unmasked coordinate
    contributes a standard block scaled by |z_j|^2 = 2 mu_j on the support
    and by 1 off it; masked coordinates contribute zero blocks."""
    _require_length(module, point)
    basis = module.scalar_basis
    return PresympForm._blocks(basis, [
        None if j in module.masked else point.mu[j].scale(2) if j in point.support else basis.one()
        for j in range(module.n_coords)
    ])


def _placed(basis: ConstantBasis, n: int, rows, pivots, D: _Domain, slots: Sequence[int],
            units: Sequence[int] = ()) -> Subspace:
    """The span in R^n of canonical rows of D over len(slots) columns, entry i
    placed at slots[i] (increasing), and of the unit rows at `units`, slots
    those rows leave zero: its canonical rows once sorted by pivot, since no
    two of them share a column."""
    placed = [(s, D.unit(n, s)) for s in units]
    for row, p in zip(rows, pivots):
        full = [D.zero] * n
        for s, e in zip(slots, row):
            full[s] = e
        placed.append((slots[p], tuple(full)))
    placed.sort(key=lambda sp: sp[0])
    return Subspace(basis, n, [r for _, r in placed], [s for s, _ in placed], D)


def orbit_tangent(module: WeightedModule, point: ModelPoint) -> Subspace:
    """Tangent space of the torus orbit in the adapted frame: xi moves the
    angular slot of each supported j by <alpha_j, xi>, so the orbit is the
    row space of A_S^T, one column per supported coordinate, placed in those
    slots."""
    _require_length(module, point)
    support = sorted(point.support)
    D = _domain(module.scalar_basis, ())
    columns = [tuple(module.weights[j][k] for j in support) for k in range(module.torus_rank)]
    return _placed(module.scalar_basis, 2 * module.n_coords, *linalg._rref(D, columns),
                   [2 * j + 1 for j in support])


def _dphi_annihilated(module: WeightedModule, point: ModelPoint, C: _Domain,
                      covectors) -> Subspace:
    """{v : <c, dphi(v)> = 0 for each covector c, rows of C}, in the adapted
    frame.  <c, dphi(v)> is the sum over j in S∩U of 2 <c, alpha_j> mu_j
    times v's radial slot of j, so every other slot is free and the radial
    slots carry the kernel of the |S∩U|-column system (<c, alpha_j> mu_j)_j,
    the weights as integers of the domain and one multiplier for every mu_j.
    The system runs over Z when its entries are rational, as its scalars
    would pick."""
    basis, n = module.scalar_basis, 2 * module.n_coords
    moving = [j for j in sorted(point.support) if j not in module.masked]
    if not moving:
        return Subspace.full(basis, n)
    mu = [point.mu[j] for j in moving]
    E = _domain(basis, [mu])
    D, lift, lift_mu = _common(C, E)
    columns = [linalg._times(D, m, D.ints(module.weights[j]))
               for m, j in zip(lift_mu(E.conv(mu)), moving)]
    rows = linalg._mat_vecs(D, columns, list(map(lift, covectors)))
    coeffs = [D.coeff_rows(r) for r in rows]
    if all(not any(map(any, c[1:])) for c in coeffs):
        D, rows = _domain(basis, ()), [c[0] for c in coeffs]
    radial = [2 * j for j in moving]
    free = [s for s in range(n) if s not in radial]
    return _placed(basis, n, *linalg._kernel(D, rows, len(moving)), radial, free)


def dphi_kernel_image(model, point: ModelPoint) -> tuple[Subspace, Subspace]:
    """Exact kernel (in the adapted frame) and image (in the dual of the Lie
    algebra) of the moment differential at the point: the kernel is what
    every unit covector annihilates, the image the span of the weights on
    S∩U.  On a slice (the standard module, nothing masked) that span is R^S,
    and the slice keeps the tangent vectors mapped into W: the image is
    W ∩ R^S, the vectors on S that every ideal row annihilates."""
    _require_point(model, point)
    module = model.module
    basis, d = module.scalar_basis, module.torus_rank
    Z = _domain(basis, ())
    kernel = _dphi_annihilated(module, point, Z, [Z.unit(d, k) for k in range(d)])
    if isinstance(model, AffineSlice):
        S, N = sorted(point.support), model.ideal
        image = _placed(basis, d, *linalg._kernel(N._D, [[a[j] for j in S] for a in N._rows],
                                                  len(S)), S)
    else:
        image = Subspace.from_vectors(basis, d, [module.weights[j] for j in point.support
                                                 if j not in module.masked])
    return kernel, image


def _weight_kernel(module: WeightedModule, coords) -> Subspace:
    """All xi pairing to zero with the weights alpha_j, j in coords."""
    return Subspace.kernel_of(module.scalar_basis, module.torus_rank,
                              [module.weights[j] for j in coords])


def stabilizer_algebra(model, point: ModelPoint) -> Subspace:
    """ker A_S: all xi pairing to zero with every weight on the support S."""
    _require_point(model, point)
    return _weight_kernel(model.module, point.support)


def tangent_space(slice_: "AffineSlice", point: ModelPoint) -> Subspace:
    """Tangent space of the slice at the point, in the adapted frame: the
    vectors whose moment derivative lies in the slice direction W, those
    every ideal row annihilates."""
    _require_on_slice(slice_, point)
    D, _, ideal, _ = slice_._domain_rows
    return _dphi_annihilated(slice_.module, point, D, ideal)


def leaf_stabilizer_algebra(model, point: ModelPoint) -> Subspace:
    """All xi whose induced tangent vector at the point is tangent to the
    null foliation: the null ideal plus ker A_{S∩U}, for S the support and U
    the unmasked coordinates.  In the adapted frame the form is one 2x2
    block per unmasked coordinate and xi moves the angular slot j in S by
    <alpha_j, xi>.  On a module the leaf tangent is the masked slots.  On a
    slice (nothing masked) T constrains only the radial slots of S, so T^σ
    lies in T: the leaf tangent is the angular vectors on S orthogonal to
    W ∩ R^S, which xi hits iff it lies in the null ideal plus ker A_S."""
    _require_point(model, point)
    module = model.module
    unmasked = [j for j in point.support if j not in module.masked]
    return model.null_ideal().add(_weight_kernel(module, unmasked))


@dataclass(frozen=True)
class CleannessReport:
    clean: bool
    leaf_stabilizer: Subspace
    stabilizer: Subspace
    null_ideal: Subspace
    stabilizer_plus_ideal: Subspace


def cleanness_at(model, point: ModelPoint) -> CleannessReport:
    """Exact test of the cleanness criterion: the leaf stabilizer must equal
    stabilizer + null ideal."""
    leaf = leaf_stabilizer_algebra(model, point)
    stab = stabilizer_algebra(model, point)
    ideal = model.null_ideal()
    total = stab.add(ideal)
    return CleannessReport(leaf == total, leaf, stab, ideal, total)


# -- affine slices ---------------------------------------------------------------


@dataclass(frozen=True)
class AffineSlice:
    """Preimage of an affine subspace lambda + W under the standard moment
    map: a coisotropic model whose null ideal is the annihilator of W.

    Its direction, ideal and plane rows in one number domain (the plane
    rows: the system its polytope, local cones and on-slice check read),
    moment polytope, strata and the points found on it are computed on
    first read and kept outside the fields, so equality and hash see the
    four fields alone."""

    module: WeightedModule
    lam: Vector
    direction: Subspace
    ideal: Subspace

    @property
    def scalar_basis(self) -> ConstantBasis:
        return self.module.scalar_basis

    @property
    def torus_rank(self) -> int:
        return self.module.torus_rank

    def null_ideal(self) -> Subspace:
        return self.ideal

    def tangent(self, point: ModelPoint) -> Subspace:
        """The slice's tangent space at a point checked to lie on it."""
        return tangent_space(self, point)

    def moment_polytope(self) -> Polyhedron:
        return self._polytope

    @cached_property
    def _domain_rows(self) -> tuple[_Domain, tuple, tuple, tuple]:
        """The direction rows, the ideal rows and the plane's rows
        (a, -<a, lambda>), one per ideal row a, in one number domain, each a
        positive multiple of its scalar row, so a column subset has the rank
        of the scalar rows' columns; only lambda is converted."""
        W, N, d = self.direction, self.ideal, self.torus_rank
        E = _domain(self.scalar_basis, [self.lam])
        D = _common(_common(W._D, N._D)[0], E)[0]
        into = lambda X: _common(D, X)[2]
        # mu * (lambda, 1) for some mu > 0: mu * (a, 0) - <a, mu * lambda> e_d
        lam = into(E)(E.conv((*self.lam, self.scalar_basis.one())))
        ideal = tuple(map(into(N._D), N._rows))
        plane = tuple(D.comb(lam[d], a + (D.zero,), D.one, (D.zero,) * d + (D.dot(a, lam[:d]),))
                      for a in ideal)
        return D, tuple(map(into(W._D), W._rows)), ideal, plane

    def direction_rank(self, columns: Sequence[int]) -> int:
        """The rank of the direction rows' entries at the columns."""
        D, rows, _, _ = self._domain_rows
        return _column_rank(D, rows, columns)

    def ideal_rank(self, columns: Sequence[int]) -> int:
        """The rank of the ideal rows' entries at the columns."""
        D, _, rows, _ = self._domain_rows
        return _column_rank(D, rows, columns)

    @cached_property
    def _polytope(self) -> Polyhedron:
        return _plane_cut(self, range(self.torus_rank))

    @cached_property
    def _strata(self) -> tuple["SupportStratum", ...]:
        """Faces of the (pointed) moment polytope are generated by the subsets
        of its vertices and rays vanishing on the complementary coordinates.
        The polytope lies in the orthant, so a generator is positive exactly
        on its support, kept as a bitmask read off its homogenized generator
        in P's domain: S is realized iff the face over S has a vertex and its
        generators' supports together cover S."""
        d = self.torus_rank
        P = self.moment_polytope()
        (verts, vmasks), (rays, rmasks) = (_with_support_masks(P._D, d, pairs)
                                           for pairs in P._paired_vrep[:2])
        out = []
        for S in sorted(_subsets(range(d)), key=lambda s: (len(s), s)):
            inside = sum(1 << j for j in S)
            fv = [v for v, m in zip(verts, vmasks) if m | inside == inside]
            if not fv:
                continue
            fr = [r for r, m in zip(rays, rmasks) if m | inside == inside]
            covered = 0
            for m in itertools.chain(vmasks, rmasks):
                if m | inside == inside:
                    covered |= m
            if covered == inside:
                out.append(SupportStratum(tuple(S), tuple(fv), tuple(fr), self.scalar_basis, d))
        return tuple(out)


def _orthant_rows(slice_: AffineSlice, coords) -> tuple[_Domain, list, list]:
    """The slice's domain, the rows x_j >= 0, the units (e_j, 0), for j in
    coords, and the plane's rows."""
    D, _, _, plane = slice_._domain_rows
    return D, [D.unit(slice_.torus_rank + 1, j) for j in coords], list(plane)


def _plane_cut(slice_: AffineSlice, coords) -> Polyhedron:
    """The plane lambda + W cut by x_j >= 0 for j in coords, one double
    description of the slice's domain rows."""
    D, units, plane = _orthant_rows(slice_, coords)
    return polyhedra._build(slice_.scalar_basis, D, slice_.torus_rank, plane, units)


def _column_rank(D: _Domain, rows, columns: Sequence[int]) -> int:
    return len(_eliminate(D, [[r[j] for j in columns] for r in rows], len(columns))[1])


def _with_support_masks(D: _Domain, d: int, pairs) -> tuple[tuple, list[int]]:
    """The scalar generators of (scalar, homogenized generator) pairs, and
    each one's support as a bitmask, read off the generator in D."""
    return (tuple(v for v, _ in pairs),
            [sum(1 << j for j in range(d) if D.nonzero(g[j])) for _, g in pairs])


def build_affine_slice(
    basis: ConstantBasis,
    d: int,
    lam: Sequence,
    direction_vectors: Sequence[Sequence] = (),
    direction_normals: Sequence[Sequence] | None = None,
) -> AffineSlice:
    """Validated coisotropic slice of the standard module on d coordinates.

    The affine plane lambda + W must meet the open orthant and be transverse
    to every closed orthant face it meets.
    """
    module = standard_module(basis, d)
    lam_v = linalg.as_vector(basis, lam)
    if len(lam_v) != d:
        raise SliceValidationError("lambda has wrong dimension")
    if direction_normals is not None:
        normal_rows = [linalg.as_vector(basis, nv) for nv in direction_normals]
        W = Subspace.kernel_of(basis, d, normal_rows)
    else:
        W = Subspace.from_vectors(basis, d, direction_vectors)
    slice_ = AffineSlice(module, lam_v, W, W.annihilator())
    P = slice_.moment_polytope()
    if P.is_empty:
        raise SliceValidationError("slice misses moment image")
    # must reach the open cone: every coordinate positive somewhere on P,
    # read off P's homogenized generators, positive multiples of (v, 1) for
    # a vertex v and (r, 0) for a ray r (P lies in the orthant: no lines)
    D = P._D
    if any(all(D.sign(g[j]) <= 0 for g in P._vertices + P._rays) for j in range(d)):
        raise SliceValidationError("slice misses moment image")
    # every nonempty orthant face of the pointed polytope contains one of
    # its vertices, so the faces met are those with zeros T inside a vertex
    # zero set.  W + span{e_j : j not in T} = R^d iff W's columns T have
    # rank |T|, and columns of full rank keep it on every subset: one check
    # per distinct vertex zero set covers every face met.
    zero_sets = {tuple(j for j in range(d) if not D.nonzero(g[j])) for g in P._vertices}
    transverse = lambda T: slice_.direction_rank(T) == len(T)
    if not all(map(transverse, zero_sets)):
        # name the first failing face in subset order
        for T in _subsets(range(d)):
            if T and any(set(T) <= set(Z) for Z in zero_sets) and not transverse(T):
                raise SliceValidationError(
                    f"slice is not transverse to the orthant face with zeros {sorted(T)}"
                )
        raise AssertionError("transversality failed on no face")
    return slice_


def _subsets(items) -> list[tuple]:
    items = list(items)
    out = []
    for r in range(len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


def _require_on_slice(slice_: AffineSlice, point: ModelPoint) -> None:
    """Raise unless the point has the slice's length and lies on it; a point
    that passes is kept, and checked once."""
    _require_length(slice_.module, point)
    checked = vars(slice_).setdefault("_on_slice", set())
    if point in checked:
        return
    # every plane row (a, -<a, lambda>) vanishes on (phi, 1), in one domain
    basis, phi = slice_.scalar_basis, moment_quadratic(slice_.module, point)
    E = _domain(basis, [phi])
    D, lift, lift_phi = _common(slice_._domain_rows[0], E)
    x = lift_phi(E.conv((*phi, basis.one())))
    if any(D.nonzero(D.dot(lift(a), x)) for a in slice_._domain_rows[3]):
        raise ModelError("point does not lie on the slice")
    for m in point.mu:
        if m.sign() < 0:
            raise ModelError("point has negative moment value")
    checked.add(point)


# -- support strata -----------------------------------------------------------------


@dataclass(frozen=True)
class SupportStratum:
    support: tuple[int, ...]
    face_vertices: tuple[Vector, ...]
    face_rays: tuple[Vector, ...]
    scalar_basis: ConstantBasis
    ambient_dim: int

    @cached_property
    def representative(self) -> ModelPoint:
        """An exact relative-interior point of the stratum, computed on first
        read: the barycenter of the k face vertices plus the sum of its rays,
        one Fraction per coefficient, (sum of the vertices' + k * the rays')
        over k, with the denominators cleared together."""
        fv, fr, k = self.face_vertices, self.face_rays, len(self.face_vertices)
        mu = []
        for j in range(self.ambient_dim):
            coeffs = []
            for t in range(self.scalar_basis.size):
                ints, den = _clear_denominators(
                    [v[j].coeffs[t] for v in fv] + [k * r[j].coeffs[t] for r in fr])
                coeffs.append(Fraction(sum(ints), den * k))
            mu.append(ExtScalar(self.scalar_basis, tuple(coeffs)))
        return ModelPoint(support=self.support, mu=tuple(mu))


def support_strata(slice_: AffineSlice) -> tuple[SupportStratum, ...]:
    """One stratum per support pattern realized on the slice, in canonical
    order, each with an exact relative-interior representative point; they
    are found once per slice (AffineSlice._strata), and each representative
    on its first read."""
    return slice_._strata


# -- moment image --------------------------------------------------------------------


@dataclass(frozen=True)
class MomentImageReport:
    polytope: Polyhedron
    affine_span_matches: bool
    symplectization_identity: bool
    rational_polyhedral: bool
    null_subgroup_closed: bool

    @property
    def rationality_consistent(self) -> bool:
        return self.rational_polyhedral == self.null_subgroup_closed


def moment_image(slice_: AffineSlice) -> MomentImageReport:
    """The exact moment polytope together with the three verdicts: its affine
    span is lambda + the annihilator of the null ideal, it equals the ambient
    image cut by that affine plane, and it is rational precisely when the
    null subgroup is closed; the cut is read off the rows P was built from."""
    P = slice_.moment_polytope()
    if P.is_empty:
        raise SliceValidationError("slice misses moment image")
    base, direction = polyhedra.affine_span(P)
    span_ok = (
        direction == slice_.ideal.annihilator()
        and slice_.direction.contains(linalg.vec_sub(base, slice_.lam))
    )
    # _cut_out's precondition: build_affine_slice checked that the plane
    # meets the open orthant
    sympl_ok = polyhedra._cut_out(P, *_orthant_rows(slice_, range(P.dim)))
    rational = polyhedra.is_rational_polyhedral(P)
    closed = lattice.null_subgroup_closed(slice_)
    return MomentImageReport(
        polytope=P,
        affine_span_matches=span_ok,
        symplectization_identity=sympl_ok,
        rational_polyhedral=rational,
        null_subgroup_closed=closed,
    )


def local_cone(slice_: AffineSlice, point: ModelPoint) -> Polyhedron:
    """Cone with apex at the moment value of the point: free in supported
    coordinates, nonnegative in the others, inside the affine plane."""
    _require_on_slice(slice_, point)
    return _plane_cut(slice_, [j for j in range(slice_.torus_rank) if j not in point.support])


def _pooled_coords(slice_: AffineSlice) -> list[int]:
    """The j outside some stratum's support: the local cones over one point
    per stratum, pooled, are the plane cut by x_j >= 0 for these j."""
    strata = support_strata(slice_)
    return [j for j in range(slice_.torus_rank) if any(j not in s.support for s in strata)]


def local_cones_intersection(slice_: AffineSlice) -> Polyhedron:
    """Intersection of the local cones over one representative per support
    stratum, from their pooled system."""
    return _plane_cut(slice_, _pooled_coords(slice_))


def local_cones_cut_out(slice_: AffineSlice) -> bool:
    """Whether the local cones' pooled system cuts out the moment polytope,
    read off P's representations with no double description.  _cut_out's
    precondition: the pooled system holds on P, which spans the plane."""
    return polyhedra._cut_out(slice_.moment_polytope(),
                              *_orthant_rows(slice_, _pooled_coords(slice_)))


# -- slice data (symplectic and null slices) -------------------------------------------


@dataclass(frozen=True)
class SliceData:
    symplectic_dim: int
    symplectic_weights: tuple[tuple[int, ...], ...] | None
    null_dim: int


def _tangent_model(model, point: ModelPoint) -> tuple[PresympForm, Subspace]:
    """The form restricted to the model's tangent space T at the point, and
    the orbit tangent in T's coordinates."""
    module = model.module
    T = model.tangent(point)
    # the orbit lies in T, since dphi reads only radial slots and the orbit
    # only angular ones, and T's rows are canonical: an orbit row's
    # coordinates in T are its entries at T's pivots
    orbit = orbit_tangent(module, point)
    F = Subspace(module.scalar_basis, T.dim,
                 *linalg._rref(orbit._D, [[v[p] for p in T.pivots] for v in orbit._rows]))
    return adapted_form(module, point).restrict(T), F


def slices_at(model, point: ModelPoint) -> SliceData:
    """Dimensions and weight labels of the symplectic slice (the reduction of
    the orbit's form-orthogonal D) and of the null slice (leaf directions
    transverse to the orbit), with M the masked set, U its complement, S the
    support and r_X the rank of the weights alpha_j, j in X.  The symplectic
    slice is the lines of U∖S, whole blocks σ-orthogonal to the orbit, plus
    the radial slots of S∩U off the orbit's image, paired with as many
    angular ones: dimension 2|U∖S| + 2(|S∩U| - r_{S∩U}), with the weights
    of U∖S when r_{S∩U} = |S∩U|.  The null slice is the masked slots less
    the orbit directions among them: 2|M| - r_S + r_{S∩U}.  On a slice M is
    empty and T^σ lies in T (leaf_stabilizer_algebra): the same counts."""
    _require_point(model, point)
    module = model.module
    unmasked = [j for j in range(module.n_coords) if j not in module.masked]
    free = [j for j in unmasked if j not in point.support]
    moving = len(unmasked) - len(free)
    d = module.torus_rank
    rank_moving = d - _weight_kernel(module, set(point.support) - module.masked).dim
    rank_support = d - _weight_kernel(module, point.support).dim
    return SliceData(
        symplectic_dim=2 * len(free) + 2 * (moving - rank_moving),
        symplectic_weights=(tuple(tuple(module.weights[j]) for j in free)
                            if rank_moving == moving else None),
        null_dim=2 * len(module.masked) - rank_support + rank_moving,
    )


def symplectization_slice_dim(model, point: ModelPoint) -> int:
    """Dimension of the symplectic slice of the linear symplectization at the
    point, computed by enlarging the tangent model and reducing there.

    The slice is D/(D ∩ D^σ) for D the σ-orthogonal of the enlarged orbit
    tangent; D ∩ D^σ is the radical of σ on D, so its dimension is the rank
    of σ restricted to D."""
    _require_point(model, point)
    restricted, F = _tangent_model(model, point)
    big_form, big_F = presymlin.symplectization(restricted, F)
    D = presymlin.sigma_orthogonal(big_form, big_F)
    return big_form.restricted_rank(D)
