"""Computable Hamiltonian models: weighted torus modules, coisotropic affine
slices, null ideals, cleanness tests, exact moment images, local cones and
local normal-form data.

Pointwise linear algebra runs in an adapted frame with two slots per complex
coordinate: on a supported coordinate the slots are the radial and angular
directions through the point, on an unsupported coordinate the real and
imaginary axes.  In that frame every matrix entry is the coordinate's moment
value times an integer, so kernels and orthogonals stay exact without ever
multiplying two irrational coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lattice, linalg, polyhedra, presymlin
from .linalg import Vector
from .polyhedra import Polyhedron
from .presymlin import PresympForm, Subspace
from .scalars import ConstantBasis, ExtScalar, ScalarError


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
        for w in self.weights:
            if len(w) != self.torus_rank:
                raise ModelError("weight vector has wrong length")
        if any(j < 0 or j >= len(self.weights) for j in self.masked):
            raise ModelError("masked index out of range")

    @property
    def n_coords(self) -> int:
        return len(self.weights)

    def sigma(self) -> PresympForm:
        return PresympForm.standard(self.scalar_basis, self.n_coords, sorted(self.masked))

    def weight_pairing(self, j: int, xi: Vector) -> ExtScalar:
        acc = self.scalar_basis.zero()
        for k, a in enumerate(self.weights[j]):
            if a:
                acc = acc + xi[k].scale(a)
        return acc

    def null_ideal(self) -> Subspace:
        """Kernel of the action on the symplectic part: all xi pairing to
        zero with every unmasked weight."""
        rows = [
            linalg.as_vector(self.scalar_basis, self.weights[j])
            for j in range(self.n_coords)
            if j not in self.masked
        ]
        null = linalg.kernel(rows, self.scalar_basis, self.torus_rank)
        return Subspace.from_vectors(self.scalar_basis, self.torus_rank, null)


def standard_module(basis: ConstantBasis, d: int) -> WeightedModule:
    weights = tuple(tuple(1 if i == j else 0 for i in range(d)) for j in range(d))
    return WeightedModule(basis, d, weights)


# -- points ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelPoint:
    """A point of a weighted module, known through its support and its exact
    per-coordinate moment values mu_j = |z_j|^2 / 2.

    Explicit coordinates are kept when given; every pointwise subspace
    computation only needs (support, mu).
    """

    support: tuple[int, ...]
    mu: tuple[ExtScalar, ...]
    coordinates: tuple[tuple[ExtScalar, ExtScalar], ...] | None = None

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
        return ModelPoint(support, mu, tuple(coords))

    @staticmethod
    def from_moment_values(basis: ConstantBasis, values: Sequence) -> "ModelPoint":
        mu = linalg.as_vector(basis, values)
        for m in mu:
            if m.sign() < 0:
                raise ModelError("moment values must be nonnegative")
        support = tuple(j for j, m in enumerate(mu) if not m.is_zero())
        return ModelPoint(support, tuple(mu), None)


# -- moment map and derivatives ---------------------------------------------------


def moment_quadratic(module: WeightedModule, e: ModelPoint) -> Vector:
    """The moment covector: sum over unmasked coordinates of mu_j * alpha_j."""
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


def moment_component(module: WeightedModule, xi: Vector, e: ModelPoint) -> ExtScalar:
    return linalg.dot(moment_quadratic(module, e), xi)


def hessian_quadratic(module: WeightedModule, xi: Vector, v: Sequence) -> ExtScalar:
    """One half of sigma(xi(v), v) for a tangent vector v in interleaved
    (re, im) coordinates; exact, needs |v_j|^2 to stay in the span."""
    vec = linalg.as_vector(module.scalar_basis, v)
    if len(vec) != 2 * module.n_coords:
        raise ModelError("tangent vector has wrong length")
    acc = module.scalar_basis.zero()
    for j in range(module.n_coords):
        if j in module.masked:
            continue
        re, im = vec[2 * j], vec[2 * j + 1]
        sq = re * re + im * im
        acc = acc + (module.weight_pairing(j, xi) * sq).scale(Fraction(1, 2))
    return acc


def fixed_decomposition(
    module: WeightedModule, e: Sequence
) -> tuple[Vector, Vector]:
    """Split a point into its component on zero-weight coordinates (fixed by
    the torus) plus the rest."""
    vec = linalg.as_vector(module.scalar_basis, e)
    if len(vec) != 2 * module.n_coords:
        raise ModelError("point has wrong length")
    zero = module.scalar_basis.zero()
    e0, e1 = list(vec), list(vec)
    for j in range(module.n_coords):
        fixed = all(a == 0 for a in module.weights[j])
        for slot in (2 * j, 2 * j + 1):
            if fixed:
                e1[slot] = zero
            else:
                e0[slot] = zero
    return tuple(e0), tuple(e1)


# -- adapted frame ------------------------------------------------------------------


def adapted_form(module: WeightedModule, point: ModelPoint) -> PresympForm:
    """The form in the adapted frame at the point: each unmasked coordinate
    contributes a standard block scaled by |z_j|^2 = 2 mu_j on the support
    and by 1 off it; masked coordinates contribute zero blocks."""
    basis = module.scalar_basis
    n = 2 * module.n_coords
    zero = basis.zero()
    rows = [[zero for _ in range(n)] for _ in range(n)]
    for j in range(module.n_coords):
        if j in module.masked:
            continue
        scale = point.mu[j].scale(2) if j in point.support else basis.one()
        a, b = 2 * j, 2 * j + 1
        rows[a][b] = -scale
        rows[b][a] = scale
    return PresympForm.from_rows(basis, rows)


def orbit_tangent(module: WeightedModule, point: ModelPoint) -> Subspace:
    """Tangent space of the torus orbit in the adapted frame: the angular
    slots of the supported coordinates, weighted by the integer weights."""
    basis = module.scalar_basis
    n = 2 * module.n_coords
    rows = []
    for k in range(module.torus_rank):
        row = [basis.zero()] * n
        nonzero = False
        for j in point.support:
            a = module.weights[j][k]
            if a:
                row[2 * j + 1] = basis.from_rational(a)
                nonzero = True
        if nonzero:
            rows.append(tuple(row))
    return Subspace.from_vectors(basis, n, rows)


def _dphi_rows(module: WeightedModule, point: ModelPoint) -> list[Vector]:
    """Rows of the moment differential in the adapted frame, one per torus
    generator: d Phi_k (v) = sum over supported unmasked j of
    alpha_jk * 2 mu_j * (radial slot of v)."""
    basis = module.scalar_basis
    n = 2 * module.n_coords
    rows = []
    for k in range(module.torus_rank):
        row = [basis.zero()] * n
        for j in point.support:
            if j in module.masked:
                continue
            a = module.weights[j][k]
            if a:
                row[2 * j] = point.mu[j].scale(2 * a)
        rows.append(tuple(row))
    return rows


def dphi_kernel_image(model, point: ModelPoint) -> tuple[Subspace, Subspace]:
    """Exact kernel (in the adapted frame) and image (in the dual of the Lie
    algebra) of the moment differential at the point."""
    if isinstance(model, AffineSlice):
        module = model.module
        _require_on_slice(model, point)
    elif isinstance(model, WeightedModule):
        module = model
    else:
        raise ModelError(f"unsupported model {type(model).__name__}")
    basis = module.scalar_basis
    n = 2 * module.n_coords
    rows = _dphi_rows(module, point)
    kernel = Subspace.from_vectors(
        basis, n, linalg.kernel(rows, basis, n)
    )
    image = Subspace.from_vectors(
        basis,
        module.torus_rank,
        [
            linalg.as_vector(basis, module.weights[j])
            for j in point.support
            if j not in module.masked
        ],
    )
    if isinstance(model, AffineSlice):
        # the slice restricts tangent vectors to those mapping into W
        image = image.intersect(model.direction)
    return kernel, image


def stabilizer_algebra(model, point: ModelPoint) -> Subspace:
    module = model.module if isinstance(model, AffineSlice) else model
    basis = module.scalar_basis
    rows = [
        linalg.as_vector(basis, module.weights[j]) for j in point.support
    ]
    null = linalg.kernel(rows, basis, module.torus_rank)
    return Subspace.from_vectors(basis, module.torus_rank, null)


def tangent_space(slice_: "AffineSlice", point: ModelPoint) -> Subspace:
    """Tangent space of the slice at the point, in the adapted frame: vectors
    whose moment derivative lies in the slice direction."""
    module = slice_.module
    basis = module.scalar_basis
    n = 2 * module.n_coords
    dphi = _dphi_rows(module, point)
    rows = []
    for a in slice_.ideal.rows:
        row = linalg.zeros(basis, n)
        for k in range(module.torus_rank):
            if not a[k].is_zero():
                row = linalg.vec_add(row, linalg.vec_scale(dphi[k], a[k]))
        rows.append(row)
    return Subspace.from_vectors(
        basis, n, linalg.kernel(rows, basis, n)
    )


def leaf_tangent(model, point: ModelPoint) -> Subspace:
    """Tangent space of the null foliation at the point, computed from the
    form: the kernel of the restriction of the form to the model's tangent
    space."""
    if isinstance(model, AffineSlice):
        module = model.module
        T = tangent_space(model, point)
    else:
        module = model
        T = Subspace.full(module.scalar_basis, 2 * module.n_coords)
    form = adapted_form(module, point)
    return T.intersect(presymlin.sigma_orthogonal(form, T))


def leaf_stabilizer_algebra(model, point: ModelPoint) -> Subspace:
    """All xi whose induced tangent vector at the point is tangent to the
    null foliation, computed directly from the tangency condition."""
    if isinstance(model, AffineSlice):
        module = model.module
        _require_on_slice(model, point)
    else:
        module = model
    basis = module.scalar_basis
    foliation = leaf_tangent(model, point)
    functionals = foliation.annihilator()
    # action vector of xi in the adapted frame: angular slot j carries
    # <alpha_j, xi> on the support
    rows = []
    for phi in functionals.rows:
        row = [basis.zero()] * module.torus_rank
        for j in point.support:
            c = phi[2 * j + 1]
            if c.is_zero():
                continue
            for k, a in enumerate(module.weights[j]):
                if a:
                    row[k] = row[k] + c.scale(a)
        rows.append(tuple(row))
    null = linalg.kernel(rows, basis, module.torus_rank)
    return Subspace.from_vectors(basis, module.torus_rank, null)


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
    map: a coisotropic model whose null ideal is the annihilator of W."""

    module: WeightedModule
    lam: Vector
    direction: Subspace
    ideal: Subspace
    _polytope_cache: "Polyhedron | None" = None
    _strata_cache: "tuple | None" = None

    @property
    def scalar_basis(self) -> ConstantBasis:
        return self.module.scalar_basis

    @property
    def torus_rank(self) -> int:
        return self.module.torus_rank

    def null_ideal(self) -> Subspace:
        return self.ideal

    def orthant(self) -> Polyhedron:
        basis = self.scalar_basis
        d = self.torus_rank
        return polyhedra.intersect_halfspaces(
            basis, d, [(linalg.unit(basis, d, j), 0) for j in range(d)]
        )

    def moment_polytope(self) -> Polyhedron:
        if self._polytope_cache is None:
            basis = self.scalar_basis
            d = self.torus_rank
            eqs = [(a, linalg.dot(a, self.lam)) for a in self.ideal.rows]
            P = polyhedra.intersect_halfspaces(
                basis, d, [(linalg.unit(basis, d, j), 0) for j in range(d)], eqs
            )
            object.__setattr__(self, "_polytope_cache", P)
        return self._polytope_cache


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
        W = Subspace.from_vectors(
            basis, d, linalg.kernel(normal_rows, basis, d)
        )
    else:
        W = Subspace.from_vectors(basis, d, direction_vectors)
    ideal = W.annihilator()
    slice_ = AffineSlice(module, lam_v, W, ideal)
    P = slice_.moment_polytope()
    if P.is_empty:
        raise SliceValidationError("slice misses moment image")
    # must reach the open cone: every coordinate positive somewhere on P
    for j in range(d):
        if not _coordinate_positive_somewhere(P, j):
            raise SliceValidationError("slice misses moment image")
    # every nonempty orthant face of the pointed polytope contains one of
    # its vertices, so face emptiness is read off the vertex zero patterns
    for T in _subsets(range(d)):
        if not T:
            continue
        if not any(
            all(v[j].is_zero() for j in T) for v in P.vrep.vertices
        ):
            continue
        tangent = [linalg.unit(basis, d, j) for j in range(d) if j not in T]
        if linalg.rank(list(W.rows) + tangent) != d:
            raise SliceValidationError(
                f"slice is not transverse to the orthant face with zeros {sorted(T)}"
            )
    return AffineSlice(module, lam_v, W, ideal, P)


def _subsets(items) -> list[tuple]:
    items = list(items)
    out = []
    for r in range(len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


def _coordinate_positive_somewhere(P: Polyhedron, j: int) -> bool:
    if P.is_empty:
        return False
    for v in P.vrep.vertices:
        if v[j].sign() > 0:
            return True
    for r in P.vrep.rays_with_lines:
        if r[j].sign() > 0:
            return True
    return False


def _require_on_slice(slice_: AffineSlice, point: ModelPoint) -> None:
    phi = moment_quadratic(slice_.module, point)
    for a in slice_.ideal.rows:
        if not (linalg.dot(a, phi) - linalg.dot(a, slice_.lam)).is_zero():
            raise ModelError("point does not lie on the slice")
    for m in point.mu:
        if m.sign() < 0:
            raise ModelError("point has negative moment value")


# -- support strata -----------------------------------------------------------------


@dataclass(frozen=True)
class SupportStratum:
    support: tuple[int, ...]
    face_vertices: tuple[Vector, ...]
    face_rays: tuple[Vector, ...]
    representative: ModelPoint
    scalar_basis: ConstantBasis
    ambient_dim: int

    def face_polyhedron(self) -> Polyhedron:
        """The face of the moment polytope carrying this stratum."""
        return polyhedra.from_generators(
            self.scalar_basis, self.ambient_dim,
            [list(v) for v in self.face_vertices],
            [list(r) for r in self.face_rays],
        )

    def face_affine_dim(self) -> int:
        base = self.face_vertices[0]
        rows = [linalg.vec_sub(v, base) for v in self.face_vertices[1:]]
        rows += list(self.face_rays)
        return linalg.rank(rows)


def support_strata(slice_: AffineSlice) -> tuple[SupportStratum, ...]:
    """One stratum per support pattern realized on the slice, in canonical
    order, each with an exact relative-interior representative point.

    Faces of the (pointed) moment polytope are generated by the subsets of
    its vertices and rays vanishing on the complementary coordinates, so no
    new conversions are needed here.
    """
    if slice_._strata_cache is not None:
        return slice_._strata_cache
    d = slice_.torus_rank
    basis = slice_.scalar_basis
    P = slice_.moment_polytope()
    verts, rays = P.vrep.vertices, P.vrep.rays_with_lines
    out = []
    for S in sorted(_subsets(range(d)), key=lambda s: (len(s), s)):
        comp = [j for j in range(d) if j not in S]
        fv = [v for v in verts if all(v[j].is_zero() for j in comp)]
        if not fv:
            continue
        fr = [r for r in rays if all(r[j].is_zero() for j in comp)]
        realized = all(
            any(v[j].sign() > 0 for v in fv) or any(r[j].sign() > 0 for r in fr)
            for j in S
        )
        if not realized:
            continue
        mu = linalg.zeros(basis, d)
        for v in fv:
            mu = linalg.vec_add(mu, v)
        mu = linalg.vec_scale(mu, Fraction(1, len(fv)))
        for r in fr:
            mu = linalg.vec_add(mu, r)
        rep = ModelPoint(support=tuple(S), mu=tuple(mu), coordinates=None)
        out.append(
            SupportStratum(tuple(S), tuple(fv), tuple(fr), rep, basis, d)
        )
    object.__setattr__(slice_, "_strata_cache", tuple(out))
    return slice_._strata_cache


# -- moment image --------------------------------------------------------------------


@dataclass(frozen=True)
class MomentImageReport:
    polytope: Polyhedron
    affine_span_matches: bool
    symplectization_identity: bool
    rational_polyhedral: bool
    null_subgroup_closed: bool
    quasilattice: lattice.QuasiLattice

    @property
    def rationality_consistent(self) -> bool:
        return self.rational_polyhedral == self.null_subgroup_closed


def moment_image(slice_: AffineSlice) -> MomentImageReport:
    """The exact moment polytope together with the three verdicts: its affine
    span is lambda + the annihilator of the null ideal, it equals the ambient
    image cut by that affine plane, and it is rational precisely when the
    null subgroup is closed."""
    P = slice_.moment_polytope()
    if P.is_empty:
        raise SliceValidationError("slice misses moment image")
    base, direction = polyhedra.affine_span(P)
    span_ok = (
        direction == slice_.ideal.annihilator()
        and slice_.direction.contains(linalg.vec_sub(base, slice_.lam))
    )
    ambient = slice_.orthant()
    affine_only = polyhedra.intersect_halfspaces(
        slice_.scalar_basis,
        slice_.torus_rank,
        [],
        [(a, linalg.dot(a, slice_.lam)) for a in slice_.ideal.rows],
    )
    sympl_ok = polyhedra.poly_equal(P, polyhedra.intersect(ambient, affine_only))
    rational = polyhedra.is_rational_polyhedral(P)
    closed = lattice.null_subgroup_closed(slice_)
    return MomentImageReport(
        polytope=P,
        affine_span_matches=span_ok,
        symplectization_identity=sympl_ok,
        rational_polyhedral=rational,
        null_subgroup_closed=closed,
        quasilattice=lattice.quasilattice(slice_.ideal),
    )


def local_cone(slice_: AffineSlice, point: ModelPoint) -> Polyhedron:
    """Cone with apex at the moment value of the point: free in supported
    coordinates, nonnegative in the others, inside the affine plane."""
    _require_on_slice(slice_, point)
    basis = slice_.scalar_basis
    d = slice_.torus_rank
    hs = [
        (linalg.unit(basis, d, j), 0)
        for j in range(d)
        if j not in point.support
    ]
    eqs = [(a, linalg.dot(a, slice_.lam)) for a in slice_.ideal.rows]
    return polyhedra.intersect_halfspaces(basis, d, hs, eqs)


def local_cones_intersection(slice_: AffineSlice) -> Polyhedron:
    """Intersection of the local cones over one representative per support
    stratum (all constraints pooled into one exact system)."""
    basis = slice_.scalar_basis
    d = slice_.torus_rank
    hs = []
    seen = set()
    for stratum in support_strata(slice_):
        for j in range(d):
            if j not in stratum.support and j not in seen:
                seen.add(j)
                hs.append((linalg.unit(basis, d, j), 0))
    eqs = [(a, linalg.dot(a, slice_.lam)) for a in slice_.ideal.rows]
    return polyhedra.intersect_halfspaces(basis, d, hs, eqs)


# -- slice data (symplectic and null slices) -------------------------------------------


@dataclass(frozen=True)
class SliceData:
    symplectic_dim: int
    symplectic_weights: tuple[tuple[int, ...], ...] | None
    null_dim: int
    null_weights: tuple[tuple[int, ...], ...] | None


def slices_at(model, point: ModelPoint) -> SliceData:
    """Dimensions and weight labels of the symplectic slice (the reduction of
    the orbit's form-orthogonal) and of the null slice (leaf directions
    transverse to the orbit)."""
    if isinstance(model, AffineSlice):
        module = model.module
        _require_on_slice(model, point)
        T = tangent_space(model, point)
    else:
        module = model
        T = Subspace.full(module.scalar_basis, 2 * module.n_coords)
    basis = module.scalar_basis
    form = adapted_form(module, point)
    t_rows = list(T.rows)
    restricted = form.restrict(t_rows)
    orbit = orbit_tangent(module, point)
    orbit_in_T = presymlin.coordinates_in_basis(list(orbit.rows), t_rows, basis)
    F = Subspace.from_vectors(basis, T.dim, orbit_in_T)
    reduced = presymlin.natural_quotient(restricted, F, "orth")
    foliation = restricted.kernel()
    null_dim = F.add(foliation).dim - F.dim
    sym_weights = _identify_line_weights(
        module, point, T, reduced, expected_dim=reduced.quotient_dim
    )
    null_weights = () if null_dim == 0 else None
    return SliceData(
        symplectic_dim=reduced.quotient_dim,
        symplectic_weights=sym_weights,
        null_dim=null_dim,
        null_weights=null_weights,
    )


def _identify_line_weights(
    module: WeightedModule,
    point: ModelPoint,
    T: Subspace,
    reduced: presymlin.ReducedSpace,
    expected_dim: int,
):
    """Match the symplectic slice with whole unsupported unmasked coordinate
    lines; returns their weights or None when the match fails."""
    basis = module.scalar_basis
    candidates = [
        j
        for j in range(module.n_coords)
        if j not in point.support and j not in module.masked
    ]
    if 2 * len(candidates) != expected_dim:
        return None
    slots = [
        linalg.unit(basis, 2 * module.n_coords, slot)
        for j in candidates
        for slot in (2 * j, 2 * j + 1)
    ]
    coords = linalg.solve(T.rows, slots, basis)
    if None in coords or not all(reduced.domain.contains(c) for c in coords):
        return None
    images = [linalg.mat_vec(reduced.projection, c) for c in coords]
    if linalg.rank(images) != expected_dim:
        return None
    return tuple(tuple(module.weights[j]) for j in candidates)


def symplectization_slice_dim(model, point: ModelPoint) -> int:
    """Dimension of the symplectic slice of the linear symplectization at the
    point, computed by enlarging the tangent model and reducing there."""
    if isinstance(model, AffineSlice):
        module = model.module
        T = tangent_space(model, point)
    else:
        module = model
        T = Subspace.full(module.scalar_basis, 2 * module.n_coords)
    basis = module.scalar_basis
    form = adapted_form(module, point)
    t_rows = list(T.rows)
    restricted = form.restrict(t_rows)
    orbit = orbit_tangent(module, point)
    orbit_in_T = presymlin.coordinates_in_basis(list(orbit.rows), t_rows, basis)
    F = Subspace.from_vectors(basis, T.dim, orbit_in_T)
    big_form, big_F = presymlin.symplectization(restricted, F)
    reduced = presymlin.natural_quotient(big_form, big_F, "orth")
    return reduced.quotient_dim


# -- local normal-form data --------------------------------------------------------


@dataclass(frozen=True)
class LocalModelData:
    lam: Vector
    stabilizer: Subspace
    ideal: Subspace
    s_weights: tuple[tuple[int, ...], ...]
    v_dim: int
    complement: tuple[Vector, ...]
    q_dim: int

    def stabilizer_weight_multiset(self) -> tuple[tuple[Fraction, ...], ...]:
        return _restrict_weights(self.s_weights, self.stabilizer)


def _restrict_weights(
    weights: Sequence[Sequence[int]], h: Subspace
) -> tuple[tuple[Fraction, ...], ...]:
    out = []
    for w in weights:
        row = tuple(
            linalg.dot(linalg.as_vector(h.scalar_basis, w), b).rational_value()
            if all(e.is_rational() for e in b)
            else None
            for b in h.rows
        )
        out.append(row)
    return tuple(sorted(out))


def build_local_model(
    basis: ConstantBasis,
    lam: Sequence,
    stabilizer: Subspace,
    s_weights: Sequence[Sequence[int]],
    v_dim: int,
    ideal: Subspace,
) -> LocalModelData:
    """Validated ingredients of the local normal form.  The intersection of
    the ideal with the stabilizer must act trivially on the symplectic slice;
    the complement splitting is chosen compatibly with the ideal."""
    lam_v = linalg.as_vector(basis, lam)
    d = stabilizer.ambient_dim
    if ideal.ambient_dim != d or len(lam_v) != d:
        raise ModelError("ingredient dimensions disagree")
    meet = ideal.intersect(stabilizer)
    for w in s_weights:
        wv = linalg.as_vector(basis, w)
        for b in meet.rows:
            if not linalg.dot(wv, b).is_zero():
                raise ModelError(
                    "invalid ingredients: the ideal meets the stabilizer in a "
                    "direction acting nontrivially on the symplectic slice"
                )
    # complement of the stabilizer, filled from the ideal first so that the
    # lift of (ideal + stabilizer)/stabilizer lands inside the ideal
    complement = linalg.extend_basis(
        stabilizer.rows, list(ideal.rows) + [linalg.unit(basis, d, i) for i in range(d)]
    )
    p_dim = ideal.add(stabilizer).dim - stabilizer.dim
    q_dim = (d - stabilizer.dim) - p_dim
    return LocalModelData(
        lam=lam_v,
        stabilizer=stabilizer,
        ideal=ideal,
        s_weights=tuple(tuple(w) for w in s_weights),
        v_dim=v_dim,
        complement=tuple(complement),
        q_dim=q_dim,
    )


def matches_point_data(
    data: LocalModelData, model, point: ModelPoint
) -> bool:
    """Discrete-invariant comparison of the local model with the situation at
    an actual model point: moment value, stabilizer, null ideal, slice
    dimensions and stabilizer-restricted slice weights must all agree."""
    module = model.module if isinstance(model, AffineSlice) else model
    phi = moment_quadratic(module, point)
    if any(not (a - b).is_zero() for a, b in zip(phi, data.lam)):
        return False
    if stabilizer_algebra(model, point) != data.stabilizer:
        return False
    if model.null_ideal() != data.ideal:
        return False
    sd = slices_at(model, point)
    if sd.symplectic_dim != 2 * len(data.s_weights) or sd.null_dim != data.v_dim:
        return False
    if sd.symplectic_weights is None:
        return True
    return (
        _restrict_weights(sd.symplectic_weights, data.stabilizer)
        == data.stabilizer_weight_multiset()
    )
