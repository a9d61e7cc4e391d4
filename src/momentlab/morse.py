"""Critical sets of moment map components on affine slices, exact even Morse
indices, nondegeneracy accounting and the vertex-hull identity for compact
models.

A support stratum is critical for xi exactly when the restriction of xi to
the supported coordinates can be matched by an element of the null ideal;
the remainder eta then fixes the stratum pointwise and its pairings with the
normal coordinate weights decide the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg, models, polyhedra
from .linalg import Vector
from .models import AffineSlice, NotApplicableError, SupportStratum
from .polyhedra import Polyhedron
from .scalars import ExtScalar, ScalarError


class MorseError(ScalarError):
    pass


@dataclass(frozen=True)
class CriticalStratum:
    support: tuple[int, ...]
    dimension: int
    moment_face: Polyhedron
    eta: Vector
    normal_weights: tuple[tuple[int, ExtScalar], ...]
    index: int
    bott_nondegenerate: bool
    zero_normal_coords: tuple[int, ...]


@dataclass(frozen=True)
class GCriticalStratum:
    """A stratum critical for the whole torus: a fixed leaf set."""

    support: tuple[int, ...]
    dimension: int
    image: Vector


@dataclass(frozen=True)
class VertexCheck:
    hull_equals_polytope: bool
    vertex_fibre_counts: tuple[tuple[Vector, int], ...]

    @property
    def fibres_are_single_strata(self) -> bool:
        return all(count == 1 for _, count in self.vertex_fibre_counts)


def _projected_ideal_columns(slice_: AffineSlice, support: Sequence[int]):
    return [tuple(a[j] for j in support) for a in slice_.ideal.rows]


def _decompose(slice_: AffineSlice, xi: Vector, support: Sequence[int]):
    """xi = eta + zeta with eta vanishing on the support and zeta in the
    ideal; None when no such zeta exists (the stratum is not critical)."""
    basis = slice_.scalar_basis
    support = list(support)
    target = tuple(xi[j] for j in support)
    columns = _projected_ideal_columns(slice_, support)
    if support:
        coeffs = linalg.solve(columns, [target], basis)[0]
        if coeffs is None:
            return None
    else:
        coeffs = [basis.zero()] * slice_.ideal.dim
    zeta = linalg.zeros(basis, slice_.torus_rank)
    for c, a in zip(coeffs, slice_.ideal.rows):
        zeta = linalg.vec_add(zeta, linalg.vec_scale(a, c))
    eta = linalg.vec_sub(xi, zeta)
    for j in support:
        if not eta[j].is_zero():
            raise AssertionError("decomposition left the stabilizer")
    return eta, zeta


def _stratum_dimension(stratum: SupportStratum) -> int:
    return stratum.face_affine_dim() + len(stratum.support)


def _as_xi(slice_: AffineSlice, xi: Sequence) -> Vector:
    v = linalg.as_vector(slice_.scalar_basis, xi)
    if len(v) != slice_.torus_rank:
        raise MorseError("xi has wrong dimension")
    return v


def critical_set(slice_: AffineSlice, xi: Sequence) -> tuple[CriticalStratum, ...]:
    """Critical strata of the moment component of xi, in canonical support
    order, with exact indices and nondegeneracy flags."""
    xi_v = _as_xi(slice_, xi)
    out = []
    for stratum in models.support_strata(slice_):
        dec = _decompose(slice_, xi_v, stratum.support)
        if dec is None:
            continue
        eta, _ = dec
        _check_unique(slice_, stratum.support)
        pairings = tuple(
            (j, eta[j]) for j in range(slice_.torus_rank) if j not in stratum.support
        )
        signs = {j: p.sign() for j, p in pairings}
        index = 2 * sum(1 for s in signs.values() if s < 0)
        zeros = tuple(j for j, s in sorted(signs.items()) if s == 0)
        out.append(
            CriticalStratum(
                support=stratum.support,
                dimension=_stratum_dimension(stratum),
                moment_face=stratum.face_polyhedron(),
                eta=eta,
                normal_weights=pairings,
                index=index,
                bott_nondegenerate=not zeros,
                zero_normal_coords=zeros,
            )
        )
    return tuple(out)


def _check_unique(slice_: AffineSlice, support: Sequence[int]) -> None:
    # transversality makes the stabilizer meet the ideal trivially on
    # realized strata, so eta is well defined
    basis = slice_.scalar_basis
    d = slice_.torus_rank
    stab = [linalg.unit(basis, d, j) for j in range(d) if j not in support]
    from .presymlin import Subspace

    meet = Subspace.from_vectors(basis, d, stab).intersect(slice_.ideal)
    if meet.dim != 0:
        raise AssertionError("ambiguous critical decomposition")


def morse_index(slice_: AffineSlice, xi: Sequence, support: Sequence[int]) -> int:
    """Index of the moment component of xi along the stratum with the given
    support: twice the number of negative normal pairings."""
    xi_v = _as_xi(slice_, xi)
    strata = {s.support: s for s in models.support_strata(slice_)}
    key = tuple(sorted(support))
    if key not in strata:
        raise MorseError(f"no stratum with support {key} on the slice")
    dec = _decompose(slice_, xi_v, key)
    if dec is None:
        raise MorseError(f"stratum {key} is not critical for xi")
    eta, _ = dec
    return 2 * sum(
        1
        for j in range(slice_.torus_rank)
        if j not in key and eta[j].sign() < 0
    )


@dataclass(frozen=True)
class BottReport:
    is_morse_bott: bool
    strata: tuple[CriticalStratum, ...]
    resolutions: tuple[tuple[tuple[int, ...], tuple[int, ...] | None], ...]


def morse_bott_check(slice_, xi: Sequence) -> BottReport:
    """Whether the moment component of xi is Morse-Bott: along every critical
    stratum the Hessian kernel must be the tangent space of the critical set,
    i.e. each zero normal pairing must be absorbed by a larger critical
    stratum."""
    if not isinstance(slice_, AffineSlice):
        raise NotApplicableError("not applicable: slice models only")
    strata = critical_set(slice_, xi)
    supports = {s.support for s in strata}
    resolutions = []
    ok = True
    for s in strata:
        if s.bott_nondegenerate:
            resolutions.append((s.support, s.support))
            continue
        bigger = tuple(sorted(set(s.support) | set(s.zero_normal_coords)))
        if bigger in supports:
            resolutions.append((s.support, bigger))
        else:
            resolutions.append((s.support, None))
            ok = False
    return BottReport(ok, strata, tuple(resolutions))


def full_critical_set(
    slice_: AffineSlice,
) -> tuple[tuple[GCriticalStratum, ...], VertexCheck]:
    """Strata critical for every torus direction, their (isolated) images,
    and the exact identity: the moment polytope is the hull of those images,
    with one stratum per vertex fibre."""
    P = slice_.moment_polytope()
    if not polyhedra.is_bounded(P):
        raise MorseError(
            "moment polytope is unbounded; the vertex-hull identity needs a "
            "compact model"
        )
    basis = slice_.scalar_basis
    out = []
    for stratum in models.support_strata(slice_):
        cols = _projected_ideal_columns(slice_, stratum.support)
        k = len(stratum.support)
        if k and linalg.rank(cols) != k:
            continue
        if len(stratum.face_vertices) != 1 or stratum.face_rays:
            raise AssertionError("fixed-leaf stratum image not a point")
        out.append(
            GCriticalStratum(
                support=stratum.support,
                dimension=_stratum_dimension(stratum),
                image=stratum.face_vertices[0],
            )
        )
    hull = polyhedra.from_generators(basis, P.dim, [s.image for s in out])
    counts = []
    for v in P.vrep.vertices:
        n = sum(
            1 for s in out if all((a - b).is_zero() for a, b in zip(s.image, v))
        )
        counts.append((v, n))
    check = VertexCheck(
        hull_equals_polytope=polyhedra.poly_equal(hull, P),
        vertex_fibre_counts=tuple(counts),
    )
    return tuple(out), check
