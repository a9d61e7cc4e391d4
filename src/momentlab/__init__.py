"""Exact presymplectic moment geometry on computable linear models.

Torus actions on complex coordinate spaces, coisotropic affine slices, null
ideals and cleanness tests, exact polyhedral moment images with rationality
verdicts, Morse data, local normal-form slices, and a seeded floating-point
sampler for the nonconvex counterexamples the exact engine cannot certify.
"""

from .scalars import (
    ConstantBasis,
    ExtScalar,
    BasisMismatchError,
    ScalarError,
    UnsupportedScalarOperation,
    parse_scalar,
)
from .presymlin import PresympForm, ReducedSpace, Subspace
from .lattice import QuasiLattice, is_rational_subspace, null_subgroup_closed, quasilattice
from .polyhedra import (
    HalfSpace,
    Polyhedron,
    affine_span,
    enumerate_vertices,
    homogenize,
    intersect_halfspaces,
    is_rational_polyhedral,
    poly_equal,
)
from .models import (
    AffineSlice,
    ModelPoint,
    SliceData,
    WeightedModule,
    build_affine_slice,
    cleanness_at,
    dphi_kernel_image,
    leaf_stabilizer_algebra,
    local_cone,
    moment_image,
    slices_at,
    stabilizer_algebra,
    standard_module,
)
from .morse import critical_set, full_critical_set, morse_bott_check

__version__ = "0.1.0"

# the float sampler needs numpy, so its names load it on first use only
_SAMPLER_NAMES = frozenset({
    "CurveSpec",
    "PointCloud",
    "convexity_defect",
    "deformation_scan",
    "lift_to_slice",
    "sample_image",
})


def __getattr__(name):
    if name in _SAMPLER_NAMES:
        from . import sampler

        return getattr(sampler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
