"""Presymplectic linear algebra: subspaces, skew forms, orthogonals and
symplectic reductions, all in exact arithmetic.

Conventions: complex coordinate spaces are modelled as real spaces with
interleaved coordinates (x1, y1, x2, y2, ...), one (x, y) pair per complex
line, and the standard form pairs each x with its y so that a weight-alpha
circle action has moment value alpha/2 * (x^2 + y^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .linalg import Vector
from .scalars import ConstantBasis, ScalarError


class DimensionMismatchError(ScalarError):
    pass


@dataclass(frozen=True)
class Subspace:
    """Exact linear subspace with a canonical reduced row-echelon basis.

    Two subspaces are equal iff their canonical bases are identical, which
    makes equality a syntactic check.
    """

    scalar_basis: ConstantBasis
    ambient_dim: int
    rows: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(
        scalar_basis: ConstantBasis, ambient_dim: int, vectors: Sequence[Sequence]
    ) -> "Subspace":
        vecs = [linalg.as_vector(scalar_basis, v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        rows, pivots = linalg.rref(vecs)
        return Subspace(scalar_basis, ambient_dim, tuple(rows), tuple(pivots))

    @staticmethod
    def kernel_of(scalar_basis: ConstantBasis, ambient_dim: int,
                  rows: Sequence[Vector]) -> "Subspace":
        """{v : A v = 0} for the rows of A, in linalg.kernel's canonical basis."""
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatchError(f"matrix row length is not {ambient_dim}")
        null, pivots = linalg.kernel(rows, scalar_basis, ambient_dim)
        return Subspace(scalar_basis, ambient_dim, tuple(null), tuple(pivots))

    @staticmethod
    def zero(scalar_basis: ConstantBasis, ambient_dim: int) -> "Subspace":
        return Subspace(scalar_basis, ambient_dim, (), ())

    @staticmethod
    def full(scalar_basis: ConstantBasis, ambient_dim: int) -> "Subspace":
        rows = tuple(linalg.unit(scalar_basis, ambient_dim, i) for i in range(ambient_dim))
        return Subspace(scalar_basis, ambient_dim, rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vector: Sequence) -> bool:
        v = linalg.as_vector(self.scalar_basis, vector)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector has wrong length")
        return linalg.rank([*self.rows, v]) == self.dim

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(
            self.scalar_basis, self.ambient_dim, list(self.rows) + list(other.rows)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce the rows [u | u] and [v | 0].  The reduced rows
        with pivots at or after column n are [0 | w], and those w are already
        the canonical basis of the meet."""
        self._check_ambient(other)
        n = self.ambient_dim
        zero = linalg.zeros(self.scalar_basis, n)
        reduced, pivots = linalg.rref(
            [u + u for u in self.rows] + [v + zero for v in other.rows]
        )
        r = sum(p < n for p in pivots)
        return Subspace(
            self.scalar_basis, n, tuple(row[n:] for row in reduced[r:]),
            tuple(p - n for p in pivots[r:]),
        )

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace (same coordinate size).

        Computed once and kept on the instance, paired: the annihilator's own
        annihilator is this subspace, whose canonical rows a second kernel
        would only repeat."""
        cached = vars(self).get("_annihilator")
        if cached is None:
            cached = Subspace.kernel_of(self.scalar_basis, self.ambient_dim, self.rows)
            vars(self)["_annihilator"] = cached
            vars(cached)["_annihilator"] = self
        return cached

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("subspaces live in different ambient spaces")

    def __str__(self):
        if not self.rows:
            return f"0 in R^{self.ambient_dim}"
        return linalg.format_matrix(self.rows)


@dataclass(frozen=True)
class PresympForm:
    """Constant skew-symmetric bilinear form, checked exactly."""

    scalar_basis: ConstantBasis
    dim: int
    matrix: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.matrix) != self.dim or any(len(r) != self.dim for r in self.matrix):
            raise DimensionMismatchError("form matrix has wrong shape")
        for i in range(self.dim):
            for j in range(i, self.dim):
                if not (self.matrix[i][j] + self.matrix[j][i]).is_zero():
                    raise ScalarError("form matrix is not skew-symmetric")

    @staticmethod
    def from_rows(scalar_basis: ConstantBasis, rows: Sequence[Sequence]) -> "PresympForm":
        mat = tuple(linalg.as_vector(scalar_basis, r) for r in rows)
        return PresympForm(scalar_basis, len(mat), mat)

    @staticmethod
    def standard(scalar_basis: ConstantBasis, n_complex: int,
                 masked: Sequence[int] = ()) -> "PresympForm":
        """Standard form on n complex lines; masked lines carry the zero form."""
        dim = 2 * n_complex
        masked_set = set(masked)
        rows = [[scalar_basis.zero() for _ in range(dim)] for _ in range(dim)]
        one = scalar_basis.one()
        for j in range(n_complex):
            if j in masked_set:
                continue
            x, y = 2 * j, 2 * j + 1
            rows[x][y] = -one
            rows[y][x] = one
        return PresympForm.from_rows(scalar_basis, rows)

    def kernel(self) -> Subspace:
        return Subspace.kernel_of(self.scalar_basis, self.dim, self.matrix)

    def rank(self) -> int:
        return linalg.rank(list(self.matrix))

    def restrict(self, basis_rows: Sequence[Vector]) -> "PresympForm":
        """Gram matrix B M B^T of the form on the given vectors."""
        return PresympForm.from_rows(self.scalar_basis, list(zip(*self._gram_columns(basis_rows))))

    def restricted_rank(self, basis_rows: Sequence[Vector]) -> int:
        """The rank of restrict(basis_rows), with no form built: its
        skew-symmetry check is left to forms that are kept."""
        return linalg.rank(self._gram_columns(basis_rows))

    def _gram_columns(self, basis_rows: Sequence[Vector]) -> list[Vector]:
        """The columns of B M B^T: the images M b_j, then B times each image,
        which is column j."""
        basis, rows = self.scalar_basis, list(basis_rows)
        return linalg.mat_vecs(rows, linalg.mat_vecs(self.matrix, rows, basis), basis)


@dataclass(frozen=True)
class ReducedSpace:
    """A quotient of a presymplectic subspace by (part of) its null directions."""

    quotient_dim: int
    induced_form: PresympForm


def sigma_orthogonal(sigma: PresympForm, F: Subspace) -> Subspace:
    """All u with sigma(u, v) = 0 for every v in F."""
    if F.ambient_dim != sigma.dim:
        raise DimensionMismatchError("subspace does not live in the form's space")
    constraints = linalg.mat_vecs(sigma.matrix, F.rows, sigma.scalar_basis)
    return Subspace.kernel_of(sigma.scalar_basis, sigma.dim, constraints)


def natural_quotient(
    sigma: PresympForm, F: Subspace, variant: str = "sub"
) -> ReducedSpace:
    """Largest symplectic quotient of F ("sub"), of its sigma-orthogonal
    ("orth"), or of the whole space ("ambient")."""
    if F.ambient_dim != sigma.dim:
        raise DimensionMismatchError("subspace does not live in the form's space")
    basis = sigma.scalar_basis
    if variant == "sub":
        domain = F
    elif variant == "orth":
        domain = sigma_orthogonal(sigma, F)
    elif variant == "ambient":
        domain = Subspace.full(basis, sigma.dim)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    degenerate = domain.intersect(sigma_orthogonal(sigma, domain))
    reps = linalg.extend_basis(degenerate.rows, domain.rows)
    induced = sigma.restrict(reps)
    if induced.rank() != len(reps):
        raise AssertionError("induced form is degenerate; reduction is inconsistent")
    return ReducedSpace(quotient_dim=len(reps), induced_form=induced)


def symplectization(
    sigma: PresympForm, F: Subspace
) -> tuple[PresympForm, Subspace]:
    """Linear model of the symplectization: the space is enlarged by the dual
    of ker(sigma), the form becomes symplectic, and F embeds as F + 0."""
    basis = sigma.scalar_basis
    ker = sigma.kernel()
    k = ker.dim
    n = sigma.dim
    big = n + k
    zero, one = basis.zero(), basis.one()
    rows = [list(r) + [zero] * k for r in sigma.matrix] + [[zero] * big for _ in range(k)]
    # pair the new dual coordinates with the ker coordinates: canonical rows
    # carry 1 at their own pivot and 0 at the others, so the unit covectors
    # at the pivots restrict to the identity on ker.  The slice does not
    # depend on this choice: on F + 0 the enlarged form restricts to sigma,
    # so its radical on F's orthogonal is F meet F^sigma for any complement.
    for a, p in enumerate(ker.pivots):
        rows[p][n + a] = one
        rows[n + a][p] = -one
    big_form = PresympForm.from_rows(basis, rows)
    embedded = Subspace.from_vectors(
        basis, big, [tuple(r) + tuple(zero for _ in range(k)) for r in F.rows]
    )
    return big_form, embedded

