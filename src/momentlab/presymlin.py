"""Presymplectic linear algebra: subspaces, skew forms, orthogonals and
symplectic reductions, all in exact arithmetic.

Conventions: complex coordinate spaces are modelled as real spaces with
interleaved coordinates (x1, y1, x2, y2, ...), one (x, y) pair per complex
line, and the standard form pairs each x with its y so that a weight-alpha
circle action has moment value alpha/2 * (x^2 + y^2).

Subspaces and forms keep their rows in one number domain (linalg), and every
operation reads and returns such rows, lifting rows over Z into the other
side's domain where two differ (scalars._common).  A domain is picked only
where scalars come in; scalar rows and matrices are built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from . import linalg
from .linalg import Vector
from .scalars import ConstantBasis, ScalarError, _common, _Domain, _domain, _scaled


class DimensionMismatchError(ScalarError):
    pass


@dataclass(frozen=True, eq=False)
class Subspace:
    """Exact linear subspace with a canonical reduced row-echelon basis, kept
    as its rows in the number domain _D.  Made from canonical scalar rows
    (reduced, each pivot entry 1) when no domain is given.

    Two subspaces are equal iff their canonical bases are identical, which
    makes equality a syntactic check on the domain rows.
    """

    scalar_basis: ConstantBasis
    ambient_dim: int
    _rows: tuple
    pivots: tuple[int, ...]
    _D: _Domain = field(default=None, repr=False)

    def __post_init__(self):
        rows = tuple(self._rows)
        if self._D is None:
            D = _domain(self.scalar_basis, rows)
            vars(self).update(_D=D, rows=rows)
            rows = tuple(D.prim(D.conv(r)) for r in rows)
        vars(self).update(_rows=rows, pivots=tuple(self.pivots))

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
        return Subspace(scalar_basis, ambient_dim,
                        *linalg._rref(*linalg._block(scalar_basis, vecs)))

    @staticmethod
    def kernel_of(scalar_basis: ConstantBasis, ambient_dim: int,
                  rows: Sequence[Vector]) -> "Subspace":
        """{v : A v = 0} for the rows of A, read as from_vectors reads its
        vectors, in its canonical basis (linalg._kernel)."""
        rows = [linalg.as_vector(scalar_basis, r) for r in rows]
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatchError(f"matrix row length is not {ambient_dim}")
        return Subspace(scalar_basis, ambient_dim,
                        *linalg._kernel(*linalg._block(scalar_basis, rows), ambient_dim))

    @staticmethod
    def zero(scalar_basis: ConstantBasis, ambient_dim: int) -> "Subspace":
        return Subspace(scalar_basis, ambient_dim, (), (), _domain(scalar_basis, ()))

    @staticmethod
    def full(scalar_basis: ConstantBasis, ambient_dim: int) -> "Subspace":
        D = _domain(scalar_basis, ())
        units = [D.unit(ambient_dim, i) for i in range(ambient_dim)]
        return Subspace(scalar_basis, ambient_dim, units, range(ambient_dim), D)

    @cached_property
    def rows(self) -> tuple[Vector, ...]:
        return tuple(linalg._scalar_rows(self._D, self._rows, self.pivots))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, vector: Sequence) -> bool:
        v = linalg.as_vector(self.scalar_basis, vector)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector has wrong length")
        E, (w,) = linalg._block(self.scalar_basis, [v])
        D, lift, lift_v = _common(self._D, E)
        return len(linalg._pivots(D, [*map(lift, self._rows), lift_v(w)])) == self.dim

    def add(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        D, lift, lift_other = _common(self._D, other._D)
        return Subspace(self.scalar_basis, self.ambient_dim, *linalg._rref(
            D, [*map(lift, self._rows), *map(lift_other, other._rows)]))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce the rows [u | u] and [v | 0].  The reduced rows
        with pivots at or after column n are [0 | w], and those w are already
        the canonical basis of the meet."""
        self._check_ambient(other)
        n = self.ambient_dim
        D, lift, lift_other = _common(self._D, other._D)
        zero = (D.zero,) * n
        reduced, pivots, _ = linalg._eliminate(D, [u + u for u in map(lift, self._rows)]
                                               + [v + zero for v in map(lift_other, other._rows)], n)
        r = sum(p < n for p in pivots)
        return Subspace(self.scalar_basis, n, [D.prim(row[n:]) for row in reduced[r:]],
                        [p - n for p in pivots[r:]], D)

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace (same coordinate size).

        Computed once and kept on the instance, paired: the annihilator's own
        annihilator is this subspace, whose canonical rows a second kernel
        would only repeat."""
        cached = vars(self).get("_annihilator")
        if cached is None:
            n = self.ambient_dim
            cached = Subspace(self.scalar_basis, n, *linalg._kernel(self._D, list(self._rows), n))
            vars(self)["_annihilator"] = cached
            vars(cached)["_annihilator"] = self
        return cached

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("subspaces live in different ambient spaces")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if (self.scalar_basis != other.scalar_basis or self.ambient_dim != other.ambient_dim
                or self.pivots != other.pivots):
            return False
        _, lift, lift_other = _common(self._D, other._D)
        return all(lift(a) == lift_other(b) for a, b in zip(self._rows, other._rows))

    def __hash__(self) -> int:
        return hash((self.scalar_basis, self.ambient_dim, self.pivots))

    def __str__(self):
        if not self._rows:
            return f"0 in R^{self.ambient_dim}"
        return linalg.format_matrix(self.rows)


@dataclass(frozen=True, eq=False)
class PresympForm:
    """Constant skew-symmetric bilinear form, kept as its matrix's rows in the
    number domain _D with one positive multiplier _mult common to all
    entries.  from_rows checks that a matrix is skew; forms skew by
    construction (Gram matrices, block forms, the symplectization) are made
    directly."""

    scalar_basis: ConstantBasis
    dim: int
    _D: _Domain = field(repr=False)
    _rows: tuple = field(repr=False)
    _mult: object = field(repr=False)

    @staticmethod
    def from_rows(scalar_basis: ConstantBasis, rows: Sequence[Sequence]) -> "PresympForm":
        mat = tuple(linalg.as_vector(scalar_basis, r) for r in rows)
        if any(len(r) != len(mat) for r in mat):
            raise DimensionMismatchError("form matrix has wrong shape")
        D = _domain(scalar_basis, mat)
        block, mult = linalg._matrix(D, scalar_basis, mat, len(mat))
        # skew: each row is its column negated, which one multiplier keeps
        if any(row != D.neg(col) for row, col in zip(block, zip(*block))):
            raise ScalarError("form matrix is not skew-symmetric")
        form = PresympForm(scalar_basis, len(mat), D, block, mult)
        vars(form)["matrix"] = mat
        return form

    @staticmethod
    def _blocks(scalar_basis: ConstantBasis, scales: Sequence) -> "PresympForm":
        """The form pairing line j's y with its x by scales[j] (x with y by
        its negative), zero on the line where scales[j] is None."""
        lines = [j for j, s in enumerate(scales) if s is not None]
        D = _domain(scalar_basis, [[scales[j] for j in lines]])
        values, mult = _scaled(D, scalar_basis, [scales[j] for j in lines])
        n = 2 * len(scales)
        rows = [[D.zero] * n for _ in range(n)]
        for j, v in zip(lines, values):
            rows[2 * j][2 * j + 1], rows[2 * j + 1][2 * j] = D.neg((v,))[0], v
        return PresympForm(scalar_basis, n, D, rows, mult)

    @cached_property
    def matrix(self) -> tuple[Vector, ...]:
        return tuple(self._D.div(row, self._mult) for row in self._rows)

    def _vectors(self, vectors: Sequence[Vector] | Subspace):
        """One domain for the form and the vectors, a subspace's canonical
        rows or scalar vectors (scalars._common); the form's rows and
        multiplier in it, its rows over Z carried exactly (D.ints) to keep
        the multiplier common; the vectors' rows in it, and row i's
        multiplier."""
        if isinstance(vectors, Subspace):
            E, pivots = vectors._D, vectors.pivots
        else:
            vectors, pivots = list(vectors), None
            if any(len(v) != self.dim for v in vectors):
                raise DimensionMismatchError("vectors do not live in the form's space")
            E = _domain(self.scalar_basis, vectors)
        D, _, lift = _common(self._D, E)
        M, mult = ((self._rows, self._mult) if D is self._D else
                   ([D.ints(r) for r in self._rows], D.ints((self._mult,))[0]))
        if pivots is not None:
            rows = [lift(b) for b in vectors._rows]
            return D, M, mult, rows, [r[p] for r, p in zip(rows, pivots)]
        rows = [_scaled(D, self.scalar_basis, v) for v in vectors]
        return D, M, mult, [r for r, _ in rows], [m for _, m in rows]

    def kernel(self) -> Subspace:
        return Subspace(self.scalar_basis, self.dim,
                        *linalg._kernel(self._D, list(self._rows), self.dim))

    def rank(self) -> int:
        return len(linalg._pivots(self._D, list(self._rows)))

    def restrict(self, basis_rows: Sequence[Vector] | Subspace) -> "PresympForm":
        """Gram matrix B M B^T of the form on the given vectors, or on a
        subspace's canonical rows."""
        D, M, mult, rows, mults = self._vectors(basis_rows)
        # row i times the other rows' multipliers: every row then carries
        # their product, and the Gram matrix its square times mult
        for i, m in enumerate(mults):
            if m != D.one:
                rows = [r if j == i else linalg._times(D, m, r) for j, r in enumerate(rows)]
                mult = linalg._times(D, m, linalg._times(D, m, (mult,)))[0]
        gram = linalg._mat_vecs(D, rows, linalg._mat_vecs(D, M, rows))
        return PresympForm(self.scalar_basis, len(rows), D, list(zip(*gram)), mult)

    def restricted_rank(self, basis_rows: Sequence[Vector] | Subspace) -> int:
        """The rank of restrict(basis_rows), with no form built: positive row
        and column scalings keep the rank."""
        D, M, _, rows, _ = self._vectors(basis_rows)
        return len(linalg._pivots(D, linalg._mat_vecs(D, rows, linalg._mat_vecs(D, M, rows))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PresympForm):
            return NotImplemented
        return (self.scalar_basis, self.matrix) == (other.scalar_basis, other.matrix)

    def __hash__(self) -> int:
        return hash((self.scalar_basis, self.matrix))


@dataclass(frozen=True)
class ReducedSpace:
    """A quotient of a presymplectic subspace by (part of) its null directions."""

    quotient_dim: int
    induced_form: PresympForm


def sigma_orthogonal(sigma: PresympForm, F: Subspace) -> Subspace:
    """All u with sigma(u, v) = 0 for every v in F: the kernel of the images
    M v, each a positive multiple of its scalar image."""
    if F.ambient_dim != sigma.dim:
        raise DimensionMismatchError("subspace does not live in the form's space")
    D, M, _, rows, _ = sigma._vectors(F)
    return Subspace(sigma.scalar_basis, sigma.dim,
                    *linalg._kernel(D, linalg._mat_vecs(D, M, rows), sigma.dim))


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
    # the rows of domain a greedy pass adds to degenerate's: the pivots at or
    # after column k of [degenerate | domain] as columns, which positive
    # column scalings keep
    D, lift, lift_domain = _common(degenerate._D, domain._D)
    columns = list(zip(*map(lift, degenerate._rows), *map(lift_domain, domain._rows)))
    k = degenerate.dim
    chosen = [p - k for p in linalg._pivots(D, columns) if p >= k]
    # canonical rows of domain stay canonical rows of their span
    reps = Subspace(basis, sigma.dim, [domain._rows[i] for i in chosen],
                    [domain.pivots[i] for i in chosen], domain._D)
    induced = sigma.restrict(reps)
    if induced.rank() != len(chosen):
        raise AssertionError("induced form is degenerate; reduction is inconsistent")
    return ReducedSpace(quotient_dim=len(chosen), induced_form=induced)


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
    D, one = sigma._D, sigma._mult  # the form's multiplier stands for 1
    zero, (minus_one,) = D.zero, D.neg((one,))
    rows = [list(r) + [zero] * k for r in sigma._rows] + [[zero] * big for _ in range(k)]
    # pair the new dual coordinates with the ker coordinates: canonical rows
    # carry 1 at their own pivot and 0 at the others, so the unit covectors
    # at the pivots restrict to the identity on ker.  The slice does not
    # depend on this choice: on F + 0 the enlarged form restricts to sigma,
    # so its radical on F's orthogonal is F meet F^sigma for any complement.
    for a, p in enumerate(ker.pivots):
        rows[p][n + a] = one
        rows[n + a][p] = minus_one
    # F's canonical rows with zeros appended are canonical for F + 0
    zeros = (F._D.zero,) * k
    return (PresympForm(basis, big, D, rows, one),
            Subspace(basis, big, [r + zeros for r in F._rows], F.pivots, F._D))
