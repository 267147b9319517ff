"""Exception hierarchy shared by all qcontexts modules."""


class QContextsError(Exception):
    """Base class for all qcontexts errors."""


class DimensionMismatch(QContextsError):
    """Operands live in spaces of different dimension."""


class DimensionTooSmall(QContextsError):
    """The operation is only defined for dimension >= 3."""


class NotOrthonormal(QContextsError):
    """Vectors fail the pairwise orthonormality check.

    Carries the offending pair of indices and their inner product.
    """

    def __init__(self, i: int, j: int, inner_product: complex):
        self.pair = (i, j)
        self.inner_product = inner_product
        super().__init__(
            f"vectors {i} and {j} are not orthonormal: "
            f"<v{i}|v{j}> = {inner_product}"
        )


class ValueOutOfRange(QContextsError):
    """A probability-like value lies outside the unit interval."""


class NotInformationallyComplete(QContextsError):
    """Projector family does not span the space of self-adjoint matrices."""


class HypothesisViolated(QContextsError):
    """A theorem hypothesis (e.g. orthogonality preservation) fails."""


class MissingGadget(QContextsError):
    """Ray map lacks the phase-fixing rays needed for constructive fitting."""


class FitFailed(QContextsError):
    """No single operator reproduces the ray map within tolerance."""


class MalformedDocument(QContextsError):
    """An input document does not match its expected schema."""


class BasisNotOrthogonal(QContextsError):
    """A designated basis of a vector system is not orthogonal.

    Carries the basis index and the offending vector pair.
    """

    def __init__(self, basis_index: int, i: int, j: int, overlap: float):
        self.basis_index = basis_index
        self.pair = (i, j)
        self.overlap = overlap
        super().__init__(
            f"basis {basis_index}: vectors {i} and {j} are not orthogonal "
            f"(|<v{i}|v{j}>| = {overlap:.3e})"
        )
