"""Exception types shared across the library."""


class AlgolabError(Exception):
    """Base class for all library errors."""


class CyclicQuiver(AlgolabError):
    pass


class NotConnected(AlgolabError):
    pass


class NonPositiveVector(AlgolabError):
    """Coxeter iteration left the positive orthant without an injective hit."""


class HorizonTooSmall(AlgolabError):
    """A Serre profile does not extend far enough for the requested formula."""


class NotSerreFormal(AlgolabError):
    """Raised when a derived Nakayama step produces more than one cohomology.

    Carries the witness: the simple index, the failing power of the inverse
    Serre functor, and the set of nonzero cohomology degrees.
    """

    def __init__(self, simple, power, degrees):
        self.simple = simple
        self.power = power
        self.degrees = frozenset(degrees)
        super().__init__(
            f"nu^-{power}(P_{simple}) has cohomology in degrees {sorted(self.degrees)}"
        )


class ResolutionBoundExceeded(AlgolabError):
    """A resolution or coresolution walk exceeded its step bound."""


class InvalidLength(AlgolabError):
    pass


class InvalidParams(AlgolabError):
    pass


class InvalidKupisch(AlgolabError):
    pass


class CriterionInapplicable(AlgolabError):
    """A criterion's hypothesis fails; carries the obstruction."""

    def __init__(self, message, obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


class NotDHereditary(AlgolabError):
    pass


class GateFailed(AlgolabError):
    """Hom(DA, eA) != 0; carries a nonzero hom witness description."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InfiniteDimensional(AlgolabError):
    pass


class NotTriangular(AlgolabError):
    pass


class MixedWeights(AlgolabError):
    pass


class UnknownPeriodicity(AlgolabError):
    """Periodicity is undecided at the computed horizon."""


class InvalidAlgebra(AlgolabError):
    pass


class InternalMismatch(AlgolabError):
    """Two computations that must agree did not; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
