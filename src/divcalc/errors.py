"""Error hierarchy for divcalc.

Everything raised on purpose derives from DivcalcError so the CLI can map
failures to exit code 1 without fishing through stdlib exception types.
"""


class DivcalcError(Exception):
    """Base class for all deliberate divcalc failures."""


class ModelError(DivcalcError):
    """Invalid lattice model data (asymmetric gram, label mismatch, bad JSON)."""


class ModelMismatchError(DivcalcError):
    """Two classes from different lattice models were combined."""


class LabelError(DivcalcError):
    """A divisor expression referenced a label the surface does not have."""


class ExprSyntaxError(DivcalcError):
    """Divisor expression failed to parse; the message names the position."""


class OverflowGuardError(DivcalcError):
    """A computed integer left the 64-bit envelope the contract promises."""


class NodalClassError(DivcalcError):
    """A supplied nodal class does not have self-intersection -2."""


class NonCurveClassError(DivcalcError):
    """Adjunction or chi parity failed, the class cannot be a curve class."""


class PhiBoundError(DivcalcError):
    """Boxed phi found no isotropic class with coordinates in its box
    that pairs with L to at most the walk's stop: isqrt(L^2), or on a
    K != 0 model the least |F0.L| of a short isotropic F0 (surfaces.phi).

    The box was too small; a larger box may succeed. Distinct from
    PhiInvariantError, which is final.
    """


class PhiInvariantError(DivcalcError):
    """Certified search exhausted every slice up to its stop and found no
    witness (surfaces.phi).

    On a K = 0 model the stop is isqrt(L^2), from the invariant
    phi^2 <= L^2, so this means the supplied isotropic span is too sparse
    to represent the ambient geometry and no larger search would help. A
    K != 0 model raises it only when no short isotropic class bounds the
    walk.
    """


class EvidenceError(DivcalcError):
    """A criterion was asked to rule without the fields its branch needs."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


class FixtureError(DivcalcError):
    """Unknown fixture id."""


class RangeError(DivcalcError):
    """A numeric input fell outside the range a formula is stated for;
    name, if set, is the one input refused and starts the message."""

    def __init__(self, message, name=None):
        super().__init__(message)
        self.name = name
