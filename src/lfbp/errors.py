"""Exception types shared across the package."""


class TripletFormatError(ValueError):
    """Raised when a triplet document violates the schema or a model invariant.

    The message names the offending field so callers can surface a usable
    diagnostic for hand-written JSON.
    """

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"field {field!r}: {reason}")


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best value and the achieved error estimate instead of
    silently returning a number of unknown quality.
    """

    def __init__(self, value: float, err_est: float, tol: float):
        self.value = value
        self.err_est = err_est
        self.tol = tol
        super().__init__(
            f"quadrature did not converge: estimate {err_est:.3e} > tol {tol:.3e} "
            f"(best value {value!r})"
        )


class PopulationCapError(RuntimeError):
    """A simulated population exceeded the configured cap.

    The run is invalid past the recorded generation; drivers discard it and
    report the truncation instead of returning biased counts.
    """

    def __init__(self, generation: int, size: int, cap: int):
        self.generation = generation
        self.size = size
        self.cap = cap
        super().__init__(
            f"population {size} exceeded cap {cap} at generation {generation}"
        )


class WalkCapError(RuntimeError):
    """A contour walk exceeded its step budget; the replicate is discarded."""

    def __init__(self, steps: int, cap: int):
        self.steps = steps
        self.cap = cap
        super().__init__(f"contour walk exceeded {cap} steps")


class RegimeError(ValueError):
    """A limit verifier was invoked on a triplet in the wrong criticality regime."""
