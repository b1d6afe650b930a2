"""Exception types shared across the package."""


class SceneConfigError(ValueError):
    """Invalid or inconsistent scene configuration (carries a field path)."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class DippingProfileError(ValueError):
    """Profile dips below the ground plane; solver kernels are invalid there."""


class SingularityError(ValueError):
    """Evaluation requested at (or too close to) a field singularity."""


class ProximityError(ValueError):
    """Point too close to the surface for the quadrature in use."""


class ResonanceError(RuntimeError):
    """Linear system conditioning indicates a spurious interior resonance."""


class MemoryBudgetError(MemoryError):
    """The collocation system does not fit in what the process can allocate."""


class SolveError(RuntimeError):
    """Linear solve failed to meet the residual contract."""


class InverseCrimeError(ValueError):
    """Synthetic data and inversion share the same mesh discretization."""
