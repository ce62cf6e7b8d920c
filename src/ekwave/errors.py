"""Exception types shared across the package."""


class EkwaveError(Exception):
    """Base class for all package errors."""


class GridError(EkwaveError, ValueError):
    """Invalid grid construction parameters."""


class ComponentError(EkwaveError, ValueError):
    """Field component count incompatible with the requested operation."""


class ZeroModeError(EkwaveError, ValueError):
    """Singular multiplier applied to a field with a nonzero mean mode."""


class QuadratureError(EkwaveError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NormalizationError(EkwaveError, ValueError):
    """Constitutive laws violate the required normalization at rho = 1."""


class VacuumError(EkwaveError, RuntimeError):
    """Density (or |psi|^2) dropped below the admissible floor."""


class RootSolveError(EkwaveError, RuntimeError):
    """Bracketed root solve did not converge within its iteration cap."""


class NormalFormError(EkwaveError, RuntimeError):
    """Fixed-point inversion of the normal form failed to contract."""


class StabilityError(EkwaveError, ValueError):
    """Requested time step exceeds the estimated stability bound."""


class DerivativeOrderError(EkwaveError, ValueError):
    """Requested spectral derivative order too high for the grid."""


class GaugeError(EkwaveError, RuntimeError):
    """Gauge weight is invalid (nonpositive square) on the density range."""


class SnapshotError(EkwaveError, ValueError):
    """Snapshot file is malformed or incompatible with the target grid."""


class ConfigError(EkwaveError, ValueError):
    """Scenario configuration is invalid."""
