"""Exception types and the value-type check shared across the package."""

import dataclasses
from numbers import Integral, Real

_KINDS = {"float": Real, "int": Integral, "str": str}


class EkwaveError(Exception):
    """Base class for all package errors."""


class GridError(EkwaveError, ValueError):
    """Invalid grid construction parameters."""


class ComponentError(EkwaveError, ValueError):
    """Field component count incompatible with the requested operation."""


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


class FitError(EkwaveError, ValueError):
    """Too few usable samples for a least-squares fit."""


class SnapshotError(EkwaveError, ValueError):
    """Snapshot file is malformed or incompatible with the target grid."""


class ConfigError(EkwaveError, ValueError):
    """Scenario configuration is invalid."""


def check_field_types(obj) -> None:
    """Raise TypeError where a dataclass field's value is not of its annotated kind.

    ``float`` fields take any real number and ``int`` fields any integer,
    booleans excepted.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not is_kind(value, f.type):
            raise TypeError(f"{type(obj).__name__}.{f.name} must be {f.type}, got {value!r}")


def is_kind(value, kind: str) -> bool:
    """Whether ``value`` is of ``kind`` ("float": any real number, "int": any
    integer, "str"), booleans excepted."""
    return not isinstance(value, bool) and isinstance(value, _KINDS[kind])
