"""Seeded construction of initial states.

All randomness flows through a counter-based generator (Philox), so the
same seed reproduces the same state bit-for-bit on any platform.  The
random fields are band-limited: spectra are truncated to |xi| below the
requested cutoff, which keeps them comfortably inside the dealiased
range and makes wrap-time bookkeeping possible for decay measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_field_types
from .grid import Field, FourierGrid
from .laws import ConstitutiveLaws
from .spectral import grad_spec, proj_p_spec
from .states import EKState


@dataclass
class InitialDataSpec:
    """Recipe for a seeded random state.

    ``amplitude`` scales the density bump and the potential velocity;
    ``solenoidal`` is the exact transport norm of the divergence-free
    velocity part (measured in W^{norm_k, norm_p}); ``band_limit`` caps
    the active wavenumbers.
    """

    kind: str = "random-band"
    amplitude: float = 0.05
    solenoidal: float = 0.0
    band_limit: float = 4.0
    norm_k: int = 0
    norm_p: float = 2.0
    rho_mean: float = 1.0

    def __post_init__(self):
        check_field_types(self)


def _band_mask(grid, band_limit):
    cutoff = float(np.max(grid.k_magnitude[grid.dealias_mask]))
    if band_limit > cutoff:
        raise ConfigError(
            f"band limit {band_limit:g} above the dealiasing cutoff {cutoff:g}"
        )
    return (grid.k_magnitude <= band_limit) & (grid.k_magnitude > 0)


def band_limited_scalar(grid: FourierGrid, rng, band_limit: float):
    """Random real mean-free scalar, band-limited and max-normalized to 1."""
    spec = grid.fft(rng.standard_normal(grid.shape))
    phys = grid.ifft(spec * grid.cut(_band_mask(grid, band_limit), spec))
    peak = float(np.max(np.abs(phys)))
    if peak == 0.0:
        raise ConfigError("band limit excludes every lattice mode")
    return phys / peak


def generate_initial_data(spec: InitialDataSpec, grid: FourierGrid,
                          laws: ConstitutiveLaws, seed: int) -> EKState:
    """rho = mean + eps*bump, u = eps*grad(chi) + solenoidal part of size delta."""
    if spec.kind != "random-band":
        raise ConfigError(f"unknown initial-data kind {spec.kind!r}")
    if spec.amplitude < 0 or spec.solenoidal < 0:
        raise ConfigError("amplitudes must be nonnegative")
    rng = np.random.Generator(np.random.Philox(seed))
    bump = band_limited_scalar(grid, rng, spec.band_limit)
    rho = spec.rho_mean + spec.amplitude * bump
    laws.check_density(rho, "generated initial data")

    chi = band_limited_scalar(grid, rng, spec.band_limit)
    u = spec.amplitude * grid.ifft(grad_spec(grid, grid.fft(chi)))

    if spec.solenoidal > 0.0:
        if grid.dim == 1:
            raise ConfigError("no nontrivial divergence-free fields exist in 1d")
        vspec = grid.fft(rng.standard_normal((grid.dim,) + grid.shape))
        vspec = proj_p_spec(grid, vspec * grid.cut(_band_mask(grid, spec.band_limit), vspec))
        from .diagnostics import NormSpec, norm
        measured = norm(grid, vspec, NormSpec(spec.norm_k, spec.norm_p))
        if measured == 0.0:
            raise ConfigError("solenoidal draw vanished; enlarge the band limit")
        u = u + (spec.solenoidal / measured) * grid.ifft(vspec)

    return EKState(rho=Field.scalar(grid, rho), u=Field.vector(grid, u))


def wave_packet(grid: FourierGrid, carrier: float = 1.0, width: float = 4.0) -> Field:
    """Localized modulated packet for dispersion measurements.

    Gaussian envelope of the given spatial width centered mid-domain,
    modulated at the carrier wavenumber along the first axis; mean-free
    by construction of the carrier.
    """
    x = grid.meshgrid()
    centered = [x[i] - grid.lengths[i] / 2.0 for i in range(grid.dim)]
    r2 = sum(c * c for c in centered)
    envelope = np.exp(-r2 / (2.0 * width**2))
    phase = carrier * centered[0]
    vals = envelope * np.exp(1j * phase)
    spec = grid.fft(vals)
    spec[(0,) * grid.dim] = 0.0
    return Field.from_spectral(grid, spec)


def packet_cutoff(carrier: float, width: float, tail_sigmas: float = 4.0) -> float:
    """Effective spectral support edge of :func:`wave_packet`."""
    return carrier + tail_sigmas / width
