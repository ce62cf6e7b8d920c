"""Periodic computational domain and sampled fields.

The grid is a uniform tensor-product lattice on the torus
``[0, L_1) x ... x [0, L_d)`` with ``N_i`` points per axis.  All
differential and nonlocal operators act through the discrete Fourier
transform on this lattice; the wavenumbers are ``xi = 2*pi*k / L_i`` with
integer ``k`` in ``[-N_i/2, N_i/2)``.

Spectra come in two layouts, and the data type decides which: a real
field's spectrum is its ``rfftn`` half spectrum, whose last axis keeps only
its first ``N/2 + 1`` entries (the modes ``0 .. N/2 - 1`` and the Nyquist
mode, at the same positions as in the full layout); a complex field's is
its ``fftn`` full spectrum of ``grid.shape``.  :meth:`FourierGrid.fft`
decides by the dtype of its input, :meth:`FourierGrid.ifft` by the length
of the last axis, and :meth:`FourierGrid.cut` slices a per-grid array to
the layout of a spectrum.  Every transform is a ``scipy.fft`` call.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .errors import ComponentError, GridError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class FourierGrid:
    """Uniform periodic grid with its wavenumber lattice.

    Parameters
    ----------
    shape:
        Points per axis, one entry per dimension.  Each must be an even
        power of two with at least 8 points.
    lengths:
        Axis lengths ``L_i > 0``.  A scalar is broadcast to every axis.
    """

    def __init__(self, shape, lengths):
        shape = tuple(int(n) for n in np.atleast_1d(shape))
        if not 1 <= len(shape) <= 3:
            raise GridError(f"dimension must be 1, 2 or 3, got {len(shape)}")
        lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
        if lengths.size == 1:
            lengths = np.repeat(lengths, len(shape))
        if lengths.size != len(shape):
            raise GridError("lengths must match the number of axes")
        for n in shape:
            if n < 8 or n % 2 != 0 or not _is_power_of_two(n):
                raise GridError(f"points per axis must be an even power of two >= 8, got {n}")
        if np.any(lengths <= 0):
            raise GridError("axis lengths must be positive")

        self.shape = shape
        self.lengths = tuple(float(L) for L in lengths)
        self.dim = len(shape)
        self.volume = float(np.prod(lengths))
        self.npoints = int(np.prod(shape))
        self.cell_volume = self.volume / self.npoints

        self.axes = tuple(
            np.arange(n) * (L / n) for n, L in zip(self.shape, self.lengths)
        )
        # integer mode numbers in [-N/2, N/2), FFT layout
        self._modes = tuple(
            scipy.fft.fftfreq(n, d=1.0 / n).astype(np.int64) for n in self.shape
        )
        self.wavenumbers = tuple(
            2.0 * np.pi * m / L for m, L in zip(self._modes, self.lengths)
        )
        # broadcastable wavenumber arrays, one per axis
        k_bcast = tuple(
            k.reshape([-1 if i == j else 1 for j in range(self.dim)])
            for i, k in enumerate(self.wavenumbers)
        )
        # odd-order derivatives must drop the unpaired Nyquist mode, or
        # real fields acquire spurious imaginary content there
        self._k_diff_bcast = tuple(
            np.where(m.reshape(k.shape) == -(n // 2), 0.0, k)
            for k, m, n in zip(k_bcast, self._modes, self.shape)
        )
        self.k_squared_diff = sum(k * k for k in self._k_diff_bcast)
        self.k_squared = sum(k * k for k in k_bcast)
        self.k_magnitude = np.sqrt(self.k_squared)
        # 2/3-rule mask per axis
        mask = np.ones(self.shape, dtype=bool)
        for i, (m, n) in enumerate(zip(self._modes, self.shape)):
            keep = np.abs(m) <= n // 3
            mask &= keep.reshape([-1 if i == j else 1 for j in range(self.dim)])
        self.dealias_mask = mask
        self.half_length = self.shape[-1] // 2 + 1
        self._axes_idx = tuple(range(-self.dim, 0))

    def __eq__(self, other):
        return (
            isinstance(other, FourierGrid)
            and self.shape == other.shape
            and self.lengths == other.lengths
        )

    def __hash__(self):
        return hash((self.shape, self.lengths))

    def __repr__(self):
        return f"FourierGrid(shape={self.shape}, lengths={self.lengths})"

    # -- transforms -----------------------------------------------------
    def fft(self, values):
        """Forward transform over the last ``dim`` axes: the half spectrum of
        real ``values``, the full spectrum of complex ones."""
        if np.isrealobj(values):
            return scipy.fft.rfftn(values, axes=self._axes_idx)
        return scipy.fft.fftn(values, axes=self._axes_idx)

    def ifft(self, spectrum, real=False):
        """Inverse transform of either layout, told apart by the length of
        the last axis.

        A half spectrum gives real samples, a full spectrum complex ones,
        whose imaginary part ``real`` drops.
        """
        if spectrum.shape[-1] == self.half_length:
            return scipy.fft.irfftn(spectrum, s=self.shape, axes=self._axes_idx)
        out = scipy.fft.ifftn(spectrum, axes=self._axes_idx)
        return out.real if real else out

    @staticmethod
    def cut(grid_array, spec):
        """A per-grid array in the layout of the spectrum ``spec``: the half
        layout keeps the first N/2 + 1 entries of the last axis, where both
        layouts agree."""
        return grid_array[..., :spec.shape[-1]]

    def kaxis_diff(self, i):
        """Broadcastable wavenumber array for axis ``i``, Nyquist coefficient zeroed."""
        return self._k_diff_bcast[i]

    def meshgrid(self):
        """Physical coordinates, shape ``(dim, *shape)``."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"))

    def refine(self, values, factor=2):
        """Spectrally interpolate onto a ``factor``-times finer grid."""
        spec = scipy.fft.fftn(values, axes=self._axes_idx)
        spec = scipy.fft.fftshift(spec, axes=self._axes_idx)
        pad = [(0, 0)] * (spec.ndim - self.dim)
        for n in self.shape:
            before = (factor * n - n) // 2
            pad.append((before, factor * n - n - before))
        spec = np.pad(spec, pad)
        spec = scipy.fft.ifftshift(spec, axes=self._axes_idx)
        out = scipy.fft.ifftn(spec, axes=self._axes_idx) * factor**self.dim
        if np.isrealobj(values):
            out = out.real
        return out

    def integrate(self, values):
        """Trapezoid (= mean) quadrature of a scalar sample array."""
        return np.sum(values) * self.cell_volume


class Field:
    """Grid samples of a scalar or vector field.

    Data is stored with a leading component axis of size 1 (scalar) or
    ``grid.dim`` (vector).  The spectral representation is computed lazily
    and cached, in the layout of the data type: the half spectrum of a
    real-kind (float) field, the full spectrum of a complex one.  Fields
    are treated as immutable values.
    """

    __slots__ = ("grid", "data", "_spectral")

    def __init__(self, grid, data, _spectral=None):
        data = np.asarray(data)
        if data.shape[-grid.dim:] != grid.shape:
            raise ComponentError(
                f"sample array shape {data.shape} does not end with grid shape {grid.shape}"
            )
        if data.ndim == grid.dim:
            data = data[None]
        if data.shape[0] not in (1, grid.dim):
            raise ComponentError(
                f"component count must be 1 or {grid.dim}, got {data.shape[0]}"
            )
        if data.dtype.kind not in "fc":
            data = data.astype(float)
        self.grid = grid
        self.data = data
        self._spectral = _spectral

    # -- constructors ---------------------------------------------------
    @classmethod
    def scalar(cls, grid, values):
        values = np.asarray(values)
        if values.shape == grid.shape:
            values = values[None]
        if values.shape != (1,) + grid.shape:
            raise ComponentError(f"scalar field expects grid-shaped samples, got {values.shape}")
        return cls(grid, values)

    @classmethod
    def vector(cls, grid, values):
        values = np.asarray(values)
        if values.shape != (grid.dim,) + grid.shape:
            raise ComponentError(
                f"vector field expects shape {(grid.dim,) + grid.shape}, got {values.shape}"
            )
        return cls(grid, values)

    @classmethod
    def from_spectral(cls, grid, spectrum):
        """The field with spectrum ``spectrum``, kept as its cached
        ``spectral``: a real field from a half spectrum, a complex one from
        a full spectrum."""
        spectrum = np.asarray(spectrum, dtype=complex)
        if spectrum.ndim == grid.dim:
            spectrum = spectrum[None]
        return cls(grid, grid.ifft(spectrum), _spectral=spectrum)

    # -- views ----------------------------------------------------------
    @property
    def ncomp(self):
        return self.data.shape[0]

    @property
    def is_scalar(self):
        return self.ncomp == 1

    @property
    def is_real(self):
        return self.data.dtype.kind == "f"

    @property
    def values(self):
        """Samples without the component axis for scalar fields."""
        return self.data[0] if self.is_scalar else self.data

    @property
    def spectral(self):
        if self._spectral is None:
            self._spectral = self.grid.fft(self.data)
        return self._spectral

    # -- small conveniences --------------------------------------------
    def __mul__(self, scalar):
        return Field(self.grid, self.data * scalar)

    __rmul__ = __mul__

    def l2norm(self):
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2) * self.grid.cell_volume))

    def mean(self):
        """Per-component spatial mean."""
        return self.data.mean(axis=tuple(range(-self.grid.dim, 0)))
