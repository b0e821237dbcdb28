"""Lattice convolution engine for the collision kernel.

All velocity integrals against phi^ij(xi - xi_*) are discrete convolutions on
the uniform lattice, evaluated exactly (to roundoff) by zero-padded FFTs.  The
FFTs are pruned (Markel, "FFT pruning", 1971): one axis at a time, they skip
the all-zero input slabs and the output slabs the crop discards, with the axis
order and the 1/pad^3 placement of ``fftn``/``ifftn``, so the results are
those of the full 3-D transforms bit for bit.  Results never alias the
convolver's reused buffers.  The kernel is tabulated at every lattice offset;
the coincident-offset entry is an isotropized cell average of the
|v|^(gamma+2) singularity plus a calibration term that makes the discrete
collision frequency exact at xi = 0 (the point-sampled near field otherwise
biases sigma by O(h^2); see notes on kernel_tables).  Every off-zero entry
keeps the exact projector structure phi^ij(d) d_j = 0, which the null-space
identities of the assembled operator rely on.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.fft as sfft
from scipy.special import gamma as _gamma_fn

__all__ = ["cube_average_power", "sigma_iso_origin", "kernel_tables", "LatticeConvolver"]

_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PACK = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])   # packed index of (i, j) in _PAIRS
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def cube_average_power(gamma: float) -> float:
    """Mean of |u|^(gamma+2) over the unit cube [-1/2, 1/2]^3.

    Reduced to a 1-D angular integral over the fundamental spherical triangle
    (the radial integral is closed-form), so the integrable singularity at the
    origin is handled exactly.  The angular integrand is smooth on [0, pi/4],
    and a 16-point Gauss-Legendre rule integrates it to roundoff.
    """
    p = gamma + 5.0
    beta = np.pi / 8.0 * (_GL_NODES + 1.0)
    sec2 = 1.0 / np.cos(beta) ** 2
    angular = ((1.0 + sec2) ** ((p - 1.0) / 2.0) - 1.0) / (p - 1.0)
    val = np.pi / 8.0 * np.sum(_GL_WEIGHTS * angular)
    return 48.0 / p * 0.5 ** p * val


def sigma_iso_origin(gamma: float, c_phi: float) -> float:
    """Exact continuum sigma^ii(0) = (2 C_phi / 3) * int |v|^(gamma+2) mu(v) dv."""
    radial = 2.0 ** ((gamma + 3.0) / 2.0) * _gamma_fn((gamma + 5.0) / 2.0)
    return (2.0 * c_phi / 3.0) * (2.0 * np.pi) ** -1.5 * 4.0 * np.pi * radial


def kernel_tables(grid, gamma: float, c_phi: float, pad: int) -> np.ndarray:
    """Tabulate phi^ij at all lattice offsets, packed (6, pad, pad, pad).

    Offsets are stored circularly for FFT use.  The d = 0 entry is
    (2/3) delta_ij times the cell average of c_phi |v|^(gamma+2), plus a
    diagonal calibration chosen so the discrete convolution with mu reproduces
    the exact isotropic collision frequency at the origin.  The calibration is
    isotropic and enters only the zero offset, so kernel symmetry, evenness,
    positive semidefiniteness and the projector identity at d != 0 all survive.
    """
    n, h = grid.n, grid.h
    if pad < 2 * n - 1:
        raise ValueError("pad must be at least 2n-1 for an exact linear convolution")
    off = (((np.arange(pad) + pad // 2) % pad) - pad // 2) * h
    d = np.stack(np.meshgrid(off, off, off, indexing="ij"), axis=0)
    r2 = np.sum(d * d, axis=0)
    r2safe = np.where(r2 == 0.0, 1.0, r2)
    s = c_phi * r2safe ** ((gamma + 2.0) / 2.0)
    tabs = np.empty((6, pad, pad, pad))
    diag0 = c_phi * (2.0 / 3.0) * cube_average_power(gamma) * h ** (gamma + 2.0)
    for m, (i, j) in enumerate(_PAIRS):
        delta = 1.0 if i == j else 0.0
        tabs[m] = s * (delta - d[i] * d[j] / r2safe)
        tabs[m].flat[0] = diag0 if i == j else 0.0

    # calibrate the coincident-cell entry against the exact sigma(0)
    i0 = grid.origin_index
    dvec = grid.xi[:, i0][:, None] - grid.xi
    rr2 = np.sum(dvec * dvec, axis=0)
    mask = rr2 > 0.0
    s11 = np.empty_like(rr2)
    s11[mask] = c_phi * rr2[mask] ** ((gamma + 2.0) / 2.0) * (1.0 - dvec[0, mask] ** 2 / rr2[mask])
    s11[~mask] = diag0
    sig0 = float(np.sum(grid.weights * s11 * grid.mu))
    delta_cal = (sigma_iso_origin(gamma, c_phi) - sig0) / (grid.weights[i0] * grid.mu[i0])
    for m, (i, j) in enumerate(_PAIRS):
        if i == j:
            tabs[m].flat[0] += delta_cal
    return tabs


def _single_view(buf: np.ndarray) -> np.ndarray:
    """A complex64 array of buf's shape over the first half of the complex128 buf's memory."""
    return buf.reshape(-1).view(np.complex64)[:buf.size].reshape(buf.shape)


class LatticeConvolver:
    """Applies the 3x3 kernel convolution (out_i = sum_j phi^ij * v_j) via FFT.

    The zero-padded circular convolution of size pad >= 2n-1 reproduces the
    direct weighted double sum exactly (to roundoff); quadrature weights are
    folded into the input fields by the caller.

    The 3-D transforms are pruned and run one axis at a time, in place, in
    buffers the convolver owns.  The forward transform runs along axis 1 over
    the n^2 lines that hold data, along axis 2 over n*pad lines, and along
    axis 3 over all pad^2 lines.  The inverse transform runs along axes 1, 2
    and 3 in turn and keeps only the first n entries after each pass, so its
    passes cover pad^2, n*pad and n^2 lines.  Each pass overwrites the zero
    padding its successor reads, so the padding is re-zeroed on every call.
    Axis order and scaling follow ``fftn``/``ifftn``: the inverse passes are
    unscaled and the 1/pad^3 factor is applied right after the axis-1 pass,
    where ``ifftn`` applies it, so results equal the full 3-D transforms bit
    for bit.  Results are fresh arrays and never alias the buffers.  Nothing
    caches a convolver: a ``LinearizedOperator`` builds one and keeps it, and
    ``sigma_field`` and ``apply_Q`` each build their own.

    ``apply_vector`` runs in the precision its ``dtype`` names.  In complex64
    it runs in complex64 views of the same buffers, against a float32 copy of
    the kernel spectra built on its first such call: about half the time of a
    double call, at about 2e-7 relative error.  Every call writes each buffer
    entry it reads, so a double call gives the same bits after a single one.
    """

    def __init__(self, grid, gamma: float, c_phi: float):
        self.grid = grid
        n = grid.n
        self.pad = sfft.next_fast_len(2 * n - 1)
        tabs = kernel_tables(grid, gamma, c_phi, self.pad)
        # kernels are even, so their DFTs are real
        self.hat = np.empty((6,) + (self.pad,) * 3)
        for m in range(6):
            self.hat[m] = sfft.fftn(tabs[m]).real
        self._spec = np.empty((3,) + (self.pad,) * 3, dtype=complex)
        self._prod = np.empty_like(self._spec)
        self._tmp = np.empty_like(self._spec[0])

    @functools.cached_property
    def _hat32(self) -> np.ndarray:
        """The kernel spectra in float32, for complex64 calls of apply_vector."""
        return self.hat.astype(np.float32)

    def _forward(self, x: np.ndarray) -> None:
        """DFT of x[:, :n, :n, :n], zero-padded to pad^3, in place over all of x."""
        n = self.grid.n
        x[:, n:, :n, :n] = 0.0
        sfft.fft(x[:, :, :n, :n], axis=1, overwrite_x=True)
        x[:, :, n:, :n] = 0.0
        sfft.fft(x[:, :, :, :n], axis=2, overwrite_x=True)
        x[:, :, :, n:] = 0.0
        sfft.fft(x, axis=3, overwrite_x=True)

    def _inverse(self, y: np.ndarray, out: np.ndarray) -> None:
        """Inverse DFT of y (destroyed), cropped to the first n^3 entries, into out."""
        n = self.grid.n
        sfft.ifft(y, axis=1, norm="forward", overwrite_x=True)
        top = y[:, :n]
        # ifftn's 1/pad^3, where ifftn applies it, on real and imaginary parts apart
        flat = top.view(top.real.dtype)
        np.multiply(flat, 1.0 / self.pad ** 3, out=flat)
        sfft.ifft(top, axis=2, norm="forward", overwrite_x=True)
        sfft.ifft(top[:, :, :n], axis=3, norm="forward", overwrite_x=True)
        out[...] = top[:, :, :n, :n]

    def apply_vector(self, v3, dtype=np.complex128) -> np.ndarray:
        """Convolve a 3-component field -> (3, n, n, n) in ``dtype``: complex128, or
        complex64 (see the class notes).  Each component of v3 holds n^3 values and is
        written, cast to ``dtype``, straight into the zero-padded transform buffer."""
        n = self.grid.n
        a, prod, tmp, H = self._spec, self._prod, self._tmp, self.hat
        if np.dtype(dtype) == np.complex64:
            a, prod, tmp, H = _single_view(a), _single_view(prod), _single_view(tmp), self._hat32
        for aj, vj in zip(a, v3, strict=True):
            aj[:n, :n, :n] = vj.reshape(n, n, n)
        self._forward(a)
        for i, row in enumerate(_PACK):
            np.multiply(H[row[0]], a[0], out=prod[i])
            for j in (1, 2):
                np.multiply(H[row[j]], a[j], out=tmp)
                prod[i] += tmp
        out = np.empty((3, n, n, n), dtype=a.dtype)
        self._inverse(prod, out)
        return out

    def apply_all_components(self, u: np.ndarray) -> np.ndarray:
        """All six convolutions phi^ij * u of one scalar field, packed (6, n, n, n)."""
        n = self.grid.n
        a, prod = self._spec[:1], self._prod
        a[0, :n, :n, :n] = u
        self._forward(a)
        out = np.empty((6, n, n, n), dtype=complex)
        for lo in (0, 3):
            for m in range(3):
                np.multiply(self.hat[lo + m], a[0], out=prod[m])
            self._inverse(prod, out[lo:lo + 3])
        return out
