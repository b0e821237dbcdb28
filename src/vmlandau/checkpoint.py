"""Fixed-layout binary checkpoints for mode states; bit-exact round trips.

File layout (little-endian):
    magic     8 bytes   b"VMLCK001"
    header    R float64, n int32, gamma float64, c_phi float64
    records   repeated: k (3 float64), t (float64), the state's flat() vector
              (f_+, f_-, E, B: 2*n^3 + 6 complex128)

Raw array bytes are written verbatim, so a write/read cycle reproduces every
float bit-for-bit and a restart from any record continues the run exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .collision import ResourceBudgetError, _check_budget
from .grid import VelocityGrid, build_grid, check_grid_parameters
from .mode import ModeState

__all__ = ["CheckpointWriter", "read_checkpoint", "CheckpointFile"]

MAGIC = b"VMLCK001"
_HEADER = struct.Struct("<dIdd")


def _record(n: int) -> np.dtype:
    """One record of a grid with n points per axis."""
    return np.dtype([("k", "<f8", 3), ("t", "<f8"), ("u", "<c16", 2 * n ** 3 + 6)])


class CheckpointWriter:
    """Appends mode-state records to one checkpoint file."""

    def __init__(self, path, grid: VelocityGrid, gamma: float, c_phi: float):
        self.path = path
        self._dtype = _record(grid.n)
        self._fh = open(path, "wb")
        self._fh.write(MAGIC)
        self._fh.write(_HEADER.pack(grid.R, grid.n, gamma, c_phi))

    def append(self, state: ModeState) -> None:
        rec = np.empty((), self._dtype)
        rec["k"], rec["t"], rec["u"] = state.k, state.t, state.flat()
        self._fh.write(rec)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


@dataclass
class CheckpointFile:
    """Parsed checkpoint: grid parameters and the list of stored states."""

    R: float
    n: int
    gamma: float
    c_phi: float
    states: list


def read_checkpoint(path, grid: VelocityGrid | None = None) -> CheckpointFile:
    """Read every record; builds (or validates) the grid from the header, whose (R, n) must
    be a grid the program can build."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        R, n, gamma, c_phi = _HEADER.unpack(header)
        try:
            check_grid_parameters(R, n)
            _check_budget(n)
        except (ValueError, ResourceBudgetError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if grid is None:
            grid = build_grid(R, n)
        elif grid.n != n or grid.R != R:
            raise ValueError(f"{path}: grid mismatch (file has R={R}, n={n})")
        rec = _record(n)
        states = []
        while blob := fh.read(rec.itemsize):
            if len(blob) != rec.itemsize:
                raise ValueError(f"{path}: truncated record")
            r = np.frombuffer(blob, dtype=rec)[0]
            states.append(ModeState.from_flat(r["k"], r["u"], grid, float(r["t"])))
    return CheckpointFile(R=R, n=n, gamma=gamma, c_phi=c_phi, states=states)
