"""Binary field snapshots.

Layout (all integers u32 little-endian, all floats f64 little-endian):

    magic    8 bytes  b"EKSNAP1\\0"
    version  u32
    d        u32
    N_1..N_d u32 each
    L_1..L_d f64 each
    time     f64
    nfields  u32
    per field:
        name_len u32, name UTF-8, ncomp u32, kind u32 (0 real, 1 complex)
    per field, in the same order:
        row-major f64 samples; complex values interleaved re, im

Writing then reading reproduces the arrays bit-exactly.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import SnapshotError
from .grid import Field, FourierGrid

MAGIC = b"EKSNAP1\x00"
VERSION = 1


def save_snapshot(path, fields: Dict[str, Field], time: float = 0.0) -> None:
    if not fields:
        raise SnapshotError("snapshot requires at least one field")
    grids = {f.grid for f in fields.values()}
    if len(grids) != 1:
        raise SnapshotError("all snapshot fields must share a grid")
    grid = next(iter(grids))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *grid.shape))
        fh.write(struct.pack(f"<{grid.dim}d", *grid.lengths))
        fh.write(struct.pack("<d", float(time)))
        fh.write(struct.pack("<I", len(fields)))
        for name, f in fields.items():
            enc = name.encode("utf-8")
            kind = 0 if f.is_real else 1
            fh.write(struct.pack("<I", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<II", f.ncomp, kind))
        for f in fields.values():
            data = np.ascontiguousarray(f.data)
            if f.is_real:
                fh.write(data.astype("<f8", copy=False).tobytes())
            else:
                inter = np.empty(data.shape + (2,), dtype="<f8")
                inter[..., 0] = data.real
                inter[..., 1] = data.imag
                fh.write(inter.tobytes())


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise SnapshotError(f"truncated snapshot while reading {what}")
    return buf


def load_snapshot(path, grid: Optional[FourierGrid] = None
                  ) -> Tuple[Dict[str, Field], float, FourierGrid]:
    """Read a snapshot; validates magic, version and (optionally) the grid."""
    with open(path, "rb") as fh:
        if _read_exact(fh, len(MAGIC), "magic") != MAGIC:
            raise SnapshotError("magic mismatch: not a snapshot file")
        version, dim = struct.unpack("<II", _read_exact(fh, 8, "version/dim"))
        if version != VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        if not 1 <= dim <= 3:
            raise SnapshotError(f"invalid dimension {dim}")
        shape = struct.unpack(f"<{dim}I", _read_exact(fh, 4 * dim, "shape"))
        lengths = struct.unpack(f"<{dim}d", _read_exact(fh, 8 * dim, "lengths"))
        (time,) = struct.unpack("<d", _read_exact(fh, 8, "time"))
        (nfields,) = struct.unpack("<I", _read_exact(fh, 4, "field count"))
        file_grid = FourierGrid(shape, lengths)
        if grid is not None and grid != file_grid:
            raise SnapshotError(
                f"snapshot grid {file_grid!r} does not match target {grid!r}"
            )
        meta = []
        for _ in range(nfields):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = _read_exact(fh, nlen, "name").decode("utf-8")
            ncomp, kind = struct.unpack("<II", _read_exact(fh, 8, "field meta"))
            if ncomp not in (1, dim) or kind not in (0, 1):
                raise SnapshotError(f"invalid metadata for field {name!r}")
            meta.append((name, ncomp, kind))
        fields = {}
        npts = int(np.prod(shape))
        for name, ncomp, kind in meta:
            count = ncomp * npts * (2 if kind else 1)
            raw = np.frombuffer(_read_exact(fh, 8 * count, f"samples of {name!r}"),
                                dtype="<f8")
            if kind:
                raw = raw.reshape((ncomp,) + shape + (2,))
                data = raw[..., 0] + 1j * raw[..., 1]
            else:
                data = raw.reshape((ncomp,) + shape).copy()
            fields[name] = Field(file_grid, data)
        if fh.read(1):
            raise SnapshotError("trailing bytes after the declared fields")
    return fields, float(time), file_grid
