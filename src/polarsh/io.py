"""File formats.

Binary coefficient containers (PSHC / PSH4 / PSHM / PSHK, all little-endian)
and the S4EM Stokes-map format with an ASCII header.  See docs/formats.md.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import psh as P
from .geom import gauss_legendre_grid, is_rotation
from .operators import PshCoeffMatrix
from .pconv import KC_FAMILIES, PolarConvKernelCoeffs
from .polar import SAMPLING_PIXEL, SAMPLING_QUAD, StokesField
from .s2l2 import StokesImage, ViewSpec
from .shscalar import ShCoeffs, sh_size


class FormatError(ValueError):
    pass


def _read_exact(f, n, what="header"):
    """Read n bytes, checking first that the file still holds them."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FormatError(f"unexpected end of file: {what} needs {n} bytes, {left} left")
    return f.read(n)


def _read_payload(f, what, count, dtype="<f8", after=0):
    """Read count values as float64: the rest of the file must hold exactly
    them and `after` more bytes, and every value must be finite."""
    size = count * np.dtype(dtype).itemsize
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size + after != left:
        raise FormatError(f"{what} payload size mismatch: the header implies {size + after} bytes, "
                          f"the file holds {left}")
    raw = np.frombuffer(f.read(size), dtype=dtype).astype(float)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise FormatError(f"{what}: non-finite value at payload index {bad[0]}")
    return raw


# ---------------------------------------------------------------------------
# PSHC: scalar SH coefficient vectors
# ---------------------------------------------------------------------------

def save_sh_coeffs(path, coeffs: ShCoeffs):
    kind = 0 if coeffs.kind == "complex" else 1
    with open(path, "wb") as f:
        f.write(b"PSHC")
        f.write(struct.pack("<IBI", 1, kind, coeffs.l_max))
        if kind == 0:
            inter = np.empty(2 * coeffs.values.size)
            inter[0::2] = np.real(coeffs.values)
            inter[1::2] = np.imag(coeffs.values)
            f.write(inter.astype("<f8").tobytes())
        else:
            f.write(np.asarray(coeffs.values, dtype="<f8").tobytes())


def load_sh_coeffs(path) -> ShCoeffs:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != b"PSHC":
            raise FormatError("not a PSHC file")
        version, kind, l_max = struct.unpack("<IBI", _read_exact(f, 9))
        if version != 1 or kind not in (0, 1):
            raise FormatError("unsupported PSHC header")
        raw = _read_payload(f, f"PSHC l_max={l_max}", (2 - kind) * sh_size(l_max))
    if kind == 0:
        return ShCoeffs(l_max, "complex", raw[0::2] + 1j * raw[1::2])
    return ShCoeffs(l_max, "real", raw)


# ---------------------------------------------------------------------------
# PSH4: PSH coefficient vectors
# ---------------------------------------------------------------------------

def save_psh_coeffs(path, coeffs: P.PshCoeffs):
    with open(path, "wb") as f:
        f.write(b"PSH4")
        f.write(struct.pack("<I", coeffs.l_max))
        f.write(coeffs.flat().astype("<f8").tobytes())


def load_psh_coeffs(path) -> P.PshCoeffs:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != b"PSH4":
            raise FormatError("not a PSH4 file")
        (l_max,) = struct.unpack("<I", _read_exact(f, 4))
        raw = _read_payload(f, f"PSH4 l_max={l_max}", P.psh_size(l_max))
    return P.PshCoeffs.from_flat(l_max, raw)


# ---------------------------------------------------------------------------
# PSHM: operator matrices
# ---------------------------------------------------------------------------

_SPARSITY_TAGS = {"general": 0, "isotropic": 1}


def save_psh_matrix(path, M: PshCoeffMatrix):
    with open(path, "wb") as f:
        f.write(b"PSHM")
        f.write(struct.pack("<IB", M.l_max, _SPARSITY_TAGS[M.sparsity]))
        f.write(M.matrix.astype("<f8").tobytes())


def load_psh_matrix(path) -> PshCoeffMatrix:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != b"PSHM":
            raise FormatError("not a PSHM file")
        l_max, tag = struct.unpack("<IB", _read_exact(f, 5))
        n = P.psh_size(l_max)
        raw = _read_payload(f, f"PSHM l_max={l_max}", n * n)
    name = {v: k for k, v in _SPARSITY_TAGS.items()}.get(tag)
    if name is None:
        raise FormatError("unknown sparsity tag")
    return PshCoeffMatrix(l_max, raw.reshape(n, n), name)


# ---------------------------------------------------------------------------
# PSHK: convolution kernel coefficients
# ---------------------------------------------------------------------------

def save_kernel_coeffs(path, kc: PolarConvKernelCoeffs):
    with open(path, "wb") as f:
        f.write(b"PSHK")
        f.write(struct.pack("<I", kc.l_max))
        parts = [getattr(kc, name) for name in KC_FAMILIES]
        cols = parts[:4] + [x for z in parts[4:] for x in (z.real, z.imag)]
        f.write(np.column_stack(cols).astype("<f8").tobytes())


def load_kernel_coeffs(path) -> PolarConvKernelCoeffs:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != b"PSHK":
            raise FormatError("not a PSHK file")
        (l_max,) = struct.unpack("<I", _read_exact(f, 4))
        rec = _read_payload(f, f"PSHK l_max={l_max}", 16 * (l_max + 1)).reshape(l_max + 1, 16)
    kc = PolarConvKernelCoeffs.zeros(l_max)
    kc.k00[:], kc.k03[:], kc.k30[:], kc.k33[:] = rec[:, :4].T
    for i, name in enumerate(KC_FAMILIES[4:]):
        getattr(kc, name)[:] = rec[:, 4 + 2 * i] + 1j * rec[:, 5 + 2 * i]
    return kc


# ---------------------------------------------------------------------------
# S4EM: Stokes maps and images
# ---------------------------------------------------------------------------

def save_stokes_field(path, field: StokesField):
    with open(path, "wb") as f:
        f.write(f"S4EM {field.n_theta} {field.n_phi} {field.sampling}\n".encode())
        f.write(field.data.astype("<f4").tobytes())


def save_stokes_image(path, img: StokesImage):
    """An image with an invalid pixel gets the header token `masked` and its
    validity bits (np.packbits, row-major) after the payload; an all-valid
    image is written without them."""
    v = img.view
    sampling = SAMPLING_PIXEL if v.kind == "equirect" else "perspective"
    masked = " masked" if not img.valid.all() else ""
    with open(path, "wb") as f:
        f.write(f"S4EM {v.height} {v.width} {sampling}{masked}\n".encode())
        if v.kind == "perspective":
            f.write(f"FOV {float(v.fov_deg)!r}\n".encode())
            f.write(("POSE " + " ".join(repr(float(x)) for x in v.pose.ravel()) + "\n").encode())
        f.write(img.data.astype("<f4").tobytes())
        if masked:
            f.write(np.packbits(img.valid).tobytes())


def _load_s4em_raw(path):
    with open(path, "rb") as f:
        line = f.readline().decode("ascii", errors="replace").strip()
        header = line.split()
        if len(header) not in (4, 5) or header[0] != "S4EM":
            raise FormatError("not an S4EM file")
        if header[4:] not in ([], ["masked"]):
            raise FormatError(f"bad S4EM header line {line!r}: unknown token {header[4]!r}")
        masked = len(header) == 5
        bad_dims = FormatError(f"bad S4EM header line {line!r}: dimensions must be integers >= 1")
        try:
            n_theta, n_phi = int(header[1]), int(header[2])
        except ValueError as e:
            raise bad_dims from e
        if n_theta < 1 or n_phi < 1:
            raise bad_dims
        sampling = header[3]
        fov = None
        pose = None
        if sampling == "perspective":
            fov_line = f.readline().decode("ascii", errors="replace").split()
            pose_line = f.readline().decode("ascii", errors="replace").split()
            if fov_line[:1] != ["FOV"] or pose_line[:1] != ["POSE"] or len(pose_line) != 10:
                raise FormatError("bad perspective header")
            try:
                fov = float(fov_line[1])
            except (IndexError, ValueError) as e:
                raise FormatError(f"bad perspective header: FOV line {' '.join(fov_line)!r} "
                                  "needs one number") from e
            if not 0.0 < fov < 180.0:     # also rejects nan
                raise FormatError(f"bad perspective header: FOV line {' '.join(fov_line)!r} "
                                  "needs an angle in (0, 180) degrees")
            try:
                pose = np.array([float(x) for x in pose_line[1:]]).reshape(3, 3)
            except ValueError as e:
                raise FormatError("bad perspective header: POSE line needs 9 numbers") from e
            if not is_rotation(pose, 1e-6):
                raise FormatError(f"bad perspective header: POSE line {' '.join(pose_line)!r} "
                                  "is not a rotation")
        n_pix = n_theta * n_phi
        n_mask = -(-n_pix // 8) if masked else 0
        data = _read_payload(f, f"S4EM {n_theta}x{n_phi}", n_pix * 4, "<f4",
                             n_mask).reshape(n_theta, n_phi, 4)
        valid = None
        if masked:
            bits = np.unpackbits(np.frombuffer(f.read(n_mask), dtype=np.uint8))
            if bits[n_pix:].any():
                raise FormatError(f"S4EM {n_theta}x{n_phi}: nonzero padding bits after the validity mask")
            valid = bits[:n_pix].astype(bool).reshape(n_theta, n_phi)
    return data, sampling, fov, pose, valid


def load_stokes_field(path) -> StokesField:
    data, sampling, fov, _, valid = _load_s4em_raw(path)
    if fov is not None:
        raise FormatError("file holds a perspective image, not a sphere map")
    if valid is not None:
        raise FormatError("file holds a masked image, not a sphere map")
    if sampling == SAMPLING_QUAD:
        band = data.shape[0] - 1
        grid = gauss_legendre_grid(band)
        if grid.n_phi != data.shape[1]:
            raise FormatError("quadrature grid shape mismatch")
        return StokesField(data, SAMPLING_QUAD, grid)
    if sampling == SAMPLING_PIXEL:
        return StokesField(data, SAMPLING_PIXEL)
    raise FormatError(f"unknown sampling {sampling!r}")


def load_stokes_image(path) -> StokesImage:
    data, sampling, fov, pose, valid = _load_s4em_raw(path)
    if sampling == "perspective":
        view = ViewSpec("perspective", data.shape[0], data.shape[1], pose, fov)
    elif sampling == SAMPLING_PIXEL:
        view = ViewSpec("equirect", data.shape[0], data.shape[1])
    else:
        raise FormatError("sphere maps with quadrature sampling are not images")
    return StokesImage(view, data, valid)
