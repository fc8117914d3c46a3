"""File formats.

Binary coefficient containers (PSHC / PSH4 / PSHM / PSHK, all little-endian)
and the S4EM Stokes-map format with an ASCII header.  See docs/formats.md.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import psh as P
from .geom import gauss_legendre_grid
from .operators import PshCoeffMatrix
from .pconv import KC_FAMILIES, PolarConvKernelCoeffs
from .polar import StokesField
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


def _payload(what, values, dtype="<f8"):
    """values as the payload bytes of `what`, cast to dtype.  A value that is
    not finite after the cast (a float64 above 3.4e38 becomes inf in float32)
    raises ValueError, as _read_payload would reject it; writers call this
    before they open the file, so that nothing is written."""
    with np.errstate(over="ignore"):
        raw = np.ravel(np.asarray(values).astype(dtype))
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise ValueError(f"{what}: cannot write the non-finite value {raw[bad[0]]} "
                         f"at payload index {bad[0]}")
    return raw.tobytes()


# ---------------------------------------------------------------------------
# PSHC: scalar SH coefficient vectors
# ---------------------------------------------------------------------------

def save_sh_coeffs(path, coeffs: ShCoeffs):
    kind = 0 if coeffs.kind == "complex" else 1
    values = coeffs.values if kind else np.ascontiguousarray(coeffs.values, dtype=complex).view(float)
    payload = _payload(f"PSHC l_max={coeffs.l_max}", values)     # complex: re, im interleaved
    with open(path, "wb") as f:
        f.write(b"PSHC")
        f.write(struct.pack("<IBI", 1, kind, coeffs.l_max))
        f.write(payload)


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
    payload = _payload(f"PSH4 l_max={coeffs.l_max}", coeffs.flat())
    with open(path, "wb") as f:
        f.write(b"PSH4")
        f.write(struct.pack("<I", coeffs.l_max))
        f.write(payload)


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
    payload = _payload(f"PSHM l_max={M.l_max}", M.matrix)
    with open(path, "wb") as f:
        f.write(b"PSHM")
        f.write(struct.pack("<IB", M.l_max, _SPARSITY_TAGS[M.sparsity]))
        f.write(payload)


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
    parts = [getattr(kc, name) for name in KC_FAMILIES]
    cols = parts[:4] + [x for z in parts[4:] for x in (z.real, z.imag)]
    payload = _payload(f"PSHK l_max={kc.l_max}", np.column_stack(cols))
    with open(path, "wb") as f:
        f.write(b"PSHK")
        f.write(struct.pack("<I", kc.l_max))
        f.write(payload)


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

_QUAD_NODES = "quadrature-nodes"            # a StokesField on its grid's nodes
_PIXEL_CENTERS = "uniform-pixel-centers"    # an equirectangular StokesImage


def save_stokes_field(path, field: StokesField):
    payload = _payload(f"S4EM {field.n_theta}x{field.n_phi}", field.data, "<f4")
    with open(path, "wb") as f:
        f.write(f"S4EM {field.n_theta} {field.n_phi} {_QUAD_NODES}\n".encode())
        f.write(payload)


def save_stokes_image(path, img: StokesImage):
    """An image with an invalid pixel gets the header token `masked` and its
    validity bits (np.packbits, row-major) after the payload; an all-valid
    image is written without them."""
    v = img.view
    sampling = _PIXEL_CENTERS if v.kind == "equirect" else "perspective"
    masked = " masked" if not img.valid.all() else ""
    payload = _payload(f"S4EM {v.height}x{v.width}", img.data, "<f4")
    with open(path, "wb") as f:
        f.write(f"S4EM {v.height} {v.width} {sampling}{masked}\n".encode())
        if v.kind == "perspective":
            f.write(f"FOV {float(v.fov_deg)!r}\n".encode())
            f.write(("POSE " + " ".join(repr(float(x)) for x in v.pose.ravel()) + "\n").encode())
        f.write(payload)
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
        if sampling not in (_QUAD_NODES, _PIXEL_CENTERS, "perspective"):
            raise FormatError(f"bad S4EM header line {line!r}: unknown sampling {sampling!r}")
        view = None
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
            try:
                pose = np.array([float(x) for x in pose_line[1:]]).reshape(3, 3)
            except ValueError as e:
                raise FormatError("bad perspective header: POSE line needs 9 numbers") from e
            try:
                view = ViewSpec("perspective", n_theta, n_phi, pose, fov)
            except ValueError as e:
                bad = fov_line if "fov_deg" in str(e) else pose_line
                what = "a valid angle" if bad is fov_line else "a rotation"
                raise FormatError(f"bad perspective header: {bad[0]} line {' '.join(bad)!r} "
                                  f"is not {what} ({e})") from e
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
    return data, sampling, view, valid


def load_stokes_field(path) -> StokesField:
    """A sphere map on quadrature nodes; pixel and perspective files are
    images (load_stokes_image)."""
    data, sampling, view, valid = _load_s4em_raw(path)
    if view is not None:
        raise FormatError("file holds a perspective image, not a sphere map")
    if valid is not None:
        raise FormatError("file holds a masked image, not a sphere map")
    if sampling == _PIXEL_CENTERS:
        raise FormatError("file holds an equirectangular image, not a sphere map "
                          "on quadrature nodes")
    grid = gauss_legendre_grid(data.shape[0] - 1)
    if grid.n_phi != data.shape[1]:
        raise FormatError(f"quadrature-nodes map of {data.shape[0]} rows needs "
                          f"{grid.n_phi} columns, the file has {data.shape[1]}")
    return StokesField(data, grid)


def load_stokes_image(path) -> StokesImage:
    data, sampling, view, valid = _load_s4em_raw(path)
    if view is None and sampling != _PIXEL_CENTERS:
        raise FormatError("sphere maps with quadrature sampling are not images")
    return StokesImage(view or ViewSpec("equirect", data.shape[0], data.shape[1]), data, valid)
