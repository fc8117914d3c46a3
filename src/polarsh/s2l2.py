"""Frame-free S2L2 representation of single spin-2 Stokes vectors.

A spin-2 Stokes vector at direction w is encoded as the ten order-2 PSH
projections of its Dirac-delta field, scaled by sqrt(4 pi / 5) so that the
encoding is norm preserving.  The representation is continuous in the vector
and independent of frame and global-axis choices, which yields a rotation
invariant distance and direction-crossing interpolation, used here for
polarized image resampling.  Encoding and decoding need only some tangent
frame at w (see _forms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import (normalize, sph_to_dir, dir_to_sph, fibonacci_directions,
                   frame_for_dir, frame_theta_phi, frame_perspective,
                   rotation_about_axis)
from .polar import GeometricStokes, frame_twist, stokes_reframe
from .shscalar import FOUR_PI

SCALE = math.sqrt(FOUR_PI / 5.0)

# SCALE 2Y_2m(w) = m^T Q_m m for m = x + iy of any tangent frame (x, y, w),
# where Q_m = SCALE E_m / sqrt(6) and E_m is the symmetric trace-free tensor
# with Y_2m(n) = n^T E_m n (Thorne 1980, Rev. Mod. Phys. 52, 299); with
# u = e_x + i e_y and z = e_z, column m + 2 holds Q_m, row 3i + j entry ij.
_U, _Z = np.array([1.0, 1j, 0.0]), np.array([0.0, 0.0, 1.0])
_FORMS = np.stack([
    np.outer(_U.conj(), _U.conj()) / 4,
    (np.outer(_Z, _U.conj()) + np.outer(_U.conj(), _Z)) / 4,
    (3.0 * np.outer(_Z, _Z) - np.eye(3)) / math.sqrt(24.0),
    -(np.outer(_Z, _U) + np.outer(_U, _Z)) / 4,
    np.outer(_U, _U) / 4,
]).reshape(5, 9).T


def _forms(frames):
    """SCALE 2Y_2m(w), m = -2..2, measured in tangent frames (x, y, w) (..., 3, 3).

    Turning a frame by t turns x + iy by e^{-it} and the forms by e^{-2it},
    as it turns s1 + i s2: encode is conj(forms) (s1 + i s2) and decode
    sum(r forms) in any frame.  Returns complex (..., 5).
    """
    m = frames[..., :, 0] + 1j * frames[..., :, 1]
    return (m[..., :, None] * m[..., None, :]).reshape(m.shape[:-1] + (9,)) @ _FORMS


def s2l2(s: GeometricStokes) -> np.ndarray:
    """Encode a spin-2 Stokes vector into its 10-vector representation.

    Ordering: r[2*(m+2) + (p-1)] for m = -2..2, p = 1, 2.  The s0 and s3
    slots of the input are ignored (full pipelines concatenate them).
    """
    rt = np.conj(_forms(s.frame)) * (s.components[1] + 1j * s.components[2])
    out = np.empty(10)
    out[0::2] = rt.real
    out[1::2] = rt.imag
    return out


def s2l2_inv(r: np.ndarray, omega) -> GeometricStokes:
    """Decode a 10-vector at a direction (projecting out-of-range inputs).

    For r outside the image of s2l2 this acts as the orthogonal projection in
    r-space onto the Stokes vectors at omega.  The result is measured in
    frame_for_dir(omega).
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (10,):
        raise ValueError("S2L2 vectors have 10 entries")
    omega = np.asarray(omega, dtype=float)
    length = np.linalg.norm(omega) if omega.shape == (3,) else math.nan
    if not 0.0 < length < math.inf:     # also false for a NaN length
        raise ValueError(f"the direction must be a finite, nonzero 3-vector, got {omega.tolist()}")
    F = frame_for_dir(omega / length)
    stilde = np.sum((r[0::2] + 1j * r[1::2]) * _forms(F))
    return GeometricStokes(np.array([0.0, stilde.real, stilde.imag, 0.0]), F)


def s2l2_distance(s: GeometricStokes, t: GeometricStokes) -> float:
    """Frame-free distance, defined for vectors at different directions."""
    return float(np.linalg.norm(s2l2(s) - s2l2(t)))


def s2l2_interpolate(s: GeometricStokes, t: GeometricStokes, alpha: float) -> GeometricStokes:
    """Interpolate Stokes vectors across directions via the encoding.

    The carrier direction is the normalized linear blend of the endpoint
    directions; antipodal endpoints are rejected.
    """
    d1 = s.direction
    d2 = t.direction
    if float(np.dot(d1, d2)) <= -1.0 + 1e-9:
        raise ValueError("antipodal directions cannot be interpolated")
    if alpha == 0.0:
        return GeometricStokes(s.components.copy(), s.frame.copy())
    if alpha == 1.0:
        return GeometricStokes(t.components.copy(), t.frame.copy())
    w = normalize((1.0 - alpha) * d1 + alpha * d2)
    r = (1.0 - alpha) * s2l2(s) + alpha * s2l2(t)
    return s2l2_inv(r, w)


# ---------------------------------------------------------------------------
# validation protocol (Fibonacci perturbation / rotation-invariance harness)
# ---------------------------------------------------------------------------

_UNIT_COMPONENTS = np.array([1.0, 1.0j, -1.0, -1.0j])

# (direction, rotation) pairs per blocked pass: bounds the working set at
# any n.  The (block, rotations, 4, 5) S2L2 vectors take about 1.3 MB, 3
# directions a pass at n = 1000; with 50 000 pairs (16 MB) the protocol ran
# about 9 % slower, one thread.
_PAIRS = 4_000


def _encode_rotated(dirs, pairs, rots):
    """S2L2 vectors of R_S s over a rotation stack, and the rotated frames.

    dirs (b, 3) carry complex spin-2 pairs s1 + i s2, (b, c) or (c,) shared
    by all directions, under frame_for_dir(dirs); rots is (k, 3, 3).  A
    rotated vector keeps its pair in the rotated frame G = R F, so
    r = conj(_forms(G)) (s1 + i s2).  Returns r (b, k, c, 5) complex and
    G (b, k, 3, 3); the forms depend only on the (direction, rotation) pair,
    so all c pairs share them.
    """
    # R F for every (direction, rotation), as one (3k, 3) @ (b, 3, 3) product
    G = (rots.reshape(-1, 3) @ frame_for_dir(dirs)).reshape(len(dirs), -1, 3, 3)
    return np.conj(_forms(G))[..., None, :] * pairs[..., None, :, None], G


def perturbation_protocol(n: int = 1000, eps: float = 0.1):
    """The Fibonacci perturbation experiment.

    For each of n Fibonacci directions and four unit spin-2 Stokes vectors,
    perturb by rotating eps radians about every Fibonacci axis and record the
    S2L2 distance and the theta-phi-component distance.  Returns a dict with
    per-vector maxima ('s2l2_max', 'frame_max', arrays of length 4n,
    direction-major and component-minor) and the means over all 4*n*n
    samples ('s2l2_all_mean', 'frame_all_mean').

    The directions are processed in blocks of about _PAIRS / n against the
    identity and all n rotations at once: the rotated frames, their
    quadratic forms and their twist to the theta-phi frame (the baseline's
    components are theta-phi ones by definition) are computed once per
    (direction, rotation) pair and shared by the four components.
    """
    if n < 1:
        raise ValueError(f"the perturbation protocol needs n >= 1 directions, got {n}")
    dirs = fibonacci_directions(n)
    rots = np.concatenate([np.eye(3)[None], rotation_about_axis(dirs, eps)])
    max_s = np.empty((n, 4))
    max_f = np.empty((n, 4))
    sum_s = sum_f = 0.0
    block = max(1, _PAIRS // len(rots))
    for lo in range(0, n, block):
        blk = dirs[lo:lo + block]
        r, G = _encode_rotated(blk, _UNIT_COMPONENTS, rots)
        c2, s2 = frame_twist(G, frame_for_dir(G[..., 2]))
        c = (c2 - 1j * s2)[..., None] * _UNIT_COMPONENTS                  # (b, n + 1, 4)
        ds = np.linalg.norm((r[:, 1:] - r[:, :1]).view(float), axis=-1)   # (b, n, 4)
        df = np.abs(c[:, 1:] - c[:, :1])
        max_s[lo:lo + len(blk)] = ds.max(axis=1)
        max_f[lo:lo + len(blk)] = df.max(axis=1)
        sum_s += ds.sum()
        sum_f += df.sum()
    count = 4 * n * n
    return {
        "s2l2_max": max_s.ravel(),
        "frame_max": max_f.ravel(),
        "s2l2_all_mean": sum_s / count,
        "frame_all_mean": sum_f / count,
    }


def rotation_invariance_sweep(n: int = 1000, n_pairs: int = 20,
                              n_angles: int = 10, seed: int = 0):
    """Max |d(Rs, Rt) - d(s, t)| over Fibonacci axes x uniform angles.

    Each of n_pairs seeded pairs of random spin-2 vectors at two of the n
    Fibonacci directions is rotated about every max(1, n // 100)-th of those
    directions by each nonzero angle 2 pi k / n_angles.
    """
    rng = np.random.default_rng(seed)
    dirs = fibonacci_directions(n)
    idx, pairs = [], []
    for _ in range(n_pairs):
        idx.extend(rng.integers(0, n, 2))
        pairs.extend(complex(rng.normal(), rng.normal()) for _ in range(2))
    pairs = np.reshape(pairs, (2 * n_pairs, 1))
    axes = dirs[:: max(1, n // 100)]
    angles = 2.0 * np.pi * np.arange(1, n_angles) / n_angles
    rots = np.concatenate([np.eye(3)[None]] + [rotation_about_axis(axes, a) for a in angles])
    worst = 0.0
    block = 2 * max(1, _PAIRS // (2 * len(rots)))     # even: pairs stay whole
    for lo in range(0, 2 * n_pairs, block):
        r, _ = _encode_rotated(dirs[idx[lo:lo + block]], pairs[lo:lo + block], rots)
        d = np.linalg.norm((r[0::2] - r[1::2]).view(float), axis=-1)      # (p, k, 1)
        worst = max(worst, float(np.abs(d[:, 1:] - d[:, :1]).max(initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# views and polarized images
# ---------------------------------------------------------------------------

@dataclass
class ViewSpec:
    """Pixel-to-direction mapping plus the view's native frame field.

    kind 'equirect' uses uniform pixel centers in (theta, phi) and the
    theta-phi frame field; 'perspective' uses a pinhole camera whose frame
    field is anchored to the camera up axis; 'cubeface' is a 90-degree
    perspective view.  pose maps camera coordinates (x right, y up,
    z forward) to world.
    """
    kind: str
    height: int
    width: int
    pose: np.ndarray = field(default_factory=lambda: np.eye(3))
    fov_deg: float = 90.0

    def __post_init__(self):
        self.pose = np.asarray(self.pose, dtype=float)
        if self.kind == "cubeface":
            self.kind = "perspective"
            self.fov_deg = 90.0
        if self.kind not in ("equirect", "perspective"):
            raise ValueError(f"unknown view kind {self.kind!r}")

    # --- directions -------------------------------------------------------
    def pixel_dirs(self):
        """(H, W, 3) world directions at pixel centers."""
        if self.kind == "equirect":
            th = (np.arange(self.height) + 0.5) * np.pi / self.height
            ph = (np.arange(self.width) + 0.5) * 2.0 * np.pi / self.width
            tg, pg = np.meshgrid(th, ph, indexing="ij")
            return sph_to_dir(tg, pg)
        t = math.tan(math.radians(self.fov_deg) / 2.0)
        xs = (2.0 * (np.arange(self.width) + 0.5) / self.width - 1.0) * t
        ys = (1.0 - 2.0 * (np.arange(self.height) + 0.5) / self.height) * t * self.height / self.width
        xg, yg = np.meshgrid(xs, ys, indexing="xy")
        cam = np.stack([xg, yg, np.ones_like(xg)], axis=-1)
        return normalize(cam) @ self.pose.T

    @property
    def up_axis(self):
        return self.pose @ np.array([0.0, 1.0, 0.0])

    def frames(self, dirs):
        """Native frame field at the given world directions."""
        if self.kind == "equirect":
            return frame_for_dir(dirs)
        return frame_perspective(dirs, self.up_axis)

    # --- lookups ----------------------------------------------------------
    def contains(self, dirs):
        """Mask of directions inside the view's footprint."""
        dirs = np.asarray(dirs, dtype=float)
        if self.kind == "equirect":
            return np.ones(dirs.shape[:-1], dtype=bool)
        cam = dirs @ self.pose
        t = math.tan(math.radians(self.fov_deg) / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = cam[..., 0] / cam[..., 2]
            y = cam[..., 1] / cam[..., 2]
        return (cam[..., 2] > 0) & (np.abs(x) <= t) & (np.abs(y) <= t * self.height / self.width)

    def pixel_coords(self, dirs):
        """Continuous (row, col) coordinates of directions (pixel centers at integers)."""
        dirs = np.asarray(dirs, dtype=float)
        if self.kind == "equirect":
            th, ph = dir_to_sph(dirs)
            row = th * self.height / np.pi - 0.5
            col = np.mod(ph, 2.0 * np.pi) * self.width / (2.0 * np.pi) - 0.5
            return row, col
        cam = dirs @ self.pose
        t = math.tan(math.radians(self.fov_deg) / 2.0)
        x = cam[..., 0] / cam[..., 2]
        y = cam[..., 1] / cam[..., 2]
        col = (x / t + 1.0) * self.width / 2.0 - 0.5
        row = (1.0 - y / (t * self.height / self.width)) * self.height / 2.0 - 0.5
        return row, col


@dataclass
class StokesImage:
    """Pixel array of Stokes components under the view's native frame field."""
    view: ViewSpec
    data: np.ndarray          # (H, W, 4)
    valid: np.ndarray = None  # (H, W) bool

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        hw = (self.view.height, self.view.width)
        if self.data.shape != hw + (4,):
            raise ValueError(f"image data has shape {self.data.shape}; the view needs {hw + (4,)}")
        self.valid = np.ones(hw, bool) if self.valid is None else np.asarray(self.valid, bool)
        if self.valid.shape != hw:
            raise ValueError(f"valid mask has shape {self.valid.shape}; the view needs {hw}")

    def stokes_at(self, row: int, col: int) -> GeometricStokes:
        d = self.view.pixel_dirs()[row, col]
        return GeometricStokes(self.data[row, col], self.view.frames(d))


def render_image(field_fn, view: ViewSpec) -> StokesImage:
    """Sample an analytic Stokes field into a view.

    field_fn(theta, phi) -> (..., 4) gives components under theta-phi frames;
    they are converted to the view's native frame field per pixel.
    """
    dirs = view.pixel_dirs()
    th, ph = dir_to_sph(dirs)
    comps = np.asarray(field_fn(th, ph), dtype=float)
    return StokesImage(view, stokes_reframe(comps, frame_theta_phi(th, ph), view.frames(dirs)))


def cubemap_views(size: int):
    """Six 90-degree perspective views covering the sphere."""
    axes = [
        (np.array([1.0, 0, 0]), np.array([0.0, 0, 1])),
        (np.array([-1.0, 0, 0]), np.array([0.0, 0, 1])),
        (np.array([0.0, 1, 0]), np.array([0.0, 0, 1])),
        (np.array([0.0, -1, 0]), np.array([0.0, 0, 1])),
        (np.array([0.0, 0, 1]), np.array([0.0, 1, 0])),
        (np.array([0.0, 0, -1]), np.array([0.0, 1, 0])),
    ]
    views = []
    for forward, up in axes:
        x = np.cross(up, forward)
        pose = np.stack([x, up, forward], axis=-1)
        views.append(ViewSpec("perspective", size, size, pose, 90.0))
    return views


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

_SNAP = 1e-9


def _footprints(view: ViewSpec, dirs):
    """Bilinear neighbor indices and weights, snapped at grid lines."""
    row, col = view.pixel_coords(dirs)
    r0 = np.floor(row).astype(int)
    c0 = np.floor(col).astype(int)
    fr = row - r0
    fc = col - c0
    snap_lo = fr < _SNAP
    fr = np.where(snap_lo, 0.0, fr)
    snap_hi = fr > 1.0 - _SNAP
    fr = np.where(snap_hi, 0.0, fr)
    r0 = r0 + snap_hi.astype(int)
    snap_lo = fc < _SNAP
    fc = np.where(snap_lo, 0.0, fc)
    snap_hi = fc > 1.0 - _SNAP
    fc = np.where(snap_hi, 0.0, fc)
    c0 = c0 + snap_hi.astype(int)
    rows = np.stack([r0, r0, r0 + 1, r0 + 1], axis=-1)
    cols = np.stack([c0, c0 + 1, c0, c0 + 1], axis=-1)
    rows = np.clip(rows, 0, view.height - 1)
    if view.kind == "equirect":
        cols = np.mod(cols, view.width)
    else:
        cols = np.clip(cols, 0, view.width - 1)
    w = np.stack([(1 - fr) * (1 - fc), (1 - fr) * fc, fr * (1 - fc), fr * fc], axis=-1)
    return rows, cols, w, fr, fc


def resample(sources, dst: ViewSpec, method: str = "s2l2") -> StokesImage:
    """Resample polarized images into a new view.

    For each destination pixel the first covering source view supplies a
    4-neighbor bilinear footprint.  method 's2l2' interpolates the
    linear-polarization pair through iterated s2l2 interpolation
    (horizontal pairs, then vertical); 'component-bilinear' lerps raw
    components and reinterprets them under the destination frame field (the
    artifact-exhibiting baseline).  s0 and s3 are scalar-bilinear in both
    methods.  Pixels no source covers are flagged invalid.  Footprints that
    snap onto a single source pixel with an identical frame are copied
    bit-exactly.
    """
    if method not in ("s2l2", "component-bilinear"):
        raise ValueError(f"unknown method {method!r}")
    dirs = dst.pixel_dirs()
    flat_dirs = dirs.reshape(-1, 3)
    n_pix = flat_dirs.shape[0]
    out = np.zeros((n_pix, 4))
    valid = np.zeros(n_pix, dtype=bool)
    dst_frames = dst.frames(flat_dirs)
    chosen = np.full(n_pix, -1, dtype=int)
    for k, src in enumerate(sources):
        mask = src.view.contains(flat_dirs) & (chosen < 0)
        chosen[mask.reshape(-1)] = k

    for k, src in enumerate(sources):
        sel = np.nonzero(chosen == k)[0]
        if sel.size == 0:
            continue
        rows, cols, w, fr, fc = _footprints(src.view, flat_dirs[sel])
        pix = src.data[rows, cols]                      # (n, 4, 4comp)
        nb_dirs = src.view.pixel_dirs()[rows, cols]     # (n, 4, 3)
        nb_frames = src.view.frames(nb_dirs)
        if method == "component-bilinear":
            # express each neighbor in the destination frame field at its own
            # direction, then lerp the raw components (the conventional
            # approach, which collapses near dst frame-field singularities)
            nb = stokes_reframe(pix, nb_frames, dst.frames(nb_dirs))
            out[sel] = np.sum(w[..., None] * nb, axis=1)
        else:
            s0 = np.sum(w * pix[..., 0], axis=-1)
            s3 = np.sum(w * pix[..., 3], axis=-1)
            r_nb = np.conj(_forms(nb_frames)) * (pix[..., 1] + 1j * pix[..., 2])[..., None]
            # horizontal pairs (top row, bottom row), then vertical; each lerp is
            # projected onto the Stokes vectors at its blended direction
            fcn = fc[:, None, None]
            r_nb = r_nb.reshape(-1, 2, 2, 5)
            nb_rc = nb_dirs.reshape(-1, 2, 2, 3)
            f = _forms(frame_for_dir(normalize((1 - fcn) * nb_rc[:, :, 0] + fcn * nb_rc[:, :, 1])))
            r_row = (1 - fcn) * r_nb[:, :, 0] + fcn * r_nb[:, :, 1]
            r_row = np.conj(f) * np.sum(r_row * f, axis=-1, keepdims=True)
            frn = fr[:, None]
            r_fin = (1 - frn) * r_row[:, 0] + frn * r_row[:, 1]
            stilde = np.sum(r_fin * _forms(dst_frames[sel]), axis=-1)
            out[sel] = np.stack([s0, stilde.real, stilde.imag, s3], axis=-1)
            # bit-exact copy where the footprint collapses to one pixel whose
            # frame coincides with the destination frame
            one = (fr == 0.0) & (fc == 0.0)
            if np.any(one):
                same = np.all(nb_frames[:, 0] == dst_frames[sel], axis=(-2, -1))
                hit = one & same
                out[sel[hit]] = pix[hit, 0]
        valid[sel] = True
    return StokesImage(dst, out.reshape(dirs.shape[:-1] + (4,)),
                       valid.reshape(dirs.shape[:-1]))
