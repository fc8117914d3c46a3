"""Frame-free S2L2 representation of single spin-2 Stokes vectors.

A spin-2 Stokes vector at direction w is encoded as the ten order-2 PSH
projections of its Dirac-delta field, scaled by sqrt(4 pi / 5) so that the
encoding is norm preserving.  The representation is continuous in the vector
and independent of frame and global-axis choices, which yields a rotation
invariant distance and direction-crossing interpolation, used here for
polarized image resampling.  Encoding and decoding need only some tangent
frame at w (see _forms).

For tangent frames a and b with m = x + iy, the encodings' inner product is
one scalar (Thorne 1980, Rev. Mod. Phys. 52, 299):

    sum_m conj(F_m(a)) F_m(b) = (conj(m_a) . m_b)^2 / 4,

with a bilinear dot product (no conjugation on m_b); at a shared direction
it is the twist e^{-2it} from a to b.  For any right-handed tangent frame at
a unit u, m_u conj(m_u)^T = (I - u u^T) + i [u]x, so projecting onto the
Stokes vectors at u and decoding in a frame with vector m_d needs no frame
at u: it is conj(m) . v with v = m_d - (u . m_d) u + i u x m_d.  resample
interpolates through this scalar.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geom import (normalize, sph_to_dir, dir_to_sph, fibonacci_directions,
                   frame_for_dir, frame_theta_phi, frame_perspective,
                   is_rotation, rotation_about_axis)
from .polar import GeometricStokes, frame_twist, stokes_reframe, stokes_turn
from .shscalar import FOUR_PI

SCALE = math.sqrt(FOUR_PI / 5.0)

_SQRT_3_8 = math.sqrt(3.0 / 8.0)


def _forms(frames):
    """SCALE 2Y_2m(w), m = -2..2, measured in tangent frames (x, y, w) (..., 3, 3).

    SCALE 2Y_2m(w) = m^T Q_m m for m = x + iy, where Q_m = SCALE E_m / sqrt(6)
    and E_m is the symmetric trace-free tensor with Y_2m(n) = n^T E_m n
    (Thorne 1980, Rev. Mod. Phys. 52, 299).  In world components, with
    p = m_x - i m_y, q = m_x + i m_y and z = m_z, the forms are
    (p^2 / 4, p z / 2, sqrt(3/8) z^2, -q z / 2, q^2 / 4); the trace term of
    E_0 drops because m.m = 0.  Turning a frame by t turns m by e^{-it} and
    the forms by e^{-2it}, as it turns s1 + i s2: encode is
    conj(forms) (s1 + i s2) and decode sum(r forms) in any frame.  Returns
    complex (..., 5).
    """
    x, y = frames[..., :, 0], frames[..., :, 1]
    p = (x[..., 0] + y[..., 1]) + 1j * (y[..., 0] - x[..., 1])
    q = (x[..., 0] - y[..., 1]) + 1j * (y[..., 0] + x[..., 1])
    z = x[..., 2] + 1j * y[..., 2]
    out = np.empty(p.shape + (5,), dtype=complex)
    out[..., 0] = 0.25 * p * p
    out[..., 1] = 0.5 * p * z
    out[..., 2] = _SQRT_3_8 * z * z
    out[..., 3] = -0.5 * q * z
    out[..., 4] = 0.25 * q * q
    return out


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

# (direction, rotation) pairs per blocked pass: bounds the working set at
# any n.  At n = 1000 a pass takes 8 directions, and its Delta (3, n, 8)
# takes 0.38 MB.
_PAIRS = 8_000


def _rotated_frames(dirs, rots):
    """The frames G = R F of directions dirs (b, 3), under F = frame_for_dir(dirs),
    over a rotation stack rots (k, 3, 3).  A rotated spin-2 vector keeps its
    pair s1 + i s2 in G, so its S2L2 vector is conj(_forms(G)) (s1 + i s2).
    Returns G (b, k, 3, 3).
    """
    # R F for every (direction, rotation), as one (3k, 3) @ (b, 3, 3) product
    return (rots.reshape(-1, 3) @ frame_for_dir(dirs)).reshape(len(dirs), -1, 3, 3)


def _theta_phi_twist(v):
    """The twist c - i s from frames with m = x + iy = v (3, ...) to frame_for_dir's
    theta-phi frames: (conj(m_z) / |m_z|)^2, or where m_z = 0 (w = +-z) the
    transport scalar (conj(m) . (w_z, i, 0))^2 / 4 to its pole frame (phi = 0)."""
    size = np.abs(v[2])
    pole = size == 0.0
    twist = (np.conj(v[2]) / np.where(pole, 1.0, size)) ** 2
    x, y = np.conj(v[0][pole]), np.conj(v[1][pole])
    twist[pole] = (np.sign((x * np.conj(y)).imag) * x + 1j * y) ** 2 / 4
    return twist


def perturbation_protocol(n: int = 1000, eps: float = 0.1):
    """The Fibonacci perturbation experiment.

    For each of n Fibonacci directions and four unit spin-2 Stokes vectors
    (s1 + i s2 = 1, i, -1, -i), perturb by rotating eps radians about every
    Fibonacci axis and record the S2L2 distance and the theta-phi-component
    distance.  Returns a dict with per-vector maxima ('s2l2_max',
    'frame_max', arrays of length 4n, direction-major and component-minor)
    and the means over all 4*n*n samples ('s2l2_all_mean',
    'frame_all_mean').

    A rotated vector keeps its pair u in the rotated frame, and |u| = 1, so
    both distances are |u| times those of u = 1, shared by the four
    components.  With m = x + iy of frame_for_dir and Delta = (R - I) m, the
    S2L2 distance is sqrt(-2 Re(delta) - Re(delta^2) / 2), delta = conj(m) .
    Delta, and the baseline |_theta_phi_twist(R m) - 1| (README, Conventions).
    Per block of about _PAIRS / n directions, Delta against all n rotations
    is one real (3n, 3) @ (3, b) complex product.
    """
    if n < 1:
        raise ValueError(f"the perturbation protocol needs n >= 1 directions, got {n}")
    if not math.isfinite(eps):
        raise ValueError(f"the perturbation protocol needs a finite eps, got {eps}")
    dirs = fibonacci_directions(n)
    K = np.cross(np.eye(3), dirs[:, None])                            # [a]x, (n, 3, 3)
    D = math.sin(eps) * K + 2.0 * math.sin(0.5 * eps) ** 2 * (K @ K)  # R - I
    D = D.transpose(1, 0, 2).reshape(-1, 3)                           # row (i, k): (3n, 3)
    F = frame_for_dir(dirs)
    m = np.ascontiguousarray((F[..., 0] + 1j * F[..., 1]).T)          # (3, n)
    max_s = np.empty(n)
    max_f = np.empty(n)
    sum_s = sum_f = 0.0
    block = max(1, _PAIRS // n)
    for lo in range(0, n, block):
        mb = m[:, lo:lo + block]
        v = (D @ mb.view(float)).view(complex).reshape(3, n, -1)       # Delta (3, n, b)
        delta = np.einsum("ib,ikb->kb", np.conj(mb), v)
        ds = np.sqrt(-2.0 * delta.real - 0.5 * (delta * delta).real)  # (n, b)
        v += mb[:, None]                                               # R m
        df = np.abs(_theta_phi_twist(v) - 1.0)      # the twist of m itself is 1
        max_s[lo:lo + block] = ds.max(axis=0)
        max_f[lo:lo + block] = df.max(axis=0)
        sum_s += ds.sum()
        sum_f += df.sum()
    count = n * n
    return {
        "s2l2_max": np.repeat(max_s, 4),
        "frame_max": np.repeat(max_f, 4),
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
    for name, value, low in (("n", n, 1), ("n_pairs", n_pairs, 0), ("n_angles", n_angles, 1)):
        if value < low:
            raise ValueError(f"the rotation sweep needs {name} >= {low}, got {value}")
    rng = np.random.default_rng(seed)
    dirs = fibonacci_directions(n)
    idx, pairs = [], []
    for _ in range(n_pairs):
        idx.extend(rng.integers(0, n, 2))
        pairs.extend(complex(rng.normal(), rng.normal()) for _ in range(2))
    pairs = np.array(pairs, dtype=complex)
    axes = dirs[:: max(1, n // 100)]
    angles = 2.0 * np.pi * np.arange(1, n_angles) / n_angles
    rots = np.concatenate([np.eye(3)[None]] + [rotation_about_axis(axes, a) for a in angles])
    worst = 0.0
    block = 2 * max(1, _PAIRS // (2 * len(rots)))     # even: pairs stay whole
    for lo in range(0, 2 * n_pairs, block):
        G = _rotated_frames(dirs[idx[lo:lo + block]], rots)
        r = np.conj(_forms(G)) * pairs[lo:lo + block, None, None]
        d = np.linalg.norm((r[0::2] - r[1::2]).view(float), axis=-1)      # (p, k)
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
    z forward) to world.  height and width must be integers >= 1, fov_deg
    a real number (not a bool) in (0, 180) degrees, stored as a float, and
    pose a rotation to 1e-6, as in S4EM headers; otherwise a ValueError
    names the field.
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
        for name in ("height", "width"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"view {name} must be an integer >= 1, got {value!r}")
            setattr(self, name, int(value))
        fov = self.fov_deg
        if isinstance(fov, bool) or not isinstance(fov, numbers.Real) or not 0.0 < fov < 180.0:
            raise ValueError(f"view fov_deg must be an angle in (0, 180) degrees, got {fov!r}")
        self.fov_deg = float(fov)
        if self.pose.shape != (3, 3) or not is_rotation(self.pose, 1e-6):
            raise ValueError(f"view pose must be a 3x3 rotation, got {self.pose.tolist()}")

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
        """Mask of directions inside the view's footprint, edges included.

        The half-angle tangent has a few ulps of slack: tan(pi / 4) rounds to
        1 - 2^-53, and without it a direction on a cube edge, where
        |x / z| = 1, would be outside both faces that share the edge.
        """
        dirs = np.asarray(dirs, dtype=float)
        if self.kind == "equirect":
            return np.ones(dirs.shape[:-1], dtype=bool)
        cam = dirs @ self.pose
        t = math.tan(math.radians(self.fov_deg) / 2.0) * (1.0 + 8.0 * np.finfo(float).eps)
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


def _touched(view: ViewSpec, rows, cols):
    """Flat indices of the source pixels that footprints (rows, cols) touch,
    ascending, and each neighbour's position among them (rows.shape)."""
    flat = rows * view.width + cols
    used = np.zeros(view.height * view.width, dtype=bool)
    used[flat] = True
    touched = np.flatnonzero(used)
    slot = np.empty(used.size, dtype=np.intp)
    slot[touched] = np.arange(touched.size)
    return touched, slot[flat]


def _transport(u, m):
    """v = (I - u u^T + i [u]x) m for unit directions u and complex vectors m,
    each a list of three component arrays (broadcast together).

    For a right-handed tangent frame (x, y, u) and m_u = x + iy,
    m_u conj(m_u)^T = I - u u^T + i [u]x, so conj(m_a) . v equals
    (conj(m_a) . m_u)(conj(m_u) . m) for every such frame: projecting onto
    the Stokes vectors at u and decoding in the frame of m needs no frame
    at u.
    """
    ux, uy, uz = u
    mx, my, mz = m
    um = ux * mx + uy * my + uz * mz
    return [mx - um * ux + 1j * (uy * mz - uz * my),
            my - um * uy + 1j * (uz * mx - ux * mz),
            mz - um * uz + 1j * (ux * my - uy * mx)]


def _coef(nb, w, fc, t_dirs, t_frames, dst_frames):
    """Each footprint neighbour's w_k (conj(m_k) . v_j)^2 / 16 (n, 4) for
    footprints nb over touched pixels with directions t_dirs and frames
    t_frames, into destination frames dst_frames (n, 3, 3) (see resample)."""
    # per footprint row j, its blended direction u_j and v_j (see
    # _transport); the vectors are lists of their three components
    mbar = t_frames[:, :, 0] - 1j * t_frames[:, :, 1]                    # (t, 3)
    nb2 = nb.reshape(-1, 2, 2)                                             # (n, j, k)
    fcn = fc[:, None]
    u = [(1 - fcn) * x[nb2[..., 0]] + fcn * x[nb2[..., 1]] for x in t_dirs.T]
    norm = np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])               # (n, 2)
    m_d = dst_frames[:, :, 0:1] + 1j * dst_frames[:, :, 1:2]               # (n, 3, 1)
    v = _transport([x / norm for x in u], [m_d[:, x] for x in range(3)])
    a = sum(mbar[:, x][nb2] * v[x][..., None] for x in range(3))          # (n, 2, 2)
    # w / 16 is exact, so this is w (a a) / 16 bit for bit
    return (w / 16) * (a * a).reshape(-1, 4)


class _ResamplePlan:
    """The geometry of a resample by method from source views into a
    destination view, independent of pixel values and validity masks; every
    array is read-only.

    The source pixels that footprints touch are slots 0 .. n_slots - 1:
    touched[k] holds source k's flat pixels, ascending, from slot
    offsets[k] on.  Slot n_slots is blank (zero and valid), and the
    footprints of pixels that no source covers (covered false) rest on it
    with zero weights.  Per destination pixel, nb (H * W, 4) holds each
    footprint neighbour's slot and w its bilinear weight.  The pixels copy
    snap onto the single slot copy_from with their own frame.  For 's2l2',
    coef (H * W, 4) holds each neighbour's w_k (conj(m_k) . v_j)^2 / 16; for
    'component-bilinear', coef (2, n_slots + 1) holds each slot's twist
    (c, sn) from its frame to the destination frame field at its direction.
    One loop over the sources builds it all.
    """

    def __init__(self, src_views, dst: ViewSpec, method: str):
        dirs = dst.pixel_dirs().reshape(-1, 3)
        dst_frames = dst.frames(dirs)
        chosen = np.full(dirs.shape[0], -1)
        for k, view in enumerate(src_views):
            chosen[view.contains(dirs) & (chosen < 0)] = k
        self.covered = chosen >= 0
        self.nb = np.empty((dirs.shape[0], 4), dtype=np.int32)
        self.w = np.zeros((dirs.shape[0], 4))
        coef = np.zeros((dirs.shape[0], 4), dtype=complex) if method == "s2l2" else []
        touched, offsets, copies = [], [0], []
        for k, view in enumerate(src_views):
            sel = np.flatnonzero(chosen == k)
            rows, cols, w, fr, fc = _footprints(view, dirs[sel])
            t, nb = _touched(view, rows, cols)
            t_dirs = view.pixel_dirs().reshape(-1, 3)[t]
            t_frames = view.frames(t_dirs)
            one = np.flatnonzero((fr == 0.0) & (fc == 0.0))
            copies.append(sel[one[np.all(t_frames[nb[one, 0]] == dst_frames[sel[one]],
                                         axis=(-2, -1))]])
            if method == "s2l2":
                coef[sel] = _coef(nb, w, fc, t_dirs, t_frames, dst_frames[sel])
            elif t.size:
                coef.append(frame_twist(t_frames, dst.frames(t_dirs)))
            self.nb[sel], self.w[sel] = nb + offsets[-1], w
            touched.append(t.astype(np.int32))
            offsets.append(offsets[-1] + t.size)
        self.n_slots = offsets[-1]
        self.nb[~self.covered] = self.n_slots
        self.copy = np.concatenate([np.empty(0, dtype=np.intp)] + copies)
        self.copy_from = self.nb[self.copy, 0]
        self.touched, self.offsets = tuple(touched), tuple(offsets)
        self.shape = (dst.height, dst.width)
        self.src_shapes = tuple((view.height, view.width) for view in src_views)
        self.coef = coef if method == "s2l2" else np.concatenate(coef + [np.zeros((2, 1))], axis=1)
        self.arrays = (self.covered, self.nb, self.w, self.copy, self.copy_from, self.coef,
                       *self.touched)
        for x in self.arrays:
            x.setflags(write=False)

    @property
    def nbytes(self):
        return sum(x.nbytes for x in self.arrays)


# resample keeps, per method, the plan of its last call with that method, if
# the plan holds at most _PLAN_BYTES; a larger plan serves its own call only
_PLAN_BYTES = 32 << 20
_last_plans = {}


def _view_key(view: ViewSpec):
    pose = np.asarray(view.pose, dtype=float)
    return view.kind, view.height, view.width, view.fov_deg, pose.shape, pose.tobytes()


def _resample_plan(src_views, dst: ViewSpec, method: str) -> _ResamplePlan:
    """The plan of (src_views, dst, method), cached per method by the views'
    values: ViewSpec is mutable, so a view changed in place since it was
    built misses, and the rebuild validates it again."""
    key = tuple(_view_key(view) for view in (*src_views, dst))
    last_key, plan = _last_plans.get(method, (None, None))
    if last_key != key:
        fresh = [ViewSpec(v.kind, v.height, v.width, np.array(v.pose, dtype=float), v.fov_deg)
                 for v in (*src_views, dst)]
        plan = _ResamplePlan(fresh[:-1], fresh[-1], method)
        if plan.nbytes <= _PLAN_BYTES:
            _last_plans[method] = (key, plan)
        else:
            _last_plans.pop(method, None)
    return plan


def resample(sources, dst: ViewSpec, method: str = "s2l2") -> StokesImage:
    """Resample polarized images into a new view.

    For each destination pixel the first covering source view supplies a
    4-neighbor bilinear footprint.  method 's2l2' interpolates the
    linear-polarization pair through iterated s2l2 interpolation
    (horizontal pairs, then vertical); 'component-bilinear' lerps raw
    components and reinterprets them under the destination frame field (the
    artifact-exhibiting baseline).  s0 and s3 are scalar-bilinear in both
    methods.  For 's2l2' the encode, the lerps, the projections onto the
    Stokes vectors at each row's blended direction u_j and the decode in
    the destination frame (vector m_d) collapse, by the module's transport
    identity, to

        s1 + i s2 = sum_k w_k z_k (conj(m_k) . v_j(k))^2 / 16,
        v_j = m_d - (u_j . m_d) u_j + i u_j x m_d,

    with z_k = s1 + i s2 of neighbour k in its own frame (vector m_k) and w_k
    its bilinear weight: no frame at u_j and no 5-vector forms.

    Everything but the pixel values depends only on the views and the
    method, so it is a plan of (source views, destination view, method):
    the covering source of each pixel, the footprints, the copy list and
    each footprint neighbour's coefficient w_k (conj(m_k) . v_j)^2 / 16
    ('s2l2') or each touched source pixel's twist to the destination frame
    field ('component-bilinear').  A call reads each touched source pixel
    once and gathers: s0, s3 and s1 + i s2 are weighted sums ('s2l2'), or
    the touched pixels are turned by their twists and lerped
    ('component-bilinear').  Each method keeps the plan of its last call,
    keyed by the views' values (a view changed in place gets a fresh plan),
    if it holds at most 32 MB; a larger plan is dropped after its call.

    Pixels no source covers, and pixels whose footprint gives nonzero
    weight to an invalid or non-finite source pixel, are flagged invalid and written as
    zeros.  In both methods, footprints that snap onto a single source pixel
    with an identical frame are copied bit-exactly.
    """
    if method not in ("s2l2", "component-bilinear"):
        raise ValueError(f"unknown method {method!r}")
    sources = list(sources)
    plan = _resample_plan([src.view for src in sources], dst, method)
    # the touched source pixels, each read once, and the blank slot
    t_data = np.zeros((plan.n_slots + 1, 4))
    bad = np.zeros(plan.n_slots + 1, dtype=bool)
    for k, src in enumerate(sources):
        hw = plan.src_shapes[k]
        if src.data.shape != hw + (4,) or src.valid.shape != hw:
            raise ValueError(f"source {k} has data {src.data.shape} and mask {src.valid.shape}; "
                             f"its view needs {hw + (4,)} and {hw}")
        lo, hi = plan.offsets[k], plan.offsets[k + 1]
        t_data[lo:hi] = src.data.reshape(-1, 4)[plan.touched[k]]
        bad[lo:hi] = ~src.valid.reshape(-1)[plan.touched[k]]
    # a zero weight on a non-finite pixel would still give 0 * nan = nan
    bad |= ~np.isfinite(t_data).all(axis=-1)
    t_data[bad] = 0.0
    nb, w = plan.nb, plan.w
    if method == "component-bilinear":
        # express each touched pixel in the destination frame field at its
        # own direction, then lerp the raw components (the conventional
        # approach, which collapses near dst frame-field singularities)
        pix = np.take(stokes_turn(t_data, *plan.coef), nb, axis=0)
        pix *= w[..., None]
        out = np.sum(pix, axis=1)
    else:
        out = np.empty(w.shape)
        for i in (0, 3):
            out[:, i] = np.einsum("ij,ij->i", w, np.take(t_data[:, i], nb))
        stilde = np.einsum("ij,ij->i", plan.coef, np.take(t_data[:, 1] + 1j * t_data[:, 2], nb))
        out[:, 1], out[:, 2] = stilde.real, stilde.imag
    out[plan.copy] = t_data[plan.copy_from]
    valid = plan.covered.copy()
    if bad.any():
        # drop the footprints that give nonzero weight to an invalid pixel
        valid &= ~np.any(np.take(bad, nb) & (w != 0.0), axis=-1)
        out[~valid] = 0.0
    return StokesImage(dst, out.reshape(plan.shape + (4,)), valid.reshape(plan.shape))
