"""Directions, frames, rotations and sphere quadrature grids.

All directions are unit 3-vectors in global-frame coordinates, all angles are
radians, all matrices are row-major float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# directions and spherical coordinates
# ---------------------------------------------------------------------------

def normalize(v):
    """Return v / |v| (last-axis normalization for stacked vectors)."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / n


def sph_to_dir(theta, phi):
    """Unit direction for zenith angle theta and azimuth phi.

    Works element-wise on broadcastable arrays; returns shape (..., 3).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def dir_to_sph(d):
    """Inverse of sph_to_dir: theta in [0, pi], phi in [0, 2*pi).

    theta comes from arctan2(hypot(x, y), z), which stays accurate next to
    the poles (arccos(z) does not), so sph_to_dir(*dir_to_sph(d)) keeps d to
    rounding everywhere.  phi is 0 by convention only where x = y = 0.
    """
    d = np.asarray(d, dtype=float)
    rho = np.hypot(d[..., 0], d[..., 1])
    theta = np.arctan2(rho, d[..., 2])
    phi = np.arctan2(d[..., 1], d[..., 0])
    phi = np.where(phi < 0.0, phi + TWO_PI, phi)
    # -tiny + 2 pi rounds to 2 pi, which is the angle 0
    phi = np.where((rho == 0.0) | (phi == TWO_PI), 0.0, phi)
    if theta.ndim == 0:
        return float(theta), float(phi)
    return theta, phi


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def frame_theta_phi(theta, phi):
    """theta-phi frame: columns [theta_hat, phi_hat, omega_hat].

    At theta in {0, pi} the direct substitution is used, so the returned frame
    depends on phi; callers that need a particular pole frame pass phi
    explicitly.  Broadcasts; returns shape (..., 3, 3).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    F = np.empty(np.broadcast(theta, phi).shape + (3, 3))
    # 0 - x rather than -x: a zero entry is +0, never -0
    F[..., 0, 0], F[..., 1, 0], F[..., 2, 0] = ct * cp, ct * sp, 0.0 - st
    F[..., 0, 1], F[..., 1, 1], F[..., 2, 1] = 0.0 - sp, cp, 0.0
    F[..., 0, 2], F[..., 1, 2], F[..., 2, 2] = st * cp, st * sp, ct
    return F


def frame_for_dir(d):
    """theta-phi frame at an arbitrary direction (pole phi = 0 convention)."""
    theta, phi = dir_to_sph(d)
    return frame_theta_phi(theta, phi)


def frame_perspective(d, up):
    """Perspective-camera frame field [normalize(up x d), d x x_hat, d].

    `up` is the camera up axis in world coordinates; undefined when d || up.
    """
    d = np.asarray(d, dtype=float)
    up = np.asarray(up, dtype=float)
    x = normalize(np.cross(np.broadcast_to(up, d.shape), d))
    y = np.cross(d, x)
    return np.stack([x, y, d], axis=-1)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def rotation_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_y(b):
    c, s = np.cos(b), np.sin(b)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_zyz(alpha, beta, gamma):
    """R_z(alpha) @ R_y(beta) @ R_z(gamma)."""
    return rotation_z(alpha) @ rotation_y(beta) @ rotation_z(gamma)


def rotation_about_axis(axis, angle):
    """Rodrigues rotation about a (not necessarily unit) axis.

    axis (3,) gives (3, 3); a stack of axes (n, 3) gives (n, 3, 3).
    """
    u = normalize(np.asarray(axis, dtype=float))
    ux, uy, uz = u[..., 0], u[..., 1], u[..., 2]
    zero = np.zeros_like(ux)
    K = np.stack([np.stack([zero, -uz, uy], axis=-1),
                  np.stack([uz, zero, -ux], axis=-1),
                  np.stack([-uy, ux, zero], axis=-1)], axis=-2)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotation_align(a, b):
    """A rotation sending unit vector a to unit vector b (shortest arc)."""
    a = normalize(np.asarray(a, dtype=float))
    b = normalize(np.asarray(b, dtype=float))
    c = float(np.dot(a, b))
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        # pick any axis orthogonal to a
        helper = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        axis = normalize(np.cross(a, helper))
        return rotation_about_axis(axis, np.pi)
    axis = np.cross(a, b)
    return rotation_about_axis(axis, np.arctan2(np.linalg.norm(axis), c))


def zyz_from_rotation(R):
    """ZYZ Euler angles (alpha, beta, gamma) with R = Rz(a) Ry(b) Rz(g), R (..., 3, 3).

    beta = arctan2(hypot(R_xz, R_yz), R_zz) keeps tilts next to either pole.
    Near a pole only one of alpha +- gamma is large in R: (1 + cos b) e^{i(a+g)}
    on the north half and (1 - cos b) e^{i(a-g)} on the south half.  The
    other comes from the products of the small entries R_xz, R_yz, R_zx, R_zy,
    whose own errors scale with sin b.  Halving the pair fixes alpha up to pi;
    the sign of (R_xz, R_yz) = sin b (cos a, sin a) settles it.
    """
    R = np.asarray(R, dtype=float)
    xx, xy, xz = R[..., 0, 0], R[..., 0, 1], R[..., 0, 2]
    yx, yy, yz = R[..., 1, 0], R[..., 1, 1], R[..., 1, 2]
    zx, zy, zz = R[..., 2, 0], R[..., 2, 1], R[..., 2, 2]
    beta = np.arctan2(np.hypot(xz, yz), zz)
    # sin^2 b e^{i(a+g)} and sin^2 b e^{i(a-g)} from the small entries
    small_sum = np.arctan2(xz * zy - yz * zx, -(xz * zx + yz * zy))
    small_diff = np.arctan2(-(yz * zx + xz * zy), yz * zy - xz * zx)
    north = zz >= 0.0
    a_plus_g = np.where(north, np.arctan2(yx - xy, xx + yy), small_sum)
    a_minus_g = np.where(north, small_diff, np.arctan2(-(yx + xy), yy - xx))
    alpha = 0.5 * (a_plus_g + a_minus_g)
    gamma = 0.5 * (a_plus_g - a_minus_g)
    flip = np.cos(alpha - np.arctan2(yz, xz)) < 0.0
    alpha = np.where(flip, alpha + np.pi, alpha)
    gamma = np.where(flip, gamma + np.pi, gamma)
    return alpha[()], beta[()], gamma[()]


def random_rotation(rng):
    """Haar-ish random rotation from a numpy Generator/RandomState."""
    return rotation_zyz(rng.uniform(0, TWO_PI),
                        np.arccos(rng.uniform(-1, 1)),
                        rng.uniform(0, TWO_PI))


def is_rotation(R, tol=1e-12):
    """Per matrix of R (..., 3, 3): every entry of R^T R - I and det R - 1 within
    tol (det to at least 1e-10); false where R is not finite."""
    R = np.asarray(R, dtype=float)
    with np.errstate(all="ignore"):
        return ((np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(axis=(-2, -1)) <= tol)
                & (np.abs(np.linalg.det(R) - 1.0) < max(tol, 1e-10)))


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereGrid:
    """Gauss-Legendre (in cos theta) x uniform-phi product grid.

    Integrates products of spherical harmonics up to combined band 2*band
    exactly.  theta_weights already include the phi cell width 2*pi/n_phi, so
    integral(f) = sum_ij w_i f(theta_i, phi_j).
    """
    band: int
    theta_nodes: np.ndarray     # (n_theta,)
    theta_weights: np.ndarray   # (n_theta,) including dphi factor
    n_phi: int

    @property
    def phi_nodes(self):
        return TWO_PI * np.arange(self.n_phi) / self.n_phi

    def angles(self):
        """Meshgrid (theta, phi) arrays of shape (n_theta, n_phi)."""
        th, ph = np.meshgrid(self.theta_nodes, self.phi_nodes, indexing="ij")
        return th, ph

    def weights(self):
        """(n_theta, n_phi) quadrature weights."""
        return np.repeat(self.theta_weights[:, None], self.n_phi, axis=1)

    def dirs(self):
        th, ph = self.angles()
        return sph_to_dir(th, ph)


@lru_cache(maxsize=16)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1]: read-only nodes x (ascending)
    and weights w, cached per n, which gauss_legendre_grid and
    pconv.kernel_coeffs read."""
    x, w = np.polynomial.legendre.leggauss(n)
    for a in (x, w):
        a.setflags(write=False)
    return x, w


@lru_cache(maxsize=16)
def gauss_legendre_grid(l_max: int) -> SphereGrid:
    """Grid with l_max+1 Gauss-Legendre theta nodes and 2*l_max+2 phi samples.

    Cached, as the ring tables are: callers share one grid per l_max, whose
    theta_nodes and theta_weights are read-only.
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    x, w = gauss_legendre(l_max + 1)
    theta = np.arccos(x[::-1])
    n_phi = 2 * l_max + 2
    weights = w[::-1] * (TWO_PI / n_phi)
    for a in (theta, weights):
        a.setflags(write=False)
    return SphereGrid(l_max, theta, weights, n_phi)


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic spherical Fibonacci point set, shape (n, 3)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    phi = TWO_PI * np.mod(i / golden, 1.0)
    st = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([st * np.cos(phi), st * np.sin(phi), z], axis=-1)
