"""Stokes vectors, Mueller matrices, frame conversions, Stokes-field grids,
and the synthetic analytic pBRDF.

A Stokes component vector is numeric and only meaningful together with a
measurement frame whose z axis is the propagation direction.  Reframing
rotates the (s1, s2) pair by twice the frame angle t = frame_angle(frm, to)
(to = frm @ Rz(t)): the pair a + ib measured in `frm` reads e^{-2it}(a + ib)
in `to`, while s0 and s3 are unchanged.  frame_twist computes
(cos 2t, sin 2t) and is the only place the twist is computed;
stokes_reframe (Stokes vectors, (..., 4)) and mueller_reframe (both sides of
Mueller matrices, (..., 4, 4)) are the only places it is applied to real
components, and sites holding the complex pair multiply it by c - i s.
Stokes fields are stored as components under the theta-phi frame field at
each sample (no frames are stored).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import SphereGrid, complex_pair_separate, frame_for_dir, normalize


# ---------------------------------------------------------------------------
# frame conversion of Stokes components
# ---------------------------------------------------------------------------

def frame_angle(frm, to):
    """Angle t with to = frm @ Rz(t); both frames must share their z axis."""
    frm = np.asarray(frm, dtype=float)
    to = np.asarray(to, dtype=float)
    if np.max(np.abs(frm[..., :, 2] - to[..., :, 2])) > 1e-9:
        raise ValueError("frames have different propagation directions")
    x_new = to[..., :, 0]
    c = np.einsum("...i,...i->...", x_new, frm[..., :, 0])
    s = np.einsum("...i,...i->...", x_new, frm[..., :, 1])
    return np.arctan2(s, c)


def frame_twist(frm, to):
    """(cos 2t, sin 2t) for t = frame_angle(frm, to); frames (..., 3, 3)."""
    t = frame_angle(frm, to)
    return np.cos(2.0 * t), np.sin(2.0 * t)


def stokes_reframe(s, frm, to):
    """Stokes components (..., 4) measured in `frm`, re-measured in `to`.

    The twist's shape broadcasts against s.shape[:-1].
    """
    c, sn = frame_twist(frm, to)
    s = np.asarray(s, dtype=float)
    a, b = s[..., 1], s[..., 2]
    out = np.empty(np.broadcast_shapes(np.shape(c), s.shape[:-1]) + (4,))
    out[...] = s
    out[..., 1] = c * a + sn * b
    out[..., 2] = -sn * a + c * b
    return out


@dataclass
class GeometricStokes:
    """Frame-tagged Stokes components; equality is modulo reframing."""
    components: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        self.frame = np.asarray(self.frame, dtype=float)

    @property
    def direction(self):
        return self.frame[:, 2]

    def in_frame(self, to):
        return stokes_reframe(self.components, self.frame, to)


def stokes_rotate(s: GeometricStokes, R) -> GeometricStokes:
    """Rotate the underlying ray: components unchanged, frame rotated."""
    return GeometricStokes(s.components.copy(), np.asarray(R) @ s.frame)


def stokes_inner(s: GeometricStokes, t: GeometricStokes) -> float:
    """Frame-independent dot product; directions must agree."""
    if np.max(np.abs(s.direction - t.direction)) > 1e-9:
        raise ValueError("Stokes vectors along different directions")
    return float(np.dot(s.components, t.in_frame(s.frame)))


def stokes_equal(s: GeometricStokes, t: GeometricStokes, tol=1e-12) -> bool:
    if np.max(np.abs(s.direction - t.direction)) > 1e-9:
        return False
    return bool(np.max(np.abs(s.components - t.in_frame(s.frame))) <= tol)


# ---------------------------------------------------------------------------
# Mueller matrices
# ---------------------------------------------------------------------------

@dataclass
class MuellerMatrix:
    """4x4 Mueller matrix together with its input and output frames."""
    matrix: np.ndarray
    frame_in: np.ndarray
    frame_out: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.frame_in = np.asarray(self.frame_in, dtype=float)
        self.frame_out = np.asarray(self.frame_out, dtype=float)

    def apply(self, s: GeometricStokes) -> GeometricStokes:
        return GeometricStokes(self.matrix @ s.in_frame(self.frame_in),
                               self.frame_out)


def mueller_reframe(M: MuellerMatrix, new_in, new_out) -> MuellerMatrix:
    """Express the same Mueller transform under new frames.

    Each column of M is a Stokes vector over the output slots and each row
    one over the input slots, so the output twist reframes the columns and
    the input twist the rows.  Matrices (..., 4, 4) and frames (..., 3, 3)
    broadcast over their leading axes.
    """
    new_in = np.asarray(new_in, dtype=float)
    new_out = np.asarray(new_out, dtype=float)
    m = stokes_reframe(np.swapaxes(M.matrix, -1, -2), M.frame_out[..., None, :, :],
                       new_out[..., None, :, :])
    m = stokes_reframe(np.swapaxes(m, -1, -2), M.frame_in[..., None, :, :],
                       new_in[..., None, :, :])
    return MuellerMatrix(m, new_in, new_out)


def mueller_spin22(M: np.ndarray):
    """Complex pair (iso, conj) of the spin 2-to-2 submatrix of a 4x4 matrix."""
    return complex_pair_separate(np.asarray(M)[1:3, 1:3])


# ---------------------------------------------------------------------------
# Stokes fields on equirectangular grids
# ---------------------------------------------------------------------------

SAMPLING_QUAD = "quadrature-nodes"
SAMPLING_PIXEL = "uniform-pixel-centers"


@dataclass
class StokesField:
    """Grid of Stokes components measured under frame_theta_phi(theta, phi).

    data has shape (n_theta, n_phi, 4).  For quadrature sampling the grid
    object carries the Gauss-Legendre nodes/weights.
    """
    data: np.ndarray
    sampling: str
    grid: SphereGrid | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3 or self.data.shape[2] != 4:
            raise ValueError("StokesField data must have shape (n_theta, n_phi, 4)")
        if self.sampling == SAMPLING_QUAD and self.grid is None:
            raise ValueError("quadrature sampling requires a grid")

    @property
    def n_theta(self):
        return self.data.shape[0]

    @property
    def n_phi(self):
        return self.data.shape[1]

    def angles(self):
        if self.sampling == SAMPLING_QUAD:
            return self.grid.angles()
        th = (np.arange(self.n_theta) + 0.5) * np.pi / self.n_theta
        ph = (np.arange(self.n_phi) + 0.5) * 2.0 * np.pi / self.n_phi
        return np.meshgrid(th, ph, indexing="ij")

    def spin2_complex(self):
        return self.data[..., 1] + 1j * self.data[..., 2]


def stokes_field_from_function(fn, grid: SphereGrid) -> StokesField:
    """Sample `fn(theta, phi) -> (..., 4)` on a quadrature grid."""
    th, ph = grid.angles()
    return StokesField(np.asarray(fn(th, ph), dtype=float), SAMPLING_QUAD, grid)


# ---------------------------------------------------------------------------
# physically valid range
# ---------------------------------------------------------------------------

def clamp_valid_range(s):
    """Scale (s1, s2, s3) uniformly so that s0 >= |(s1, s2, s3)|.

    Preserves the polarization direction (AoLP); the zero-intensity case maps
    to a fully unpolarized zero vector.
    """
    s = np.asarray(s, dtype=float)
    pol = np.linalg.norm(s[..., 1:], axis=-1)
    s0 = np.clip(s[..., 0], 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(pol > s0, np.where(pol > 0.0, s0 / np.where(pol > 0, pol, 1.0), 0.0), 1.0)
    out = s.copy()
    out[..., 0] = s[..., 0]
    out[..., 1:] = s[..., 1:] * scale[..., None]
    return out


# ---------------------------------------------------------------------------
# synthetic analytic pBRDF
# ---------------------------------------------------------------------------

def _fresnel_rs_rp(cos_i, ior):
    """Amplitude reflection coefficients of a dielectric interface."""
    cos_i = np.asarray(cos_i, dtype=float)
    sin2_t = (1.0 - cos_i ** 2) / ior ** 2
    cos_t = np.sqrt(np.clip(1.0 - sin2_t, 0.0, None))
    rs = (cos_i - ior * cos_t) / (cos_i + ior * cos_t)
    rp = (ior * cos_i - cos_t) / (ior * cos_i + cos_t)
    return rs, rp


class SyntheticPbrdf:
    """Smooth isotropic polarizing pBRDF used as a stand-in material.

    A Gaussian lobe about the mirror direction of the incident ray times the
    Fresnel Mueller matrix of a dielectric, with a smooth horizon falloff.
    All ingredients are analytic in the direction dot products, so the field
    is exactly azimuthally symmetric about the normal and has rapidly
    decaying frequency content for large roughness.  Cosine weighting is
    folded in.  Callable as pbrdf(w_i, w_o) -> (4, 4) components under the
    theta-phi frames of w_i and w_o (vectorized over leading axes).

    With the normal along +-z the theta-phi frames turn with the field under
    rotations about z, so the components depend on phi_o - phi_i only; the
    read-only `azimuthal` says so, and operators.operator_project then
    samples one w_o per theta ring instead of the whole double sphere.
    """

    def __init__(self, normal=(0.0, 0.0, 1.0), roughness=0.5, ior=1.5,
                 horizon_sharpness=None):
        if roughness <= 0.0:
            raise ValueError("roughness must be positive")
        if ior <= 1.0:
            raise ValueError("ior must exceed 1")
        self.normal = normalize(np.asarray(normal, dtype=float))
        self.roughness = float(roughness)
        self.ior = float(ior)
        # None disables the lower-hemisphere falloff (fully smooth variant)
        self.horizon_sharpness = horizon_sharpness

    @property
    def azimuthal(self):
        """True exactly when the normal is along +z or -z."""
        return bool(self.normal[0] == 0.0 and self.normal[1] == 0.0)

    def mueller_block(self, w_i, w_o):
        """Raw Mueller matrices in the per-ray s-p frames.

        Each ray's s axis is perpendicular to its own (normal, ray) plane, so
        the frames and the matrix vary smoothly away from w || +-normal.
        """
        w_i = np.asarray(w_i, dtype=float)
        w_o = np.asarray(w_o, dtype=float)
        n = self.normal
        ci = w_i @ n
        mirror = 2.0 * ci[..., None] * n - w_i
        # lobe in the dot product, analytic on the whole sphere
        t = np.einsum("...i,...i->...", mirror, np.broadcast_to(w_o, mirror.shape))
        lobe = np.exp((t - 1.0) / self.roughness ** 2)
        if self.horizon_sharpness is not None:
            # logistic falloff keeps the response one-sided; the sharpness
            # trades physical plausibility against spectral decay
            k = self.horizon_sharpness
            co = np.broadcast_to(w_o, mirror.shape) @ n
            lobe = lobe / (1.0 + np.exp(-ci / k)) / (1.0 + np.exp(-co / k))
        # cosine weighting kept analytic; the masked variant suppresses the
        # unphysical negative-cosine region instead of clamping it
        lobe = lobe * ci
        # Fresnel at a smooth proxy angle: cos_f = (1 + n.w_i) / 2
        cos_f = 0.5 * (1.0 + ci)
        rs, rp = _fresnel_rs_rp(cos_f, self.ior)
        a = 0.5 * (rs ** 2 + rp ** 2)
        b = 0.5 * (rs ** 2 - rp ** 2)
        cc = rs * rp
        # Polarizing couplings need a polarization reference on the side they
        # touch, which degenerates where that ray is parallel to the normal;
        # the sin^2 factors make the geometric field continuous there.
        co = np.broadcast_to(w_o, w_i.shape) @ n
        gi = 1.0 - ci ** 2
        go = 1.0 - co ** 2
        z = np.zeros_like(a)
        M = np.stack([
            np.stack([a, b * gi, z, z], axis=-1),
            np.stack([b * go, a * gi * go, z, z], axis=-1),
            np.stack([z, z, cc * gi * go, z], axis=-1),
            np.stack([z, z, z, cc], axis=-1),
        ], axis=-2)
        return M * lobe[..., None, None]

    def _sp_frame(self, w):
        """s-p frame [s, w x s, w] of rays w, s = unit normal x w (fixed
        fallback along the axis)."""
        n = self.normal
        s_dir = np.cross(np.broadcast_to(n, w.shape), w)
        nrm = np.linalg.norm(s_dir, axis=-1, keepdims=True)
        fallback = np.cross(np.broadcast_to(np.array([1.0, 0.0, 0.0]), w.shape), w)
        fb_n = np.linalg.norm(fallback, axis=-1, keepdims=True)
        s_dir = np.where(nrm > 1e-9, s_dir / np.where(nrm > 0, nrm, 1.0),
                         fallback / np.where(fb_n > 0, fb_n, 1.0))
        return np.stack([s_dir, np.cross(w, s_dir), w], axis=-1)

    def __call__(self, w_i, w_o):
        """Mueller components under theta-phi frames at w_i and w_o."""
        w_i, w_o = np.broadcast_arrays(np.asarray(w_i, dtype=float),
                                       np.asarray(w_o, dtype=float))
        M = MuellerMatrix(self.mueller_block(w_i, w_o), self._sp_frame(w_i),
                          self._sp_frame(w_o))
        return mueller_reframe(M, frame_for_dir(w_i), frame_for_dir(w_o)).matrix


def synthetic_pbrdf(normal=(0.0, 0.0, 1.0), roughness=0.5, ior=1.5,
                    horizon_sharpness=None) -> SyntheticPbrdf:
    """Factory for the synthetic analytic pBRDF (a MuellerFieldFn)."""
    return SyntheticPbrdf(normal, roughness, ior, horizon_sharpness)
