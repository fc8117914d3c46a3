"""Stokes vectors, Mueller matrices, frame conversions, Stokes-field grids,
and the synthetic analytic pBRDF.

A Stokes component vector is numeric and only meaningful together with a
measurement frame whose z axis is the propagation direction.  Reframing
rotates the (s1, s2) pair by twice the frame angle t = frame_angle(frm, to)
(to = frm @ Rz(t)): the pair a + ib measured in `frm` reads e^{-2it}(a + ib)
in `to`, while s0 and s3 are unchanged.  frame_twist computes
(cos 2t, sin 2t) and is the one place that computes the twist between two
given frames; stokes_turn (Stokes vectors, (..., 4), behind
stokes_reframe and the twists of the component-bilinear resample plan) and
mueller_reframe (both sides of Mueller matrices, (..., 4, 4)) are the only
places it is applied to real components; pconv's angular oracle pconv_angular
multiplies the complex pair by c - i s.  The pBRDF gets its s-p to
theta-phi twist as z^2, z = (n x w).(e_theta + i e_phi), as S2L2 gets its
own from any tangent frame a to any frame b as (conj(m_a) . m_b)^2 / 4,
m = x + iy, and the perturbation protocol's theta-phi baseline its twist to
the theta-phi frame as (conj(m_z) / |m_z|)^2 (see the s2l2 module).
Stokes fields hold components at the nodes of a quadrature grid under the
theta-phi frame field (no frames are stored).

A real operator acts on z = s1 + i s2 as z -> iso z + conj conj(z), with
complex couplings to and from s0 and s3: the blocks of SPIN_BLOCKS.  One slot
rule (slot_pairs) places them: an output c fills rows p = 1, 2 with Re(c) and
Re(-i c), an input enters columns p = 1, 2 as s1 + i s2, or s1 - i s2 in the
conj block.  write_spin_blocks and read_spin_blocks go through strided views
of a real matrix whose slots come in runs (n2, n4): n2 (l, m) runs of two
(p = 0, 3), then n4 runs of four (p = 0..3); a 4x4 Mueller matrix has
(0, 1), a PSH one (min(S, 4), max(S - 4, 0)) over its S scalar (l, m).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geom import SphereGrid, frame_for_dir, normalize


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
    return stokes_turn(s, *frame_twist(frm, to))


def stokes_turn(s, c, sn):
    """Stokes components (..., 4) turned by a twist (c, sn) = (cos 2t, sin 2t)
    from frame_twist; (c, sn) broadcast against s.shape[:-1]."""
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


# ---------------------------------------------------------------------------
# Stokes fields on quadrature grids
# ---------------------------------------------------------------------------

@dataclass
class StokesField:
    """Stokes components at the nodes of a quadrature grid, measured under
    frame_theta_phi(theta, phi).

    data has shape (grid.theta_nodes.size, grid.n_phi, 4).  Pixel images are
    s2l2.StokesImage.
    """
    data: np.ndarray
    grid: SphereGrid

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.grid is None:
            raise ValueError("StokesField needs the quadrature grid of its nodes")
        want = (self.grid.theta_nodes.size, self.grid.n_phi, 4)
        if self.data.shape != want:
            raise ValueError(f"StokesField data has shape {self.data.shape}, but its "
                             f"band-{self.grid.band} grid needs {want}")

    @property
    def n_theta(self):
        return self.data.shape[0]

    @property
    def n_phi(self):
        return self.data.shape[1]

    def spin2_complex(self):
        return self.data[..., 1] + 1j * self.data[..., 2]


def stokes_field_from_function(fn, grid: SphereGrid) -> StokesField:
    """Sample `fn(theta, phi) -> (..., 4)` on a quadrature grid."""
    th, ph = grid.angles()
    return StokesField(np.asarray(fn(th, ph), dtype=float), grid)


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
# complex spin-2 blocks in real matrices
# ---------------------------------------------------------------------------

class SpinBlock(NamedTuple):
    """A block of a real operator over (s0, z = s1 + i s2, s3), acting as
    z -> iso z + conj conj(z) on the spin-2 pair: rows and cols are the
    slots p of its output and input (0, 3, or 1 for the pair at p = 1, 2)."""
    group: str
    key: object
    rows: int
    cols: int
    sign_in: int    # -1 where the block acts on conj(z)


# in the order of operators._spin_parts; iso comes before conj, which adds
# onto iso's entries
SPIN_BLOCKS = (
    *(blk for a in (0, 3) for blk in (
        SpinBlock("scalar", (a, 0), a, 0, 1), SpinBlock("scalar", (a, 3), a, 3, 1),
        SpinBlock("to_spin2", a, 1, a, 1), SpinBlock("from_spin2", a, a, 1, 1))),
    SpinBlock("iso", None, 1, 1, 1), SpinBlock("conj", None, 1, 1, -1))
_BLOCK_KEYS = frozenset((blk.group, blk.key) for blk in SPIN_BLOCKS)


def slot_pairs(blk: SpinBlock):
    """(row offset, column offset, f) of each real entry Re(f value) of a
    block, the offsets from the position of p = rows and p = cols."""
    rows = ((0, 1), (1, -1j)) if blk.rows == 1 else ((0, 1),)
    cols = ((0, 1), (1, blk.sign_in * 1j)) if blk.cols == 1 else ((0, 1),)
    return [(dr, dc, a * b) for (dr, a), (dc, b) in itertools.product(rows, cols)]


def _halves(runs, p, d):
    """(matrix slice, block slice) along one axis of a layout of runs
    (n2, n4), per nonempty half: slot p (0, 3 or 1) of each run, plus d."""
    n2, n4 = runs
    halves = []
    if n2 and p != 1:
        halves.append((slice(p // 3 + d, 2 * n2, 2), slice(0, n2)))
    if n4:
        halves.append((slice(2 * n2 + p + d, 2 * n2 + 4 * n4, 4),
                       slice(0, n4) if p == 1 else slice(n2, n2 + n4)))
    return halves


def write_spin_blocks(out, runs, blocks):
    """Write blocks {(group, key): value} into the real matrices out
    (..., n, n) of a layout of runs (n2, n4) and return out; iso and conj
    share their entries and add.  A value has the block's (rows, cols) as
    its last two axes; a key that names no block raises ValueError."""
    unknown = sorted(map(repr, blocks.keys() - _BLOCK_KEYS))
    if unknown:
        raise ValueError(f"unknown spin block keys {', '.join(unknown)}"
                         " (not a (group, key) of polar.SPIN_BLOCKS)")
    written = set()
    for blk in SPIN_BLOCKS:
        value = blocks.get((blk.group, blk.key))
        if value is not None:
            add = (blk.rows, blk.cols) in written
            written.add((blk.rows, blk.cols))
            for dr, dc, f in slot_pairs(blk):
                # Re(f value) with f in {+-1, +-i}
                part = value.imag if f.imag else value.real
                if f.real - f.imag < 0:
                    part = -part
                for (ro, vr), (co, vc) in itertools.product(_halves(runs, blk.rows, dr),
                                                            _halves(runs, blk.cols, dc)):
                    if add:
                        out[..., ro, co] += part[..., vr, vc]
                    else:
                        out[..., ro, co] = part[..., vr, vc]
    return out


def read_spin_blocks(M, runs):
    """{(group, key): value} of every block from the real matrices M
    (..., n, n) of a layout of runs (n2, n4), the inverse of
    write_spin_blocks: each part is the mean of sign * entry over its one or
    two entries, as iso and conj are orthogonal on theirs.  A part with one
    entry, of sign +1, in one (row, column) half is a view of M."""
    n2, n4 = runs
    out = {}
    for blk in SPIN_BLOCKS:
        parts = [None, None]
        for dr, dc, f in slot_pairs(blk):
            rows, cols = _halves(runs, blk.rows, dr), _halves(runs, blk.cols, dc)
            if len(rows) * len(cols) == 1:
                x = M[..., rows[0][0], cols[0][0]]
            else:
                x = np.empty(M.shape[:-2] + tuple(n4 if p == 1 else n2 + n4
                                                  for p in (blk.rows, blk.cols)))
                for (ro, vr), (co, vc) in itertools.product(rows, cols):
                    x[..., vr, vc] = M[..., ro, co]
            if f.real - f.imag < 0:
                x = -x
            imag = f.imag != 0
            parts[imag] = x if parts[imag] is None else 0.5 * (parts[imag] + x)
        if parts[1] is None:
            out[blk.group, blk.key] = parts[0]
        else:
            value = out[blk.group, blk.key] = np.empty(np.shape(parts[0]), complex)
            value.real, value.imag = parts
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
    theta-phi frames of w_i and w_o (vectorized over leading axes), written
    in closed form: each side's n.w and z^2 (see _side) are computed at that
    input's own shape and only their products are broadcast.

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

    def _side(self, w):
        """n.w and z^2 at w's own shape, z = (n x w).(e_theta + i e_phi).

        n x w is tangent at w with |n x w|^2 = 1 - (n.w)^2, so
        z^2 = (1 - (n.w)^2) e^{-2it}, t the frame angle from the ray's s-p
        frame (s along n x w) to its theta-phi frame: the twist times the
        sin^2 factor that keeps the polarizing couplings continuous where
        w || +-n.  There the cross product is exactly 0 and so is z, so no
        s-p frame and no fallback frame is needed.
        """
        F = frame_for_dir(w)
        u = np.cross(self.normal, w)
        z = (np.einsum("...i,...i->...", u, F[..., 0])
             + 1j * np.einsum("...i,...i->...", u, F[..., 1]))
        # einsum, not w @ n: matmul rounds broadcast views differently
        return np.einsum("...i,i->...", w, self.normal), z * z

    def __call__(self, w_i, w_o):
        """Mueller components under theta-phi frames at w_i and w_o."""
        w_i = np.asarray(w_i, dtype=float)
        w_o = np.asarray(w_o, dtype=float)
        ci, zi2 = self._side(w_i)
        co, zo2 = self._side(w_o)
        mirror = 2.0 * ci[..., None] * self.normal - w_i
        # lobe in the dot product, analytic on the whole sphere
        t = np.einsum("...i,...i->...", mirror, w_o)
        lobe = np.exp((t - 1.0) / self.roughness ** 2)
        if self.horizon_sharpness is not None:
            # logistic falloff keeps the response one-sided; the sharpness
            # trades physical plausibility against spectral decay
            k = self.horizon_sharpness
            lobe = lobe / (1.0 + np.exp(-ci / k)) / (1.0 + np.exp(-co / k))
        # cosine weighting kept analytic; the masked variant suppresses the
        # unphysical negative-cosine region instead of clamping it
        lobe = lobe * ci
        # Fresnel at a smooth proxy angle: cos_f = (1 + n.w_i) / 2
        rs, rp = _fresnel_rs_rp(0.5 * (1.0 + ci), self.ior)
        a = 0.5 * (rs ** 2 + rp ** 2) * lobe
        b = 0.5 * (rs ** 2 - rp ** 2) * lobe
        cc = rs * rp * lobe
        # in the s-p frames K01 = b g_i, K10 = b g_o, K11 = a g_i g_o and
        # K22 = cc g_i g_o, g = 1 - (n.w)^2; z^2 brings each side's g and twist
        # one run of four slots, each block a (1, 1) matrix
        blocks = {("scalar", (0, 0)): a, ("scalar", (3, 3)): cc,
                  ("to_spin2", 0): b * zo2, ("from_spin2", 0): b * zi2.conj(),
                  ("iso", None): 0.5 * (a + cc) * (zo2 * zi2.conj()),
                  ("conj", None): 0.5 * (a - cc) * (zo2 * zi2)}
        return write_spin_blocks(np.zeros(lobe.shape + (4, 4)), (0, 1),
                                 {k: v[..., None, None] for k, v in blocks.items()})


def synthetic_pbrdf(normal=(0.0, 0.0, 1.0), roughness=0.5, ior=1.5,
                    horizon_sharpness=None) -> SyntheticPbrdf:
    """Factory for the synthetic analytic pBRDF (a MuellerFieldFn)."""
    return SyntheticPbrdf(normal, roughness, ior, horizon_sharpness)
