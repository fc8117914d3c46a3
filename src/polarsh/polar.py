"""Stokes vectors, Mueller matrices, frame conversions, Stokes-field grids,
and the synthetic analytic pBRDF.

A Stokes component vector is numeric and only meaningful together with a
measurement frame whose z axis is the propagation direction.  Its linear
pair s1 + i s2 is spin 2: turning the frame by t (to = frm @ Rz(t)) turns
m = x + iy by e^{-it} and the pair by e^{-2it}, while s0 and s3 stay (Thorne
1980, Rev. Mod. Phys. 52, 299).  One product reads every twist and line
polarization, spin_dot(v, frames) = v . m.  frame_twist(frm, to) is the
twist w = z^2 / |z|^2 = e^{-2it}, z = spin_dot(x_frm, to) = e^{-it}, and
refuses frames that are not orthonormal or do not share their z axis;
stokes_turn multiplies the pair by w (behind stokes_reframe, mueller_reframe
and the component-bilinear resample plan), as pconv_angular does.  A line
across a tangent vector u at w reads spin_dot(u, F)^2 in the frame F at w:
the pBRDF's s-p to theta-phi twist (u = n x w) and pipeline's environment
maps.  S2L2 gets its twist between any tangent frames a, b as
(conj(m_a) . m_b)^2 / 4 and the perturbation protocol's baseline as
(conj(m_z) / |m_z|)^2 (see the s2l2 module).
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

def spin_dot(v, frames):
    """v . x + i v . y for vectors v (..., 3) and frames (..., 3, 3) whose
    columns are (x, y, z), broadcast together."""
    return (np.einsum("...i,...i->...", v, frames[..., :, 0])
            + 1j * np.einsum("...i,...i->...", v, frames[..., :, 1]))


def frame_twist(frm, to):
    """The twist w = z^2 / |z|^2 = e^{-2it} from frames frm to to = frm @ Rz(t)
    (..., 3, 3), z = spin_dot(x_frm, to) = e^{-it}.  A ValueError names the
    first pair whose |z|^2 is not 1, or whose spin_dot(y_frm, to) is not i z,
    to 1e-6 (a zero, NaN, scaled or skew frame)."""
    frm = np.asarray(frm, dtype=float)
    to = np.asarray(to, dtype=float)
    if np.max(np.abs(frm[..., :, 2] - to[..., :, 2])) > 1e-9:
        raise ValueError("frames have different propagation directions")
    z = spin_dot(frm[..., :, 0], to)
    size = z.real * z.real + z.imag * z.imag
    skew = np.abs(spin_dot(frm[..., :, 1], to) - 1j * z)
    bad = ~((np.abs(size - 1.0) <= 1e-6) & (skew <= 1e-6))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"frame pair {tuple(map(int, i))} has |z|^2 = {float(size[i])!r}, not 1, "
                         f"or |y . to - i z| = {float(skew[i])!r}, not 0: "
                         "the frames must be orthonormal and finite")
    return z * z / size


def stokes_reframe(s, frm, to):
    """Stokes components (..., 4) measured in `frm`, re-measured in `to`.

    The twist's shape broadcasts against s.shape[:-1].
    """
    return stokes_turn(s, frame_twist(frm, to))


def stokes_turn(s, w):
    """Stokes components (..., 4) with s1 + i s2 turned by a complex twist w
    from frame_twist, w (s1 + i s2); w broadcasts against s.shape[:-1]."""
    s = np.asarray(s, dtype=float)
    z = (s[..., 1] + 1j * s[..., 2]) * w
    out = np.empty(z.shape + (4,))
    out[...] = s
    out[..., 1], out[..., 2] = z.real, z.imag
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
    """Clip s0 at 0 and scale (s1, s2, s3) uniformly so that s0 >= |(s1, s2, s3)|.

    Preserves the polarization direction (AoLP); the zero-intensity case,
    negative s0 included, maps to a fully unpolarized zero vector.
    """
    s = np.asarray(s, dtype=float)
    pol = np.linalg.norm(s[..., 1:], axis=-1)
    s0 = np.clip(s[..., 0], 0.0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(pol > s0, np.where(pol > 0.0, s0 / np.where(pol > 0, pol, 1.0), 0.0), 1.0)
    out = np.empty(s.shape)
    out[..., 0] = s0
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
        # written so that NaN fails each test
        if not 0.0 < roughness < np.inf:
            raise ValueError(f"roughness must be finite and > 0, got {roughness!r}")
        if not 1.0 < ior < np.inf:
            raise ValueError(f"ior must be finite and > 1, got {ior!r}")
        if horizon_sharpness is not None and not 0.0 < horizon_sharpness < np.inf:
            raise ValueError("horizon_sharpness must be None or finite and > 0, "
                             f"got {horizon_sharpness!r}")
        normal = np.asarray(normal, dtype=float)
        if normal.shape != (3,) or not (np.isfinite(normal).all() and normal.any()):
            raise ValueError(f"normal must be a finite nonzero 3-vector, got {normal.tolist()}")
        self.normal = normalize(normal)
        self.roughness = float(roughness)
        self.ior = float(ior)
        # None disables the lower-hemisphere falloff (fully smooth variant)
        self.horizon_sharpness = horizon_sharpness

    @property
    def azimuthal(self):
        """True exactly when the normal is along +z or -z."""
        return bool(self.normal[0] == 0.0 and self.normal[1] == 0.0)

    def _side(self, w):
        """n.w and z^2 at w's own shape, z = spin_dot(n x w, frame_for_dir(w)).

        n x w is tangent at w with |n x w|^2 = 1 - (n.w)^2, so
        z^2 = (1 - (n.w)^2) e^{-2it}, e^{-2it} the frame_twist from the ray's
        s-p frame (s along n x w) to its theta-phi frame: the twist times the
        sin^2 factor that keeps the polarizing couplings continuous where
        w || +-n.  There the cross product is exactly 0 and so is z, so no
        s-p frame and no fallback frame is needed.
        """
        z = spin_dot(np.cross(self.normal, w), frame_for_dir(w))
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
