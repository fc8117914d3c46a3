"""Polarized spherical harmonics.

Spin-2 spherical harmonics, the combined PSH basis over real coefficients,
projection/reconstruction of Stokes fields, rotation blocks, and the
spin-0 x spin-2 triple product.

Both parts of the basis follow one identity,
    sY_lm(theta, phi) = sqrt((2l+1)/(4 pi)) d^l_{m,-s}(theta) e^{i m phi},
with s = 0 for s0/s3 (real SH) and s = 2 for the linear pair; the theta
factor comes from the one generator shscalar.spin_theta_table and is regular
at the poles.  The basis matrix s2sh_basis calls the generator;
psh_reconstruct at scattered points sums one Fourier-in-theta table per spin
(shscalar._fourier_table, from the cached d(pi/2) factors); grid transforms
(psh_project, psh_reconstruct_field) are ring transforms.  s0/s3 change basis
only by c2r/r2c_values; rotation works on s0 + i s3 in the complex basis.
The scalar-SH formula s2sh_eval_direct is a cross-check away from the poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import shscalar as sh
from .geom import SphereGrid, frame_theta_phi, sph_to_dir, dir_to_sph
from .polar import StokesField, stokes_reframe, write_spin_blocks
from .shscalar import FOUR_PI, sh_index, sh_size

# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

def spin2_size(l_max: int) -> int:
    """Number of (l, m) pairs with 2 <= l <= l_max."""
    return sh_size(l_max) - 4 if l_max >= 2 else 0


def spin2_index(l: int, m: int) -> int:
    if l < 2 or abs(m) > l:
        raise ValueError(f"invalid spin-2 index (l={l}, m={m})")
    return sh_index(l, m) - 4


def psh_size(l_max: int) -> int:
    """Length of a PSH coefficient vector (p in {1,2} absent below l=2)."""
    return 2 * sh_size(l_max) + 2 * spin2_size(l_max)


class PshLayout(NamedTuple):
    """Read-only positions of the canonical I_PSH order (see psh_layout).

    l and m run over the scalar index set in sh_index order; the spin-2
    index set is their tail [4:].  pos0/pos3 give the positions of p = 0, 3
    for each scalar (l, m), pos1 that of p = 1 for each spin-2 (l, m), with
    p = 2 at pos1 + 1; lmp lists (l, m, p) by position.
    """
    l: np.ndarray
    m: np.ndarray
    pos0: np.ndarray
    pos3: np.ndarray
    pos1: np.ndarray
    lmp: np.ndarray


@lru_cache(maxsize=None)
def psh_layout(l_max: int) -> PshLayout:
    """The one place the (l, m, p) order is decided, in closed form:
    pos(l, m, p) = psh_size(l - 1) + (m + l) n_p(l) + rank(p), with n_p = 2
    below l = 2 (p = 0, 3) and 4 from l = 2 (p = 0, 1, 2, 3)."""
    l, m = sh.sh_lm_arrays(l_max)
    n_p = np.where(l < 2, 2, 4)
    # psh_size(l - 1) = 2 l^2 + 2 max(l^2 - 4, 0)
    pos0 = 2 * l * l + 2 * np.maximum(l * l - 4, 0) + (m + l) * n_p
    pos3 = pos0 + n_p - 1
    pos1 = pos0[4:] + 1
    lmp = np.empty((psh_size(l_max), 3), dtype=int)
    for pos, p, sl in ((pos0, 0, slice(None)), (pos3, 3, slice(None)),
                       (pos1, 1, slice(4, None)), (pos1 + 1, 2, slice(4, None))):
        lmp[pos] = np.stack([l[sl], m[sl], np.full(pos.size, p)], axis=-1)
    for a in (l, m, pos0, pos3, pos1, lmp):
        a.setflags(write=False)
    return PshLayout(l, m, pos0, pos3, pos1, lmp)


def psh_index_list(l_max: int):
    """Canonical I_PSH ordering: (l, m, p) lexicographic."""
    return list(map(tuple, psh_layout(l_max).lmp.tolist()))


def psh_index(l: int, m: int, p: int, l_max: int) -> int:
    """Flat canonical index of (l, m, p); the scalar oracle of psh_layout."""
    if l > l_max or abs(m) > l or p not in (0, 1, 2, 3):
        raise ValueError(f"invalid PSH index ({l}, {m}, {p})")
    if p in (1, 2) and l < 2:
        raise ValueError("p in {1,2} requires l >= 2")
    per_m = 2 if l < 2 else 4
    base = psh_size(l - 1) if l > 0 else 0
    off = (m + l) * per_m
    order = {0: 0, 3: 1} if l < 2 else {0: 0, 1: 1, 2: 2, 3: 3}
    return base + off + order[p]


def _real_array(name, a):
    """a as a float array; a complex array raises ValueError rather than
    losing its imaginary part."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real, got a complex array")
    return a.astype(float, copy=False)


@dataclass
class PshCoeffs:
    """Real PSH coefficient vector, stored as three per-(l,m) parts.

    s0 and s3 are real-SH coefficient arrays of length (l_max+1)^2; spin2 is
    the complex array f_{lm1} + i f_{lm2} over the spin-2 index set.  Parts
    with the same leading axes hold a stack of vectors.
    """
    l_max: int
    s0: np.ndarray
    spin2: np.ndarray
    s3: np.ndarray

    def __post_init__(self):
        sh._check_l_max(self.l_max)
        self.s0 = _real_array("s0", self.s0)
        self.s3 = _real_array("s3", self.s3)
        self.spin2 = np.asarray(self.spin2, dtype=complex)
        if self.s0.shape[-1] != sh_size(self.l_max) or self.spin2.shape[-1] != spin2_size(self.l_max):
            raise ValueError("coefficient part lengths do not match l_max")

    @classmethod
    def zeros(cls, l_max):
        return cls(l_max, np.zeros(sh_size(l_max)), np.zeros(spin2_size(l_max), dtype=complex),
                   np.zeros(sh_size(l_max)))

    @classmethod
    def from_flat(cls, l_max, flat):
        flat = np.asarray(flat, dtype=float)
        if flat.shape[-1] != psh_size(l_max):
            raise ValueError("flat vector length does not match l_max")
        lay = psh_layout(l_max)
        return cls(l_max, flat[..., lay.pos0], flat[..., lay.pos1] + 1j * flat[..., lay.pos1 + 1],
                   flat[..., lay.pos3])

    def flat(self):
        lay = psh_layout(self.l_max)
        out = np.empty(self.s0.shape[:-1] + (psh_size(self.l_max),))
        out[..., lay.pos0] = self.s0
        out[..., lay.pos3] = self.s3
        out[..., lay.pos1] = self.spin2.real
        out[..., lay.pos1 + 1] = self.spin2.imag
        return out

    def copy(self):
        return PshCoeffs(self.l_max, self.s0.copy(), self.spin2.copy(), self.s3.copy())

    def norm(self):
        return math.sqrt(float(np.sum(self.s0 ** 2) + np.sum(np.abs(self.spin2) ** 2)
                               + np.sum(self.s3 ** 2)))

    def truncated(self, l_new):
        if l_new > self.l_max:
            raise ValueError("cannot extend band by truncation")
        return PshCoeffs(l_new, self.s0[:sh_size(l_new)].copy(),
                         self.spin2[:spin2_size(l_new)].copy(),
                         self.s3[:sh_size(l_new)].copy())


# ---------------------------------------------------------------------------
# spin-2 spherical harmonics
# ---------------------------------------------------------------------------

def s2sh_basis(l_max: int, theta, phi) -> np.ndarray:
    """Matrix of 2Y_lm values over the spin-2 index set, shape (N, n_spin2):
    l = 2..l_max in sh_index order from (l, m) = (2, -2)."""
    return sh._basis(l_max, 2, theta, phi, sh._cis)


def s2sh_eval(l: int, m: int, theta, phi):
    """Single spin-2 SH value(s); exact at the poles."""
    if l < 2 or abs(m) > l:
        raise ValueError("spin-2 SH need l >= 2 and |m| <= l")
    v = s2sh_basis(l, theta, phi)[:, spin2_index(l, m)]
    return v[0] if v.size == 1 else v


def s2sh_eval_direct(l: int, m: int, theta, phi):
    """Spin-2 SH via the scalar-SH combination; singular near the poles.

    Cross-check path only; raises close to the poles where the 1/sin^2 terms
    blow up (use s2sh_eval there).
    """
    if l < 2 or abs(m) > l:
        raise ValueError("spin-2 SH need l >= 2 and |m| <= l")
    theta = np.asarray(theta, dtype=float)
    if np.any(np.sin(theta) <= 1e-6):
        raise ValueError("formula is singular at the poles; use s2sh_eval")
    st = np.sin(theta)
    ct = np.cos(theta)
    cot = ct / st
    alpha = ((2.0 * m * m - l * (l + 1)) / st ** 2
             - 2.0 * m * (l - 1) * cot / st + l * (l - 1) * cot ** 2)
    beta = 2.0 * math.sqrt((2 * l + 1) / (2 * l - 1.0) * (l * l - m * m)) * (m / st ** 2 + cot / st)
    pref = math.sqrt(math.factorial(l - 2) / math.factorial(l + 2))
    ylm = sh.sh_complex(l, m, theta, phi)
    ylm1 = sh.sh_complex(l - 1, m, theta, phi) if abs(m) <= l - 1 else 0.0 * np.asarray(ylm)
    return pref * (alpha * ylm + beta * ylm1)


# ---------------------------------------------------------------------------
# PSH basis evaluation / projection / reconstruction
# ---------------------------------------------------------------------------

def psh_basis_eval(l: int, m: int, p: int, theta, phi) -> np.ndarray:
    """Stokes components of one PSH basis function under the theta-phi frame."""
    shape = np.broadcast(np.asarray(theta), np.asarray(phi)).shape
    out = np.zeros(shape + (4,))
    if p in (0, 3):
        out[..., p] = np.reshape(sh.sh_real(l, m, theta, phi), shape)
    else:
        y = np.reshape(1j ** (p - 1) * s2sh_eval(l, m, theta, phi), shape)
        out[..., 1], out[..., 2] = y.real, y.imag
    return out


def psh_project(field: StokesField, l_max: int) -> PshCoeffs:
    """Quadrature projection f_lmp = <Y_lmp, f> of a Stokes field (ring transforms)."""
    sh._check_l_max(l_max)
    if field.grid.band < l_max:
        raise ValueError(f"grid band {field.grid.band} insufficient for l_max {l_max}")
    scalar = np.moveaxis(field.data[..., [0, 3]], -1, 0)
    s0, s3 = sh.c2r_values(sh.ring_analysis(scalar, field.grid, l_max, 0)).real
    spin2 = sh.ring_analysis(field.spin2_complex(), field.grid, l_max, 2)[4:]
    return PshCoeffs(l_max, s0, spin2, s3)


def psh_reconstruct(coeffs: PshCoeffs, theta, phi) -> np.ndarray:
    """Evaluate the Stokes field (components under theta-phi frames) at
    scattered points, from one Fourier-in-theta table per spin
    (shscalar._fourier_table): s0 + i s3 from the complex-basis scalar
    coefficients and s1 + i s2 from the spin-2 ones."""
    theta, phi = np.broadcast_arrays(theta, phi)
    shape = theta.shape
    theta, phi = (np.ravel(a).astype(float) for a in (theta, phi))
    scalar = sh.r2c_values(coeffs.s0) + 1j * sh.r2c_values(coeffs.s3)
    spin2 = np.pad(coeffs.spin2, (sh_size(coeffs.l_max) - coeffs.spin2.size, 0))   # from l = 0
    f0, f2 = sh._fourier_eval(np.stack([sh._fourier_table(scalar, 0), sh._fourier_table(spin2, 2)]),
                              theta, phi).T
    return np.stack([f0.real, f2.real, f2.imag, f0.imag], axis=-1).reshape(shape + (4,))


def psh_reconstruct_field(coeffs: PshCoeffs, grid: SphereGrid) -> StokesField:
    """The Stokes field on a quadrature grid, by ring transforms."""
    s0, s3 = sh.ring_synthesis(sh.r2c_values(np.stack([coeffs.s0, coeffs.s3])), grid, 0).real
    spin2 = np.pad(coeffs.spin2, (sh_size(coeffs.l_max) - coeffs.spin2.size, 0))   # from l = 0
    lin = sh.ring_synthesis(spin2, grid, 2)
    return StokesField(np.stack([s0, lin.real, lin.imag, s3], axis=-1), grid)


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------

def psh_rotation_block(l: int, R, dc=None) -> np.ndarray:
    """Dense rotation block over (m, p) for one l, canonical ordering.

    The real Wigner block D^R on s0 and s3 and the complex D^C as the iso
    block of the spin-2 pair; a batch of complex Wigner blocks
    dc (N, 2l+1, 2l+1) gives a leading N axis.
    """
    if dc is None:
        dc = sh.wigner_d_complex(l, R)
    dr = sh.wigner_d_real_from_complex(dc)
    # below l = 2 the runs hold no spin-2 slot, so the iso block writes nothing
    return write_spin_blocks(np.zeros(dc.shape[:-2] + (psh_size(l) - psh_size(l - 1),) * 2),
                             (2 * l + 1, 0) if l < 2 else (0, 2 * l + 1),
                             {("scalar", (0, 0)): dr, ("scalar", (3, 3)): dr, ("iso", None): dc})


def psh_rotation_matrix(l_max: int, R) -> np.ndarray:
    """Block-diagonal rotation matrix over the full canonical PSH index."""
    out = np.zeros((psh_size(l_max),) * 2)
    for l, dc in enumerate(sh.wigner_d_stack(l_max, R)):
        sl = slice(psh_size(l - 1), psh_size(l))
        out[sl, sl] = psh_rotation_block(l, R, dc=dc)
    return out


def psh_rotate_coeffs(coeffs: PshCoeffs, R) -> PshCoeffs:
    """Per-l block application: s0 + i s3 in the complex basis and the
    spin-2 pair (zero below l = 2) turn as two columns by one complex D^l
    per band (shscalar.rotate_bands), with no real Wigner block.  A batch of
    R (N, 3, 3) gives the parts a leading N axis, the coefficients
    broadcasting against it."""
    x = np.zeros(coeffs.s0.shape[:-1] + (sh_size(coeffs.l_max), 2), dtype=complex)
    x[..., 0] = sh.r2c_values(coeffs.s0 + 1j * coeffs.s3)
    x[..., 4:, 1] = coeffs.spin2
    out = sh.rotate_bands(x, R)
    scalar = sh.c2r_values(out[..., 0])
    return PshCoeffs(coeffs.l_max, scalar.real, out[..., 4:, 1], scalar.imag)


# ---------------------------------------------------------------------------
# angular-domain rotation of Stokes fields (oracle machinery)
# ---------------------------------------------------------------------------

def rotate_field_components(eval_fn, R, theta, phi):
    """Sample the rotated field R_F[f] as components under theta-phi frames.

    eval_fn(theta, phi) -> (..., 4) must return components of f under
    frame_theta_phi(theta, phi).  (R_F f)(w) = R_S f(R^-1 w).
    """
    R = np.asarray(R, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    w = sph_to_dir(theta, phi)
    w_src = w @ R  # row-vector form of R^-1 w
    th_s, ph_s = dir_to_sph(w_src)
    comps = np.asarray(eval_fn(th_s, ph_s), dtype=float)
    # frame carried by the rotation: G = R F_src, z axis = w
    G = np.einsum("ij,...jk->...ik", R, frame_theta_phi(th_s, ph_s))
    return stokes_reframe(comps, G, frame_theta_phi(theta, phi))


def reflect_field_components(eval_fn, theta, phi):
    """Sample the z-flip reflected field: (s0,s1,s2,s3)(pi-theta, phi) with s2 negated."""
    comps = np.asarray(eval_fn(np.pi - np.asarray(theta, dtype=float), phi), dtype=float)
    out = comps.copy()
    out[..., 2] = -comps[..., 2]
    return out


# ---------------------------------------------------------------------------
# triple product
# ---------------------------------------------------------------------------

def triple_product_022(l1, m1, l2, m2, l3, m3) -> float:
    """Integral of 2Y*_{l1 m1} Y_{l2 m2} 2Y_{l3 m3} over the sphere.

    The spin row of the second 3-j symbol is (2, 0, -2); writing it with the
    opposite signs flips odd l1+l2+l3 terms, which the quadrature oracle
    rejects.
    """
    if l1 < 2 or l3 < 2:
        raise ValueError("outer indices must be spin-2 (l >= 2)")
    return ((-1.0) ** m1
            * math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / FOUR_PI)
            * sh.wigner3j(l1, l2, l3, -m1, m2, m3)
            * sh.wigner3j(l1, l2, l3, 2, 0, -2))
