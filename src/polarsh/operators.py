"""PSH coefficient matrices for Mueller-valued linear operators.

Double-sphere projection of Mueller transform fields (pBRDF / radiance
transfer; ring by ring for azimuthally symmetric fields), isotropy sparsity
checks and compact storage, shadow matrices by exact single-sphere
quadrature, the reflection operator, and analytic sphere-cap visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import psh as P
from . import shscalar as sh
from .geom import SphereGrid, gauss_legendre_grid, sph_to_dir
from .shscalar import ShCoeffs


@dataclass
class PshCoeffMatrix:
    """Dense real operator matrix over I_PSH x I_PSH in canonical order; a
    (..., n, n) array holds a stack of matrices."""
    l_max: int
    matrix: np.ndarray
    sparsity: str = "general"   # or "isotropic"

    def __post_init__(self):
        self.matrix = P._real_array("matrix", self.matrix)
        n = P.psh_size(self.l_max)
        if self.matrix.shape[-2:] != (n, n):
            raise ValueError("matrix shape does not match l_max")


def operator_apply(M: PshCoeffMatrix, f: P.PshCoeffs) -> P.PshCoeffs:
    """Coefficient-space application: matrix-vector product.  Leading axes
    of the matrix stack and of the coefficient parts broadcast: matrix i
    applies to vector i."""
    if M.l_max != f.l_max:
        raise ValueError("operator and coefficient bands differ")
    return P.PshCoeffs.from_flat(f.l_max, (M.matrix @ f.flat()[..., None])[..., 0])


# ---------------------------------------------------------------------------
# block assembly
# ---------------------------------------------------------------------------

def assemble_psh_matrix(l_max, blocks) -> np.ndarray:
    """Assemble the dense canonical matrix from spin blocks.

    blocks is a dict with keys like ('s', a, b) for scalar-to-scalar kernels
    (a, b in {0, 3}; matrix over scalar SH indices), ('c2s', a) and ('s2c', b)
    for the complex mixed blocks, and 'iso'/'conj' for the spin 2-to-2 pair.
    """
    lay = P.psh_layout(l_max)
    pos1, pos_scalar = lay.pos1, {0: lay.pos0, 3: lay.pos3}
    n = P.psh_size(l_max)
    out = np.zeros((n, n))
    for (a, b), mat in blocks.get("scalar", {}).items():
        out[np.ix_(pos_scalar[a], pos_scalar[b])] = mat
    # spin 0-to-2: complex c over (spin2_out, scalar_in); rows p_o = 1, 2
    for b, c in blocks.get("to_spin2", {}).items():
        out[np.ix_(pos1, pos_scalar[b])] = c.real
        out[np.ix_(pos1 + 1, pos_scalar[b])] = c.imag
    # spin 2-to-0: complex c over (scalar_out, spin2_in); cols p_i = 1, 2
    for a, c in blocks.get("from_spin2", {}).items():
        out[np.ix_(pos_scalar[a], pos1)] = c.real
        out[np.ix_(pos_scalar[a], pos1 + 1)] = -c.imag
    # spin 2-to-2 from complex pair
    iso = blocks.get("iso")
    conj = blocks.get("conj")
    if iso is not None:
        out[np.ix_(pos1, pos1)] += iso.real
        out[np.ix_(pos1, pos1 + 1)] += -iso.imag
        out[np.ix_(pos1 + 1, pos1)] += iso.imag
        out[np.ix_(pos1 + 1, pos1 + 1)] += iso.real
    if conj is not None:
        out[np.ix_(pos1, pos1)] += conj.real
        out[np.ix_(pos1, pos1 + 1)] += conj.imag
        out[np.ix_(pos1 + 1, pos1)] += conj.imag
        out[np.ix_(pos1 + 1, pos1 + 1)] += -conj.real
    return out


def split_psh_matrix(M: PshCoeffMatrix):
    """Inverse of assemble_psh_matrix: extract the spin blocks."""
    lay = P.psh_layout(M.l_max)
    pos1, pos_scalar = lay.pos1, {0: lay.pos0, 3: lay.pos3}
    blocks = {"scalar": {}, "to_spin2": {}, "from_spin2": {}}
    for a in (0, 3):
        for b in (0, 3):
            blocks["scalar"][(a, b)] = M.matrix[np.ix_(pos_scalar[a], pos_scalar[b])]
        blocks["from_spin2"][a] = (M.matrix[np.ix_(pos_scalar[a], pos1)]
                                   - 1j * M.matrix[np.ix_(pos_scalar[a], pos1 + 1)])
        blocks["to_spin2"][a] = (M.matrix[np.ix_(pos1, pos_scalar[a])]
                                 + 1j * M.matrix[np.ix_(pos1 + 1, pos_scalar[a])])
    A = M.matrix[np.ix_(pos1, pos1)]
    B = M.matrix[np.ix_(pos1, pos1 + 1)]
    C = M.matrix[np.ix_(pos1 + 1, pos1)]
    D = M.matrix[np.ix_(pos1 + 1, pos1 + 1)]
    blocks["iso"] = 0.5 * (A + D) + 0.5j * (C - B)
    blocks["conj"] = 0.5 * (A - D) + 0.5j * (C + B)
    return blocks


# ---------------------------------------------------------------------------
# double-sphere projection of a Mueller transform field
# ---------------------------------------------------------------------------

_CHUNK = 48   # output directions per field call on the dense path


def _spin_parts(K):
    """The complex fields behind each block of the projection, from Mueller
    components K (..., 4, 4).

    Yields (group, key, field, s_out, s_in, sign_in): the block is the double
    integral of conj(Y^{s_out}_out) field Y^{s_in}_in, with conj(Y_in) where
    sign_in = -1.  The spin 2-to-2 part needs only the iso/conj pair (two
    integrals instead of four) and each mixed block one complex integral.
    """
    for a in (0, 3):
        for b in (0, 3):
            yield "scalar", (a, b), K[..., a, b], 0, 0, 1
        yield "to_spin2", a, K[..., 1, a] + 1j * K[..., 2, a], 2, 0, 1
        yield "from_spin2", a, K[..., a, 1] - 1j * K[..., a, 2], 0, 2, 1
    blk = K[..., 1:3, 1:3]
    yield "iso", None, (0.5 * (blk[..., 0, 0] + blk[..., 1, 1])
                        + 0.5j * (blk[..., 1, 0] - blk[..., 0, 1])), 2, 2, 1
    yield "conj", None, (0.5 * (blk[..., 0, 0] - blk[..., 1, 1])
                         + 0.5j * (blk[..., 1, 0] + blk[..., 0, 1])), 2, 2, -1


def _nest(flat):
    """{(group, key): block} -> the blocks dict of assemble_psh_matrix."""
    blocks = {}
    for (group, key), value in flat.items():
        if key is None:
            blocks[group] = value
        else:
            blocks.setdefault(group, {})[key] = value
    return blocks


def _dense_blocks(mueller_field, l_max, grid):
    """Every (w_i, w_o) pair of the double grid, _CHUNK output directions per
    field call; scalar sides in the real basis."""
    th, ph = (a.ravel() for a in grid.angles())
    w = grid.weights().ravel()
    dirs = grid.dirs().reshape(-1, 3)
    b2 = P.s2sh_basis(l_max, th, ph) * w[:, None]
    side_in = {(0, 1): sh.sh_basis_real(l_max, th, ph) * w[:, None],
               (2, 1): b2, (2, -1): b2.conj()}
    side_out = {0: side_in[(0, 1)], 2: side_in[(2, -1)]}
    acc = {}
    for start in range(0, dirs.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        # K[i, o] = matrix for (w_i = dirs[i], w_o = dirs[sl][o])
        K = np.asarray(mueller_field(dirs[:, None, :], dirs[None, sl, :]))
        for group, key, g, s_o, s_i, sign in _spin_parts(K):
            part = side_out[s_o][sl].T @ (g.T @ side_in[(s_i, sign)])
            acc[group, key] = acc.get((group, key), 0.0) + part
    return acc


def _ring_blocks(mueller_field, l_max, grid):
    """The same quadrature for a field that depends on phi_o - phi_i only.

    K is sampled once, at w_o on phi = 0 of each ring against every grid w_i:
    K0[r_o, r_i, k].  The rings are uniform in phi, so the sum over phi_o of
    the double grid leaves n_phi where mu = m_o (mod n_phi), and zero
    elsewhere, times F_mu[r_o, r_i] = sum_k K0[r_o, r_i, k] e^{i mu phi_k}
    at mu = +-m_i, which meets the weighted ring tables on both sides.
    Complex-basis scalar sides go to the real basis by complex_to_real_matrix.
    """
    n = grid.n_phi
    w_o = sph_to_dir(grid.theta_nodes, 0.0)
    K0 = np.asarray(mueller_field(grid.dirs()[None], w_o[:, None, None]))
    m0 = sh.sh_lm_arrays(l_max)[1]
    m = {0: m0, 2: m0[4:]}                           # spin-2 columns start at l = 2
    wT = {s: grid.theta_weights[:, None] * sh.ring_table(l_max, s, grid)[:, s * s:]
          for s in (0, 2)}
    U = sh.complex_to_real_matrix(l_max)
    flat = {}
    for group, key, g, s_o, s_i, sign in _spin_parts(K0):
        mu = sign * m[s_i]
        F = np.fft.ifft(g, axis=-1)                 # F_mu / n_phi at mu mod n_phi
        blk = (n * n) * (wT[s_o].T @ np.einsum("oib,ib->ob", F[..., mu % n], wT[s_i]))
        blk[(mu[None, :] - m[s_o][:, None]) % n != 0] = 0.0
        if s_o == 0:
            blk = U.conj() @ blk
        if s_i == 0:
            blk = blk @ U.T
        flat[group, key] = blk.real if s_o == s_i == 0 else blk
    return flat


def operator_project(mueller_field, l_max: int, grid: SphereGrid) -> PshCoeffMatrix:
    """Project a MuellerFieldFn onto PSH: P = <Y_out, P_F[Y_in]>.

    The integral is the grid's quadrature over every (w_i, w_o) pair of the
    double sphere.  A field whose `azimuthal` attribute is true declares
    that its components in theta-phi frames depend on phi_i and phi_o only
    through phi_o - phi_i (SyntheticPbrdf with its normal along +-z); it is
    sampled once per output ring, and an FFT over phi_i gives the same
    double sum rearranged, exact on every grid, aliased ones included.  Any
    other field is sampled at every pair.
    """
    if grid.band < l_max:
        raise ValueError(f"grid band {grid.band} insufficient for l_max {l_max}")
    project = _ring_blocks if getattr(mueller_field, "azimuthal", False) else _dense_blocks
    blocks = _nest(project(mueller_field, l_max, grid))
    return PshCoeffMatrix(l_max, assemble_psh_matrix(l_max, blocks))


# ---------------------------------------------------------------------------
# isotropy sparsity
# ---------------------------------------------------------------------------

@dataclass
class IsotropicCompact:
    """|m_i| = |m_o| entries of an isotropic operator plus violation stats."""
    l_max: int
    entries: dict                      # (l_o, m_o, l_i, m_i) -> 4x4-ish block
    max_m_violation: float             # entries with |m_i| != |m_o|
    max_pair_violation: float          # iso/conj m-pairing constraints

    @property
    def stored_count(self):
        return sum(v.size for v in self.entries.values())


def isotropic_compact(M: PshCoeffMatrix) -> IsotropicCompact:
    """Keep only |m_i| = |m_o| entries; report max violations.

    Each (l, m) owns the contiguous run of rows pos0..pos3 of the layout.
    The pairing violation is the largest iso part with m_i != m_o or conj
    part with m_i != -m_o inside the spin 2-to-2 blocks.
    """
    lay = P.psh_layout(M.l_max)
    am = np.abs(lay.lmp[:, 1])
    viol_m = float(np.max(np.abs(M.matrix[am[:, None] != am[None, :]]), initial=0.0))
    lm = list(zip(lay.l.tolist(), lay.m.tolist()))
    runs = [slice(a, b + 1) for a, b in zip(lay.pos0.tolist(), lay.pos3.tolist())]
    same = np.abs(lay.m)[:, None] == np.abs(lay.m)[None, :]
    entries = {lm[i] + lm[j]: M.matrix[runs[i], runs[j]].copy()
               for i, j in zip(*np.nonzero(same))}
    blocks = split_psh_matrix(M)
    mo, mi, same = lay.m[4:, None], lay.m[None, 4:], same[4:, 4:]
    viol_pair = max(np.max(np.abs(blocks["iso"][same & (mi != mo)]), initial=0.0),
                    np.max(np.abs(blocks["conj"][same & (mi != -mo)]), initial=0.0))
    return IsotropicCompact(M.l_max, entries, viol_m, float(viol_pair))


def isotropic_storage_count(l_max: int) -> int:
    """Closed-form count of |m_i| = |m_o| real entries: n_p(l_o) n_p(l_i) per
    (m_o, m_i) pair, one pair at m = 0 and four for each 0 < m <= min(l_o, l_i)."""
    l = np.arange(l_max + 1)
    n_p = np.where(l < 2, 2, 4)
    return int(np.sum(np.outer(n_p, n_p) * (1 + 4 * np.minimum.outer(l, l))))


# ---------------------------------------------------------------------------
# visibility and shadow expansion
# ---------------------------------------------------------------------------

def visibility_from_spheres(occluders, dirs):
    """Binary visibility against analytic sphere caps.

    occluders: sequence of (center_direction, angular_radius); a direction is
    occluded when its angle to a cap center is below that cap's radius.
    """
    dirs = np.asarray(dirs, dtype=float)
    vis = np.ones(dirs.shape[:-1])
    for center, radius in occluders:
        c = np.asarray(center, dtype=float)
        c = c / np.linalg.norm(c)
        cosang = dirs @ c
        vis = np.where(cosang > math.cos(radius), 0.0, vis)
    return vis


def visibility_project(vis_fn, l_max: int, grid: SphereGrid) -> ShCoeffs:
    """Real-SH coefficients of a direction -> {0,1} visibility mask."""
    return sh.sh_project(np.asarray(vis_fn(grid.dirs()), dtype=float), grid, l_max, "real")


@lru_cache(maxsize=4)
def _product_bases(l_max: int, band: int):
    """Read-only real and spin-2 bases of band l_max at the points of
    gauss_legendre_grid(band), cached as the ring tables are."""
    th, ph = (a.ravel() for a in gauss_legendre_grid(band).angles())
    bases = sh.sh_basis_real(l_max, th, ph), P.s2sh_basis(l_max, th, ph)
    for b in bases:
        b.setflags(write=False)
    return bases


def _pointwise_product(l_max, br, b2, wv):
    """The operator of multiplication by v from the weighted Grams of the
    bases at the quadrature points: br^T diag(w v) br on the s0 and s3
    blocks, b2^H diag(w v) b2 on the spin 2-to-2 pair (iso only); the 0<->2
    and conj blocks vanish identically."""
    Sr = br.T @ (wv[:, None] * br)
    C2 = b2.conj().T @ (wv[:, None] * b2)
    blocks = {"scalar": {(0, 0): Sr, (3, 3): Sr}, "iso": C2}
    return PshCoeffMatrix(l_max, assemble_psh_matrix(l_max, blocks))


def shadow_expand(v: ShCoeffs, l_max: int) -> PshCoeffMatrix:
    """Expand visibility SH coefficients into the pointwise-product operator.

    conj(Y_out) v Y_in has degree at most 2 l_max + L_v (the same for the
    spin-2 pair), and a Gauss-Legendre grid of band B integrates degree
    2B + 1 exactly, so on B = l_max + L_v // 2 the quadrature equals the
    Gaunt (triple-product) result; one band less does not.
    """
    if v.kind != "real":
        raise ValueError("expected real-SH visibility coefficients")
    grid = gauss_legendre_grid(l_max + v.l_max // 2)
    vals = sh.ring_synthesis(sh.r2c_values(v.values), grid, 0).real
    return _pointwise_product(l_max, *_product_bases(l_max, grid.band),
                              grid.weights().ravel() * vals.ravel())


def shadow_matrix_direct(vis_fn, l_max: int, grid: SphereGrid) -> PshCoeffMatrix:
    """Direct single-sphere quadrature of the visibility operator (oracle)."""
    th, ph = (a.ravel() for a in grid.angles())
    vals = np.asarray(vis_fn(grid.dirs()), dtype=float).ravel()
    return _pointwise_product(l_max, sh.sh_basis_real(l_max, th, ph),
                              P.s2sh_basis(l_max, th, ph), grid.weights().ravel() * vals)


# ---------------------------------------------------------------------------
# reflection operator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def reflection_permutation_psh(l_max: int):
    """z-flip R as read-only (rows, signs) with R @ X = signs[:, None] * X[rows].

    Scalar parts: diagonal (-1)^(l+m).  Spin-2: (l, m) -> (l, -m), sign (-1)^l on
    p = 1 and -(-1)^l on p = 2 (the flip conjugates the complex pair)."""
    l, m, p = P.psh_layout(l_max).lmp.T
    spin = (p == 1) | (p == 2)
    # (l, -m, p) sits 2m runs of four positions before (l, m, p)
    rows = np.arange(l.size) - np.where(spin, 8 * m, 0)
    parity = 1.0 - 2.0 * (l % 2)
    signs = parity * np.where(spin, 3.0 - 2.0 * p, 1.0 - 2.0 * (m % 2))
    rows.setflags(write=False)
    signs.setflags(write=False)
    return rows, signs


def reflection_matrix_psh(l_max: int) -> PshCoeffMatrix:
    """Dense coefficient matrix of the z-flip (see reflection_permutation_psh)."""
    rows, signs = reflection_permutation_psh(l_max)
    out = np.zeros((rows.size, rows.size))
    out[np.arange(rows.size), rows] = signs
    return PshCoeffMatrix(l_max, out)
