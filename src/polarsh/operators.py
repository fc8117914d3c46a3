"""PSH coefficient matrices for Mueller-valued linear operators.

Double-sphere projection of Mueller transform fields (pBRDF / radiance
transfer), isotropy sparsity checks and compact storage, shadow matrices via
triple products, the reflection operator, and analytic sphere-cap visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import psh as P
from . import shscalar as sh
from .geom import SphereGrid, complex_pair_separate
from .shscalar import ShCoeffs, sh_index, sh_size


@dataclass
class PshCoeffMatrix:
    """Dense real operator matrix over I_PSH x I_PSH in canonical order."""
    l_max: int
    matrix: np.ndarray
    sparsity: str = "general"   # or "isotropic"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = P.psh_size(self.l_max)
        if self.matrix.shape != (n, n):
            raise ValueError("matrix shape does not match l_max")


def operator_apply(M: PshCoeffMatrix, f: P.PshCoeffs) -> P.PshCoeffs:
    """Coefficient-space application: matrix-vector product."""
    if M.l_max != f.l_max:
        raise ValueError("operator and coefficient bands differ")
    return P.PshCoeffs.from_flat(f.l_max, M.matrix @ f.flat())


# ---------------------------------------------------------------------------
# index bookkeeping for block assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _psh_positions(l_max):
    """Arrays of canonical positions: p0/p3 per (l,m), p1/p2 per spin-2 (l,m)."""
    pos0 = np.zeros(sh_size(l_max), dtype=int)
    pos3 = np.zeros(sh_size(l_max), dtype=int)
    pos1 = np.zeros(P.spin2_size(l_max), dtype=int)
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            pos0[sh_index(l, m)] = P.psh_index(l, m, 0, l_max)
            pos3[sh_index(l, m)] = P.psh_index(l, m, 3, l_max)
            if l >= 2:
                pos1[P.spin2_index(l, m)] = P.psh_index(l, m, 1, l_max)
    for a in (pos0, pos1, pos3):
        a.setflags(write=False)
    return pos0, pos1, pos3


def assemble_psh_matrix(l_max, blocks) -> np.ndarray:
    """Assemble the dense canonical matrix from spin blocks.

    blocks is a dict with keys like ('s', a, b) for scalar-to-scalar kernels
    (a, b in {0, 3}; matrix over scalar SH indices), ('c2s', a) and ('s2c', b)
    for the complex mixed blocks, and 'iso'/'conj' for the spin 2-to-2 pair.
    """
    pos0, pos1, pos3 = _psh_positions(l_max)
    pos_scalar = {0: pos0, 3: pos3}
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
    l_max = M.l_max
    pos0, pos1, pos3 = _psh_positions(l_max)
    pos_scalar = {0: pos0, 3: pos3}
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

def operator_project(mueller_field, l_max: int, grid: SphereGrid,
                     chunk: int = 48) -> PshCoeffMatrix:
    """Project a MuellerFieldFn onto PSH: P = <Y_out, P_F[Y_in]>.

    The spin 2-to-2 sub-blocks are obtained from the two complex integrals of
    the iso/conj separation (two integrals instead of four), the mixed blocks
    from one complex integral each.
    """
    if grid.band < l_max:
        raise ValueError(f"grid band {grid.band} insufficient for l_max {l_max}")
    th, ph = grid.angles()
    th = th.ravel()
    ph = ph.ravel()
    w = grid.weights().ravel()
    dirs = grid.dirs().reshape(-1, 3)
    n_pts = dirs.shape[0]

    br = sh.sh_basis_real(l_max, th, ph)          # (N, S)
    b2 = P.s2sh_basis(l_max, th, ph)              # (N, S2) complex
    br_w = br * w[:, None]
    b2_w = b2 * w[:, None]

    S = sh_size(l_max)
    S2 = P.spin2_size(l_max)
    scal = {(a, b): np.zeros((S, S)) for a in (0, 3) for b in (0, 3)}
    to2 = {b: np.zeros((S2, S), dtype=complex) for b in (0, 3)}
    from2 = {a: np.zeros((S, S2), dtype=complex) for a in (0, 3)}
    iso = np.zeros((S2, S2), dtype=complex)
    conj = np.zeros((S2, S2), dtype=complex)

    idx = {0: 0, 3: 3}
    for start in range(0, n_pts, chunk):
        sl = slice(start, min(start + chunk, n_pts))
        # K[i, o] = matrix for (w_i = dirs[i], w_o = dirs[sl][o])
        K = np.asarray(mueller_field(dirs[:, None, :], dirs[None, sl, :]))
        bo_r = br_w[sl]
        bo_2 = b2_w[sl]
        for a in (0, 3):
            for b in (0, 3):
                tmp = K[:, :, idx[a], idx[b]].T @ br_w          # (chunk, S)
                scal[(a, b)] += bo_r.T @ tmp
            m_col = K[:, :, 1, idx[a]] + 1j * K[:, :, 2, idx[a]]  # (N_in, chunk)
            to2[a] += bo_2.conj().T @ (m_col.T @ br_w)
            m_row = K[:, :, idx[a], 1] + 1j * K[:, :, idx[a], 2]
            from2[a] += bo_r.T @ (np.conj(m_row).T @ b2_w)
        blk = K[:, :, 1:3, 1:3]
        iso_pt = 0.5 * (blk[..., 0, 0] + blk[..., 1, 1]) + 0.5j * (blk[..., 1, 0] - blk[..., 0, 1])
        conj_pt = 0.5 * (blk[..., 0, 0] - blk[..., 1, 1]) + 0.5j * (blk[..., 1, 0] + blk[..., 0, 1])
        iso += bo_2.conj().T @ (iso_pt.T @ b2_w)
        conj += bo_2.conj().T @ (conj_pt.T @ b2_w.conj())

    blocks = {"scalar": scal, "to_spin2": to2, "from_spin2": from2,
              "iso": iso, "conj": conj}
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


def _m_index_pairs(l_max):
    for lo in range(l_max + 1):
        for mo in range(-lo, lo + 1):
            for li in range(l_max + 1):
                for mi in range(-li, li + 1):
                    yield lo, mo, li, mi


def isotropic_compact(M: PshCoeffMatrix) -> IsotropicCompact:
    """Keep only |m_i| = |m_o| entries; report max violations.

    The pairing violation is the largest iso part with m_i != m_o or conj
    part with m_i != -m_o inside the spin 2-to-2 blocks.
    """
    l_max = M.l_max
    entries = {}
    viol_m = 0.0
    viol_pair = 0.0
    for lo, mo, li, mi in _m_index_pairs(l_max):
        ps_o = [0, 3] if lo < 2 else [0, 1, 2, 3]
        ps_i = [0, 3] if li < 2 else [0, 1, 2, 3]
        rows = [P.psh_index(lo, mo, p, l_max) for p in ps_o]
        cols = [P.psh_index(li, mi, p, l_max) for p in ps_i]
        block = M.matrix[np.ix_(rows, cols)]
        if abs(mo) != abs(mi):
            viol_m = max(viol_m, float(np.max(np.abs(block))))
            continue
        entries[(lo, mo, li, mi)] = block
        if lo >= 2 and li >= 2:
            sub = block[np.ix_([ps_o.index(1), ps_o.index(2)],
                               [ps_i.index(1), ps_i.index(2)])]
            pair = complex_pair_separate(sub)
            if mi != mo:
                viol_pair = max(viol_pair, abs(pair.iso))
            if mi != -mo:
                viol_pair = max(viol_pair, abs(pair.conj))
    return IsotropicCompact(l_max, entries, viol_m, viol_pair)


def isotropic_storage_count(l_max: int) -> int:
    """Closed-form count of |m_i| = |m_o| real entries."""
    total = 0
    for lo in range(l_max + 1):
        for li in range(l_max + 1):
            no = 2 if lo < 2 else 4
            ni = 2 if li < 2 else 4
            for m in range(0, min(lo, li) + 1):
                pairs = 1 if m == 0 else 4
                total += pairs * no * ni
    return total


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


@lru_cache(maxsize=4)
def _weighted_real_basis(l_max, band, theta_nodes, theta_weights, n_phi):
    """Real-SH basis times quadrature weights on a grid given by its bytes."""
    grid = SphereGrid(band, np.frombuffer(theta_nodes), np.frombuffer(theta_weights), n_phi)
    th, ph = grid.angles()
    basis_w = sh.sh_basis_real(l_max, th.ravel(), ph.ravel()) * grid.weights().reshape(-1, 1)
    basis_w.setflags(write=False)
    return basis_w


def visibility_project(vis_fn, l_max: int, grid: SphereGrid) -> ShCoeffs:
    """Real-SH coefficients of a direction -> {0,1} visibility mask."""
    if grid.band < l_max:
        raise ValueError(f"grid band {grid.band} insufficient for l_max {l_max}")
    vals = np.asarray(vis_fn(grid.dirs()), dtype=float)
    basis_w = _weighted_real_basis(
        l_max, grid.band, np.asarray(grid.theta_nodes, dtype=float).tobytes(),
        np.asarray(grid.theta_weights, dtype=float).tobytes(), grid.n_phi)
    return ShCoeffs(l_max, "real", basis_w.T @ vals.ravel())


@lru_cache(maxsize=8)
def _triple_tensors(l_max: int, lv_max: int):
    """Dense Gaunt tensors contracted against visibility coefficients.

    T000[(lo,mo),(li,mi),(l',m')] for the complex scalar block and
    T022[spin2_out, spin2_in, (l',m')] for the spin 2-to-2 block.
    """
    S = sh_size(l_max)
    Sv = sh_size(lv_max)
    T000 = np.zeros((S, S, Sv))
    T022 = np.zeros((P.spin2_size(l_max), P.spin2_size(l_max), Sv))
    for lo in range(l_max + 1):
        for mo in range(-lo, lo + 1):
            for li in range(l_max + 1):
                for mi in range(-li, li + 1):
                    mv = mo - mi
                    for lv in range(abs(lo - li), min(lo + li, lv_max) + 1):
                        if abs(mv) > lv:
                            continue
                        g = sh.triple_product_000(lo, mo, lv, mv, li, mi)
                        if g != 0.0:
                            T000[sh_index(lo, mo), sh_index(li, mi), sh_index(lv, mv)] = g
                        if lo >= 2 and li >= 2:
                            g2 = P.triple_product_022(lo, mo, lv, mv, li, mi)
                            if g2 != 0.0:
                                T022[P.spin2_index(lo, mo), P.spin2_index(li, mi),
                                     sh_index(lv, mv)] = g2
    T000.setflags(write=False)
    T022.setflags(write=False)
    return T000, T022


def shadow_expand(v: ShCoeffs, l_max: int) -> PshCoeffMatrix:
    """Expand visibility SH coefficients into the pointwise-product operator.

    The spin 0-to-0 (and 3-to-3) block comes from the conventional scalar
    triple product, the 2-to-2 block from the spin-0 x spin-2 triple product;
    the 0<->2 blocks vanish identically.
    """
    if v.kind != "real":
        raise ValueError("expected real-SH visibility coefficients")
    vc = sh.sh_coeffs_r2c(v).values
    T000, T022 = _triple_tensors(l_max, v.l_max)

    re, im = np.ascontiguousarray(vc.real), np.ascontiguousarray(vc.imag)

    def contract(T):
        # real tensor times complex vector without promoting T to complex
        flat = T.reshape(-1, T.shape[-1])
        return (flat @ re + 1j * (flat @ im)).reshape(T.shape[:2])

    U = sh.complex_to_real_matrix(l_max)
    Sr = (U.conj() @ contract(T000) @ U.T).real    # scalar operator, real basis
    C2 = contract(T022)                            # complex spin-2 block (S2, S2)
    blocks = {"scalar": {(0, 0): Sr, (3, 3): Sr.copy(),
                         (0, 3): np.zeros_like(Sr), (3, 0): np.zeros_like(Sr)},
              "iso": C2}
    return PshCoeffMatrix(l_max, assemble_psh_matrix(l_max, blocks))


def shadow_matrix_direct(vis_fn, l_max: int, grid: SphereGrid) -> PshCoeffMatrix:
    """Direct single-sphere quadrature of the visibility operator (oracle)."""
    th, ph = grid.angles()
    w = grid.weights().ravel()
    vals = np.asarray(vis_fn(grid.dirs()), dtype=float).ravel()
    br = sh.sh_basis_real(l_max, th.ravel(), ph.ravel())
    b2 = P.s2sh_basis(l_max, th.ravel(), ph.ravel())
    wv = w * vals
    Sr = br.T @ (wv[:, None] * br)
    C2 = b2.conj().T @ (wv[:, None] * b2)
    blocks = {"scalar": {(0, 0): Sr, (3, 3): Sr.copy(),
                         (0, 3): np.zeros_like(Sr), (3, 0): np.zeros_like(Sr)},
              "iso": C2}
    return PshCoeffMatrix(l_max, assemble_psh_matrix(l_max, blocks))


# ---------------------------------------------------------------------------
# reflection operator
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def reflection_permutation_psh(l_max: int):
    """z-flip R as read-only (rows, signs) with R @ X = signs[:, None] * X[rows].

    Scalar parts: diagonal (-1)^(l+m).  Spin-2: (l, m) -> (l, -m), sign (-1)^l on
    p = 1 and -(-1)^l on p = 2 (the flip conjugates the complex pair)."""
    index = {lmp: i for i, lmp in enumerate(P.psh_index_list(l_max))}
    rows = np.array([index[(l, m if p in (0, 3) else -m, p)] for l, m, p in index])
    signs = np.array([(-1.0) ** (l + m) if p in (0, 3) else (-1.0) ** l * (3 - 2 * p)
                      for l, m, p in index])
    rows.setflags(write=False)
    signs.setflags(write=False)
    return rows, signs


def reflection_matrix_psh(l_max: int) -> PshCoeffMatrix:
    """Dense coefficient matrix of the z-flip (see reflection_permutation_psh)."""
    rows, signs = reflection_permutation_psh(l_max)
    out = np.zeros((rows.size, rows.size))
    out[np.arange(rows.size), rows] = signs
    return PshCoeffMatrix(l_max, out)
