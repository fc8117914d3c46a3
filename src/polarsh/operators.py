"""PSH coefficient matrices for Mueller-valued linear operators.

Double-sphere projection of Mueller transform fields (pBRDF / radiance
transfer; ring by ring for azimuthally symmetric fields), isotropy sparsity
checks and compact storage, shadow matrices by exact ring quadrature of
the visibility's spectra, the reflection operator, and analytic sphere-cap
visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import psh as P
from . import shscalar as sh
from ._tables import table_cache
from .geom import SphereGrid, check_l_max, gauss_legendre_grid, sph_to_dir
from .polar import SPIN_BLOCKS, read_spin_blocks, write_spin_blocks
from .shscalar import ShCoeffs


@dataclass
class PshCoeffMatrix:
    """Dense real operator matrix over I_PSH x I_PSH in canonical order; a
    (..., n, n) array holds a stack of matrices."""
    l_max: int
    matrix: np.ndarray
    sparsity: str = "general"   # or "isotropic"

    def __post_init__(self):
        check_l_max(self.l_max)
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

def _runs(l_max):
    """Runs (n2, n4) of the canonical layout (see the polar module)."""
    return min(sh.sh_size(l_max), 4), P.spin2_size(l_max)


def assemble_psh_matrix(l_max, blocks) -> np.ndarray:
    """The dense canonical matrix of spin blocks {(group, key): value} keyed
    as polar.SPIN_BLOCKS: ('scalar', (a, b)) real over scalar SH indices for
    a, b in {0, 3}; complex ('to_spin2', b), ('from_spin2', a), ('iso', None)
    and ('conj', None).  Absent blocks are zero; an unknown key raises."""
    return write_spin_blocks(np.zeros((P.psh_size(l_max),) * 2), _runs(l_max), blocks)


def split_psh_matrix(M: PshCoeffMatrix):
    """Inverse of assemble_psh_matrix: every spin block, in the same dict form."""
    return read_spin_blocks(M.matrix, _runs(M.l_max))


# ---------------------------------------------------------------------------
# double-sphere projection of a Mueller transform field
# ---------------------------------------------------------------------------

_CHUNK = 48   # output directions per field call on the dense path


def _spin_parts(K):
    """The complex fields behind each block of the projection, from Mueller
    components K (..., 4, 4).

    Yields (group, key, field, s_out, s_in, sign_in) for each block of
    polar.SPIN_BLOCKS, read from K by its slot rule: the block is the double
    integral of conj(Y^{s_out}_out) field Y^{s_in}_in, with conj(Y_in) where
    sign_in = -1, so the spin 2-to-2 part takes two integrals (iso, conj)
    instead of four and each mixed block one complex integral.
    """
    values = read_spin_blocks(K, (0, 1))
    for blk in SPIN_BLOCKS:
        yield (blk.group, blk.key, values[blk.group, blk.key][..., 0, 0],
               2 * (blk.rows == 1), 2 * (blk.cols == 1), blk.sign_in)


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
    Complex-basis scalar sides go to the real basis by c2r_values along
    their axis (conj(U) blk on the output side, blk U^T on the input side).
    """
    n = grid.n_phi
    w_o = sph_to_dir(grid.theta_nodes, 0.0)
    K0 = np.asarray(mueller_field(grid.dirs()[None], w_o[:, None, None]))
    m0 = sh.sh_lm_arrays(l_max)[1]
    m = {0: m0, 2: m0[4:]}                           # spin-2 columns start at l = 2
    wT = {s: grid.theta_weights[:, None] * sh.ring_table(l_max, s, grid)[:, s * s:]
          for s in (0, 2)}
    flat = {}
    for group, key, g, s_o, s_i, sign in _spin_parts(K0):
        mu = sign * m[s_i]
        F = np.fft.ifft(g, axis=-1)                 # F_mu / n_phi at mu mod n_phi
        blk = (n * n) * (wT[s_o].T @ np.einsum("oib,ib->ob", F[..., mu % n], wT[s_i]))
        blk[(mu[None, :] - m[s_o][:, None]) % n != 0] = 0.0
        if s_o == 0:
            blk = sh.c2r_values(blk.T).T
        if s_i == 0:
            blk = np.conj(sh.c2r_values(np.conj(blk)))
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
    return PshCoeffMatrix(l_max, assemble_psh_matrix(l_max, project(mueller_field, l_max, grid)))


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
    viol_pair = max(np.max(np.abs(blocks["iso", None][same & (mi != mo)]), initial=0.0),
                    np.max(np.abs(blocks["conj", None][same & (mi != -mo)]), initial=0.0))
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
    occluded when its angle to a cap center is below that cap's radius.  A
    center that is not a finite nonzero 3-vector, or a radius that is not in
    [0, pi], raises ValueError naming the occluder's index.
    """
    dirs = np.asarray(dirs, dtype=float)
    vis = np.ones(dirs.shape[:-1])
    for i, (center, radius) in enumerate(occluders):
        c = np.asarray(center, dtype=float)
        norm = np.linalg.norm(c)
        if c.shape != (3,) or not (np.isfinite(norm) and norm > 0.0):
            raise ValueError(f"occluder {i}: center {c} is not a finite nonzero 3-vector")
        if not 0.0 <= radius <= math.pi:
            raise ValueError(f"occluder {i}: angular radius {radius} is not in [0, pi]")
        vis = np.where(dirs @ (c / norm) > math.cos(radius), 0.0, vis)
    return vis


def visibility_project(vis_fn, l_max: int, grid: SphereGrid) -> ShCoeffs:
    """Real-SH coefficients of a direction -> {0,1} visibility mask."""
    return sh.sh_project(np.asarray(vis_fn(grid.dirs()), dtype=float), grid, l_max, "real")


def _gram_bases(l_max, th, ph):
    """Real and spin-2 bases of band l_max at the points (th, ph), with
    contiguous copies of br^T and b2^H for the left factors of the Grams."""
    br, b2 = sh.sh_basis_real(l_max, th, ph), P.s2sh_basis(l_max, th, ph)
    return br, b2, np.ascontiguousarray(br.T), np.ascontiguousarray(b2.conj().T)


def _pointwise_product(l_max, bases, wv):
    """The operator of multiplication by v from the weighted Grams of the
    bases (br, b2, br^T, b2^H) at the quadrature points: br^T diag(w v) br on
    the s0 and s3 blocks, b2^H diag(w v) b2 on the spin 2-to-2 pair (iso
    only); the 0<->2 and conj blocks vanish identically."""
    br, b2, brT, b2H = bases
    G = brT @ (wv[:, None] * br)
    return PshCoeffMatrix(l_max, assemble_psh_matrix(l_max, {
        ("scalar", (0, 0)): G, ("scalar", (3, 3)): G, ("iso", None): b2H @ (wv[:, None] * b2)}))


@table_cache(maxsize=4)
def _ring_gram_tables(l_max: int, l_vis: int):
    """Read-only tables of shadow_expand: l_vis's positions with 0 <= m <= 2 l_max,
    m-major, and each m's first; n_phi w_r T_i(r) T_j(r), scalar then spin-2,
    of each pair with k = m_i - m_j >= 0, sorted by k, and each k's first; and
    each Gram entry's index into [g, conj(g)] (k < 0: transposed, conjugate)."""
    grid = gauss_legendre_grid(l_max + l_vis // 2)
    w, n_k = grid.n_phi * grid.theta_weights, min(2 * l_max, l_vis) + 1
    pick = np.array([l * l + l + m for m in range(n_k) for l in range(m, l_vis + 1)])
    ks, prods, tr = [], [], []
    for s in (0, 2):
        T, m = sh.ring_table(l_max, s, grid)[:, s * s:], sh.sh_lm_arrays(l_max)[1][s * s:]
        tr.append(sum(map(len, ks)) + np.arange(m.size ** 2).reshape(m.size, m.size).T.ravel())
        ks.append((m[:, None] - m[None, :]).ravel())
        prods.append(((w[:, None] * T)[:, :, None] * T[:, None, :]).reshape(len(T), -1))
    k = np.concatenate(ks)
    full = np.argsort(np.where(k < 0, 2 * l_max + 1, k), kind="stable")
    order, rank = full[:np.count_nonzero(k >= 0)], np.argsort(full)
    return (pick, np.searchsorted(sh.sh_lm_arrays(l_vis)[1][pick], np.arange(n_k)),
            np.concatenate(prods, axis=1).T[order],
            np.searchsorted(k[order], np.arange(2 * l_max + 2)),
            np.where(k < 0, rank[np.concatenate(tr)] + order.size, rank))


def shadow_expand(v: ShCoeffs, l_max: int) -> PshCoeffMatrix:
    """Expand visibility SH coefficients into the pointwise-product operator.

    With F_r[k] = sum_l v_lk T_lk(r) (complex v, ring table T) on the rings of
    band B = l_max + L_v // 2, which integrate conj(Y_i) v Y_j (degree 2 l_max
    + L_v <= 2B + 1) exactly, G[i, j] = sum_r n_phi w_r T_i(r) T_j(r) F_r[m_i - m_j]
    is the Gaunt result: one product per k = 0..2 l_max, k < 0 by Hermitian
    symmetry.  The scalar Gram goes to the real basis by c2r_values on both sides.
    """
    check_l_max(l_max)
    if v.kind != "real":
        raise ValueError("expected real-SH visibility coefficients")
    if not np.isfinite(v.values).all():
        raise ValueError(f"visibility coefficient {np.argmin(np.isfinite(v.values))} is not finite")
    pick, runs, pairs, starts, src = _ring_gram_tables(l_max, v.l_max)
    ring = sh.ring_table(v.l_max, 0, gauss_legendre_grid(l_max + v.l_max // 2))
    F = np.zeros((2 * l_max + 1, len(ring), 2))            # (k, ring, [Re, Im]), zero above L_v
    F.view(complex)[:runs.size, :, 0] = np.add.reduceat(
        ring[:, pick] * sh.r2c_values(v.values)[pick], runs, axis=1).T
    g = np.concatenate([pairs[a:b] @ F[k] for k, (a, b) in enumerate(zip(starts, starts[1:]))])
    G = np.concatenate([g.view(complex)[:, 0], g.view(complex)[:, 0].conj()])[src]
    S, S2 = sh.sh_size(l_max), P.spin2_size(l_max)
    Gr = sh.c2r_values(sh.c2r_values(G[:S * S].reshape(S, S).T).T.conj()).real
    return PshCoeffMatrix(l_max, assemble_psh_matrix(l_max, {
        ("scalar", (0, 0)): Gr, ("scalar", (3, 3)): Gr, ("iso", None): G[S * S:].reshape(S2, S2)}))


def shadow_matrix_direct(vis_fn, l_max: int, grid: SphereGrid) -> PshCoeffMatrix:
    """Direct single-sphere quadrature of the visibility operator (oracle)."""
    th, ph = (a.ravel() for a in grid.angles())
    vals = np.asarray(vis_fn(grid.dirs()), dtype=float).ravel()
    return _pointwise_product(l_max, _gram_bases(l_max, th, ph),
                              grid.weights().ravel() * vals)


# ---------------------------------------------------------------------------
# reflection operator
# ---------------------------------------------------------------------------

@table_cache(maxsize=8)
def reflection_permutation_psh(l_max: int):
    """z-flip R as read-only (rows, signs) with R @ X = signs[:, None] * X[rows].

    Scalar parts: diagonal (-1)^(l+m).  Spin-2: (l, m) -> (l, -m), sign (-1)^l on
    p = 1 and -(-1)^l on p = 2 (the flip conjugates the complex pair)."""
    l, m, p = P.psh_layout(l_max).lmp.T
    spin = (p == 1) | (p == 2)
    # (l, -m, p) sits 2m runs of four positions before (l, m, p)
    rows = np.arange(l.size) - np.where(spin, 8 * m, 0)
    parity = 1.0 - 2.0 * (l % 2)
    return rows, parity * np.where(spin, 3.0 - 2.0 * p, 1.0 - 2.0 * (m % 2))


def reflection_matrix_psh(l_max: int) -> PshCoeffMatrix:
    """Dense coefficient matrix of the z-flip (see reflection_permutation_psh)."""
    rows, signs = reflection_permutation_psh(l_max)
    out = np.zeros((rows.size, rows.size))
    out[np.arange(rows.size), rows] = signs
    return PshCoeffMatrix(l_max, out)
