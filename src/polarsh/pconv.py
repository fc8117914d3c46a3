"""Polarized spherical convolution.

Kernel representation k(theta) (a 4x4 Mueller matrix under great-circle
aligned frames), its PSH kernel coefficients, the frequency-domain
convolution theorem, the angular-domain convolution (oracle path), expansion
of kernel coefficients into a sparse operator matrix, the least-squares
projection of an operator onto the convolution structure, and rotation
averaging.  The theorem, the expansion and the projection all read the one
theorem table _conv_tables(l_max).  kernel_coeffs reads the Mueller-to-spin
split of operators._spin_parts, the cached Gauss-Legendre rule
geom.gauss_legendre and, for its rows sY_lm(theta_j, 0), their Fourier series
in theta from the s = 0 and s = 2 columns of d(pi/2)
(shscalar._theta_fourier_rows).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import psh as P
from . import shscalar as sh
from ._tables import table_cache
from .geom import (check_l_max, fibonacci_directions, frame_for_dir, frame_theta_phi,
                   gauss_legendre, normalize, rotation_about_axis, rotation_align,
                   rotation_zyz, sph_to_dir, dir_to_sph)
from .operators import PshCoeffMatrix, _spin_parts
from .polar import SPIN_BLOCKS, MuellerMatrix, slot_pairs, frame_twist, mueller_reframe
from .shscalar import FOUR_PI

TWO_PI = 2.0 * np.pi
KC_FAMILIES = ("k00", "k03", "k30", "k33", "k0p", "k3p", "kp0", "kp3", "kiso", "kconj")


# ---------------------------------------------------------------------------
# kernel coefficients
# ---------------------------------------------------------------------------

@dataclass
class PolarConvKernelCoeffs:
    """Per-l convolution coefficients of a Mueller kernel.

    Four real families couple the scalar slots, four complex families couple
    scalar and spin-2 slots, and the complex pair (iso, conj) carries the
    spin 2-to-2 part.  All spin-2 families vanish for l < 2.  Families of
    shape (..., l_max + 1) hold a stack of kernels.
    """
    l_max: int
    k00: np.ndarray
    k03: np.ndarray
    k30: np.ndarray
    k33: np.ndarray
    k0p: np.ndarray   # spin 2 -> s0 row, complex
    k3p: np.ndarray   # spin 2 -> s3 row, complex
    kp0: np.ndarray   # s0 -> spin 2 column, complex
    kp3: np.ndarray   # s3 -> spin 2 column, complex
    kiso: np.ndarray
    kconj: np.ndarray

    @classmethod
    def zeros(cls, l_max):
        r = lambda: np.zeros(l_max + 1)
        c = lambda: np.zeros(l_max + 1, dtype=complex)
        return cls(l_max, r(), r(), r(), r(), c(), c(), c(), c(), c(), c())


def delta_kernel_coeffs(l_max: int) -> PolarConvKernelCoeffs:
    """Coefficients of the identity operator (Dirac delta at theta = 0)."""
    kc = PolarConvKernelCoeffs.zeros(l_max)
    kc.k00[:] = kc.k33[:] = kc.kiso[:] = np.sqrt((2 * np.arange(l_max + 1) + 1) / FOUR_PI)
    kc.kiso[:2] = 0.0
    return kc


def kernel_validate(kernel_fn, tol=1e-9):
    """Check the end-point constraints: conj part zero at 0, iso zero at pi."""
    k = np.asarray([kernel_fn(0.0), kernel_fn(np.pi)], dtype=float)
    spin22 = {group: g for group, key, g, *_ in _spin_parts(k) if key is None}
    return abs(spin22["conj"][0]) <= tol and abs(spin22["iso"][1]) <= tol


def _kernel_samples(kernel_fn, theta):
    vals = np.asarray([np.asarray(kernel_fn(float(t)), dtype=float) for t in theta])
    if vals.shape[1:] != (4, 4):
        raise ValueError("kernel must return 4x4 matrices")
    return vals


# the (s_out, m) of the rows sY_lm(theta, 0) that kernel_coeffs integrates:
# m = -sign_in s_in for each block of operators._spin_parts
_KERNEL_ROWS = ((0, 0), (2, 0), (0, -2), (2, -2), (2, 2))


def kernel_coeffs(kernel_fn, l_max: int, n_nodes=None) -> PolarConvKernelCoeffs:
    """1-D quadrature of the five coefficient families of a kernel.

    kernel_fn(theta) returns the 4x4 Mueller matrix k(theta) under the
    aligned great-circle frame convention; it is sampled at n_nodes
    Gauss-Legendre nodes in theta (default 4 l_max + 16).  Each family is
    sum_j w_j sin(theta_j) sY_lm(theta_j, 0) g(theta_j) for one (s, m) of
    _KERNEL_ROWS, and the rows sY_lm(theta_j, 0) are their Fourier series in
    theta (shscalar._theta_fourier_rows, cached per l_max) times cos(k theta_j):
    one product, no l-recurrence and no Gauss-Legendre solve per call.  Raises
    ValueError for an l_max that is not an integer >= 0 (geom.check_l_max),
    an n_nodes that is not an integer >= 1 and a kernel sample that is not
    finite.
    """
    check_l_max(l_max, "kernel_coeffs")
    if n_nodes is None:
        n_nodes = 4 * l_max + 16
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, (int, np.integer)) or n_nodes < 1:
        raise ValueError(f"kernel_coeffs needs an integer n_nodes >= 1, got {n_nodes!r}")
    x, w = gauss_legendre(int(n_nodes))
    theta = 0.5 * np.pi * (x + 1.0)
    k = _kernel_samples(kernel_fn, theta)
    bad = ~np.isfinite(k)
    if bad.any():
        j, row, col = np.argwhere(bad)[0]
        raise ValueError(f"kernel sample at theta = {float(theta[j])!r} is not finite: "
                         f"entry ({row}, {col}) is {k[j, row, col]}")
    ws = TWO_PI * (0.5 * np.pi * w) * np.sin(theta)

    e = sh._cis_powers(l_max, theta).T                  # e^{i k theta_j}, k = 0..l_max
    rows = dict(zip(_KERNEL_ROWS, sh._theta_fourier_rows(l_max, _KERNEL_ROWS) @ e.real))
    kc = PolarConvKernelCoeffs.zeros(l_max)
    for group, key, g, s_out, s_in, sign in _spin_parts(k):
        # sY_lm(theta, 0) at m = -sign s_in over l = 0..l_max (m + s_out is even)
        getattr(kc, _family(group, key))[:] = rows[s_out, -sign * s_in] @ (ws * g)
    return kc


def _family(group, key):
    """The KC_FAMILIES name of an operators._spin_parts block."""
    names = {"scalar": "k%d%d", "to_spin2": "kp%d", "from_spin2": "k%dp"}
    return names[group] % key if group in names else "k" + group


def kernel_from_mueller_field(field_fn, theta, phi=0.0):
    """Extract k(theta) from an equivariant Mueller field via its definition.

    Evaluates [K(z_hat, w_sph(theta, phi))] between the phi-anchored pole
    frame and the theta-phi frame; the result must not depend on phi.
    """
    F_o = frame_theta_phi(theta, phi)
    # field returns components for the phi = 0 pole frame; re-anchor to phi
    M = MuellerMatrix(field_fn(np.array([0.0, 0.0, 1.0]), sph_to_dir(theta, phi)),
                      frame_theta_phi(0.0, 0.0), F_o)
    return mueller_reframe(M, frame_theta_phi(0.0, phi), F_o).matrix


# ---------------------------------------------------------------------------
# phase weights
# ---------------------------------------------------------------------------

def _u_to_spin2(m, mp):
    """U^{p0}: scalar input -> spin-2 output weight at (m_o, m_i) = (m, mp)."""
    if m == 0 and mp == 0:
        return 1.0 + 0.0j
    if abs(m) != abs(mp):
        return 0.0j
    am = abs(m)
    r = 0 if m == am else 1
    c = 0 if mp == am else 1
    tab = np.array([[1.0, -1.0j], [(-1.0) ** am, (-1.0) ** am * 1.0j]]) / math.sqrt(2.0)
    return tab[r, c]


def _u_from_spin2(m, mp):
    """U^{0p}: spin-2 input -> scalar output weight at (m_o, m_i) = (m, mp)."""
    if m == 0 and mp == 0:
        return 1.0 + 0.0j
    if abs(m) != abs(mp):
        return 0.0j
    am = abs(m)
    r = 0 if m == am else 1
    c = 0 if mp == am else 1
    tab = np.array([[1.0, (-1.0) ** am], [1.0j, -(-1.0) ** am * 1.0j]]) / math.sqrt(2.0)
    return tab[r, c]


def phase_weights(m: int, m_prime: int):
    """(W^{2->0}, W^{0->2}) constants of the convolution theorem.

    Values are 0 when |m| != |m'|, 1 at m = m' = 0, and magnitude 1/sqrt(2)
    otherwise.  W^{2->0} enters the theorem conjugated together with the
    2-to-0 kernel coefficient.
    """
    return np.conj(_u_from_spin2(m, m_prime)), _u_to_spin2(m, m_prime)


# ---------------------------------------------------------------------------
# the convolution theorem
# ---------------------------------------------------------------------------

def _theorem_values(kc: PolarConvKernelCoeffs, l_max: int):
    """The theorem table at l_max and fac_l Re(w k_fam[l]) for each entry.

    Families with leading axes (..., l_max + 1) give values (..., entries).
    """
    if kc.l_max < l_max:
        raise ValueError("kernel coefficient band too small")
    t = _conv_tables(l_max)
    k = np.stack([getattr(kc, name) for name in KC_FAMILIES], axis=-2).astype(complex, copy=False)
    fac = np.sqrt(FOUR_PI / (2 * np.arange(l_max + 1) + 1))
    return t, fac[t.l] * (t.w * k[..., t.fam, t.l]).real


def pconv_apply(kc: PolarConvKernelCoeffs, f: P.PshCoeffs) -> P.PshCoeffs:
    """Frequency-domain polarized convolution: the theorem table applied to
    the canonical flat vector (one gather and one segment sum by row).

    Leading axes of the kernel families and of the coefficient parts
    broadcast: kernel i applies to field i.
    """
    t, vals = _theorem_values(kc, f.l_max)
    terms = vals * f.flat()[..., t.col]
    n = P.psh_size(f.l_max)
    # one segment sum over every (batch, row): batch b owns rows b n .. b n + n - 1
    batch = np.arange(math.prod(terms.shape[:-1]))[:, None] * n
    out = np.bincount((batch + t.row).ravel(), weights=terms.ravel(), minlength=batch.size * n)
    return P.PshCoeffs.from_flat(f.l_max, out.reshape(terms.shape[:-1] + (n,)))


def conv_expand_to_matrix(kc: PolarConvKernelCoeffs, l_max: int) -> PshCoeffMatrix:
    """Expand kernel coefficients into the sparse operator matrix."""
    t, vals = _theorem_values(kc, l_max)
    n = P.psh_size(l_max)
    return PshCoeffMatrix(l_max, np.bincount(t.row * n + t.col, weights=vals,
                                             minlength=n * n).reshape(n, n))


# ---------------------------------------------------------------------------
# angular-domain convolution (oracle path)
# ---------------------------------------------------------------------------

def greatcircle_frames(w_src, w_dst):
    """Aligned frames along the oriented great circle from w_src to w_dst.

    Returns (x_src, x_dst): unit tangents at the two points along the circle.
    A parallel or antiparallel pair has no circle; it gets a shared tangent
    anchor (x_dst = +-x_src), which serves any valid kernel since the conj
    part vanishes at 0 and the iso part at pi.
    """
    w_src = np.asarray(w_src, dtype=float)
    w_dst = np.asarray(w_dst, dtype=float)
    dot = np.einsum("...i,...i->...", w_src, w_dst)[..., None]
    helper = np.where(np.abs(w_src[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    anchor = np.cross(np.cross(w_src, helper), w_src)
    degenerate = np.abs(dot) > 1.0 - 1e-12
    x_src = normalize(np.where(degenerate, anchor, w_dst - dot * w_src))
    x_dst = normalize(np.where(degenerate, np.sign(dot) * anchor, dot * w_dst - w_src))
    return x_src, x_dst


def _aligned_frame(x_axis, w):
    """Frame [x, w x x, w] for a unit tangent x at w."""
    return np.stack([x_axis, np.cross(w, x_axis), w], axis=-1)


def pconv_angular_pair_matrix(kernel_fn, w_i, w_o):
    """Mueller matrix (theta-phi frames) of the equivariant field of a kernel.

    Realizes [k(angle(w_i, w_o))] between great-circle aligned frames and
    reframes both sides to the theta-phi convention; this is the Mueller
    transform field whose convolution operator the kernel defines.
    """
    w_i = np.asarray(w_i, dtype=float)
    w_o = np.asarray(w_o, dtype=float)
    dot = float(np.clip(np.dot(w_i, w_o), -1.0, 1.0))
    K = np.asarray(kernel_fn(math.acos(dot)), dtype=float)
    x_i, x_o = greatcircle_frames(w_i, w_o)
    M = MuellerMatrix(K, _aligned_frame(x_i, w_i), _aligned_frame(x_o, w_o))
    return mueller_reframe(M, frame_for_dir(w_i), frame_for_dir(w_o)).matrix


def pconv_angular(kernel_fn, coeffs: P.PshCoeffs, out_theta, out_phi,
                  n_theta=None, n_phi=None):
    """Angular-domain convolution of a band-limited field with a kernel.

    For each output direction the source sphere is integrated on a rotated
    Gauss-Legendre grid aligned with that direction, with the kernel applied
    between great-circle aligned frames (the field is evaluated from its
    coefficients, which is exact for band-limited inputs).  Returns Stokes
    components under the theta-phi frames of the outputs, shape (..., 4).
    """
    L = coeffs.l_max
    if n_theta is None:
        n_theta = 2 * L + 16
    if n_phi is None:
        n_phi = 2 * L + 8
    x, wq = np.polynomial.legendre.leggauss(n_theta)
    tq = 0.5 * np.pi * (x + 1.0)
    wq = 0.5 * np.pi * wq * np.sin(tq) * (TWO_PI / n_phi)
    pq = TWO_PI * np.arange(n_phi) / n_phi
    tg, pg = np.meshgrid(tq, pq, indexing="ij")
    canon = sph_to_dir(tg, pg).reshape(-1, 3)          # (M, 3)
    wgt = np.repeat(wq, n_phi)                         # (M,)
    kmat = _kernel_samples(kernel_fn, tq)              # (n_theta, 4, 4)
    kmat_full = np.repeat(kmat, n_phi, axis=0)         # (M, 4, 4)
    # kernel output frame at the pole (theta-phi frame at phi') -> phi = 0
    e_out = frame_twist(frame_theta_phi(0.0, pg.reshape(-1)), frame_theta_phi(0.0, 0.0))

    out_theta = np.asarray(out_theta, dtype=float)
    shape = np.broadcast(out_theta, np.asarray(out_phi)).shape
    th_list = np.ravel(np.broadcast_to(out_theta, shape)).astype(float)
    ph_list = np.ravel(np.broadcast_to(np.asarray(out_phi, dtype=float), shape))
    result = np.zeros((th_list.size, 4))
    for i, (to, po) in enumerate(zip(th_list, ph_list)):
        Rw = rotation_zyz(po, to, 0.0)
        src = canon @ Rw.T
        th_s, ph_s = dir_to_sph(src)
        comps = P.psh_reconstruct(coeffs, th_s, ph_s)
        # reframe field components into the rotated-system theta-phi frames
        G = np.einsum("ij,...jk->...ik", Rw, frame_theta_phi(tg.reshape(-1), pg.reshape(-1)))
        ctil = (comps[:, 1] + 1j * comps[:, 2]) * frame_twist(frame_theta_phi(th_s, ph_s), G)
        vec = np.stack([comps[:, 0], ctil.real, ctil.imag, comps[:, 3]], axis=-1)
        contrib = np.einsum("mab,mb->ma", kmat_full, vec)
        ctil_o = (contrib[:, 1] + 1j * contrib[:, 2]) * e_out
        s0 = np.sum(wgt * contrib[:, 0])
        s3 = np.sum(wgt * contrib[:, 3])
        c = np.sum(wgt * ctil_o)
        # rotated pole frame (the columns of Rw) -> theta-phi frame at the
        # output direction
        c = c * frame_twist(Rw, frame_theta_phi(to, po))
        result[i] = [s0, c.real, c.imag, s3]
    return result.reshape(shape + (4,))


# ---------------------------------------------------------------------------
# least-squares projection onto the convolution structure
# ---------------------------------------------------------------------------

def _u_to(mo, mi):
    """U^{p0}(m_o, m_i) over arrays: the C->R entry U[m_i, m_o] of
    shscalar._c2r_rows' row rule, zero unless |m_o| = |m_i|.

    The one phase function of the theorem: U^{0p}(m_o, m_i) is
    conj(U^{p0}(m_i, m_o)).  _u_to_spin2 and _u_from_spin2 are its scalar
    oracles.
    """
    mo, mi = np.broadcast_arrays(mo, mi)
    diag, off = sh._c2r_rows(mi)
    return np.where(mo == mi, diag, np.where(mo == -mi, off, 0.0))


class _ConvTable(NamedTuple):
    """Every nonzero (row, col) of the canonical convolution operator.

    The entry is fac_l Re(w k[l]), fac_l = sqrt(4 pi / (2l + 1)), for the
    family k = KC_FAMILIES[fam] and the complex phase weight w; the entries
    of an (l, m = 0) spin 2-to-2 block repeat, iso before conj, and add.
    """
    row: np.ndarray
    col: np.ndarray
    fam: np.ndarray
    l: np.ndarray
    w: np.ndarray


@table_cache(maxsize=8)
def _conv_tables(l_max: int) -> _ConvTable:
    lay = P.psh_layout(l_max)
    blocks = {_family(blk.group, blk.key): blk for blk in SPIN_BLOCKS}
    parts = []

    def add(fam, rows, cols, l, w):
        # the block's real entries Re(f value) at each paired (row, col)
        for dr, dc, f in slot_pairs(blocks[KC_FAMILIES[fam]]):
            parts.append((rows + dr, cols + dc, np.full(l.size, fam), l, f * w))

    p0, p3 = lay.pos0, lay.pos3
    for fam, (rows, cols) in enumerate(((p0, p0), (p0, p3), (p3, p0), (p3, p3))):
        add(fam, rows, cols, lay.l, np.ones(lay.l.size))
    # spin-2 (out, in) pairs with the same l and m_i = m_o, then m_i = -m_o != m_o
    j = np.arange(lay.pos1.size)
    m2 = lay.m[4:]
    jo = np.concatenate([j, j[m2 != 0]])
    ji = np.concatenate([j, (j - 2 * m2)[m2 != 0]])
    l2, mo, mi = lay.l[4:][jo], m2[jo], m2[ji]
    u_from = np.conj(_u_to(mi, mo))
    add(4, p0[jo + 4], lay.pos1[ji], l2, u_from)
    add(5, p3[jo + 4], lay.pos1[ji], l2, u_from)
    add(6, lay.pos1[jo], p0[ji + 4], l2, _u_to(mo, mi))
    add(7, lay.pos1[jo], p3[ji + 4], l2, _u_to(mo, mi))
    add(8, lay.pos1, lay.pos1, lay.l[4:], np.ones(j.size))
    add(9, lay.pos1, lay.pos1[j - 2 * m2], lay.l[4:], np.where(m2 % 2, -1.0, 1.0))
    return _ConvTable(*(np.concatenate(a) for a in zip(*parts)))


class _ResidualLabels(NamedTuple):
    """Read-only labelling of the dense matrix for conv_project_operator.

    An entry's label is 2 (block (l_max + 1) + l_row) + unmatched, block
    0..3 for scalar, to_spin2, from_spin2 and spin22, with one bin past the
    end for the uncounted entries (scalar rows l < 2 by spin-2 columns).
    matched holds the sorted flat positions with l_i = l_o and |m_i| = |m_o|
    and matched_label their labels; theorem-table entry e falls on
    matched[table[e]].  row_label (n, 2) labels the unmatched rest of each
    row per column spin class (scalar, spin-2), the classes col_spin picks
    as a one-hot (n, 2) matrix.  count is the number of entries per label,
    shape (4, l_max + 1, 2).
    """
    matched: np.ndarray
    matched_label: np.ndarray
    table: np.ndarray
    row_label: np.ndarray
    col_spin: np.ndarray
    count: np.ndarray


@table_cache(maxsize=8)
def _residual_labels(l_max: int) -> _ResidualLabels:
    l, m, p = P.psh_layout(l_max).lmp.T
    n, n_l = l.size, l_max + 1
    spin = (p == 1) | (p == 2)
    block = spin[:, None] + 2 * spin[None, :]
    unmatched = (l[:, None] != l[None, :]) | (np.abs(m)[:, None] != np.abs(m)[None, :])
    label = 2 * (block * n_l + l[:, None]) + unmatched
    label[(block == 2) & (l[:, None] < 2)] = 8 * n_l
    count = np.bincount(label.ravel(), minlength=8 * n_l + 1)[:-1].reshape(4, n_l, 2)
    matched = np.flatnonzero(~unmatched)
    t = _conv_tables(l_max)
    table = np.searchsorted(matched, t.row * n + t.col)
    col_spin = np.stack([~spin, spin], axis=-1).astype(float)
    row_label = 2 * ((spin[:, None] + 2 * np.arange(2)) * n_l + l[:, None]) + 1
    row_label[:, 1][~spin & (l < 2)] = 8 * n_l
    return _ResidualLabels(matched, label.ravel()[matched], table, row_label, col_spin, count)


def conv_project_operator(M: PshCoeffMatrix):
    """Fit an operator matrix to the convolution structure per l.

    Returns (PolarConvKernelCoeffs, rms_residual, report).  Each family and
    band is the least-squares fit of the theorem table's entries
    fac_l Re(w k) to the matrix.  Every complex slot enters the table as a
    pair (w, -+i w), so Re(w) and Im(w) are orthogonal and the fit is two
    weighted means.  The residual R is M less the expanded fit.  Per block
    and output band l, report[block][l] holds two RMS values over the
    row-l entries: 'matched' is the misfit on the entries the structure may
    fill (l_i = l and |m_i| = |m_o|), and 'unmatched' the energy on all
    other entries (which the structure forces to zero).  Both count real
    entries of the dense matrix, weighting R^2 by 1 in the scalar,
    to_spin2 and from_spin2 (l >= 2 rows) blocks and by 1/2 in the spin22
    block; rms_residual is the RMS over every one of those entries.  A
    stacked matrix or a non-finite entry raises ValueError.

    The fit is never expanded into a dense matrix: R differs from M only on
    the table's positions, all of them matched, so the matched energies come
    from the gathered matched entries with the fit subtracted there, and the
    unmatched ones from the row sums of M^2, per column spin class, with the
    matched entries set to zero.
    """
    l_max = M.l_max
    if M.matrix.ndim != 2:
        raise ValueError(f"conv_project_operator fits one matrix, got shape {M.matrix.shape}")
    if not np.isfinite(M.matrix).all():
        bad = np.argwhere(~np.isfinite(M.matrix))[0]
        raise ValueError(f"non-finite operator entry at (row, col) = {tuple(bad.tolist())}")
    n_l = l_max + 1
    t = _conv_tables(l_max)
    v = M.matrix[t.row, t.col]
    key = t.fam * n_l + t.l
    fac = np.sqrt(FOUR_PI / (2 * np.arange(n_l) + 1))
    k = np.zeros((2, len(KC_FAMILIES), n_l))
    for part, (w, sign) in enumerate(((t.w.real, 1.0), (t.w.imag, -1.0))):
        num, den = (np.bincount(key, weights=x, minlength=k[part].size).reshape(-1, n_l)
                    for x in (w * v, w * w))
        np.divide(sign * num, den * fac, out=k[part], where=den > 0)
    kc = PolarConvKernelCoeffs(l_max, *k[0, :4], *(k[0, 4:] + 1j * k[1, 4:]))

    lab = _residual_labels(l_max)
    nbins = lab.count.size + 1
    R = M.matrix.ravel()[lab.matched] - np.bincount(
        lab.table, weights=_theorem_values(kc, l_max)[1], minlength=lab.matched.size)
    rest = (M.matrix * M.matrix).ravel()
    rest[lab.matched] = 0.0
    rows = rest.reshape(M.matrix.shape) @ lab.col_spin
    energy = (np.bincount(lab.matched_label, weights=R * R, minlength=nbins)
              + np.bincount(lab.row_label.ravel(), weights=rows.ravel(), minlength=nbins))
    energy = energy[:-1].reshape(lab.count.shape)
    energy[3] *= 0.5    # |iso|^2 + |conj|^2 is half the R^2 of their four real entries
    rms = np.sqrt(energy / np.maximum(lab.count, 1))
    report = {name: {l: {"matched": float(rms[b, l, 0]), "unmatched": float(rms[b, l, 1])}
                     for l in range(0 if b == 0 else 2, n_l)}
              for b, name in enumerate(("scalar", "to_spin2", "from_spin2", "spin22"))}
    return kc, math.sqrt(energy.sum() / max(lab.count.sum(), 1)), report


# ---------------------------------------------------------------------------
# rotation averaging
# ---------------------------------------------------------------------------

def _so3_fibonacci(n_rotations: int):
    """Deterministic quasi-uniform rotation sample.

    Fibonacci-distributed alignment axes combined with an in-plane angle from
    an unrelated irrational stride (the Fibonacci azimuths already use the
    golden ratio; reusing it correlates the two factors and biases the
    average).
    """
    normals = fibonacci_directions(n_rotations)
    rots = []
    for k in range(n_rotations):
        psi = TWO_PI * ((k * math.sqrt(2.0)) % 1.0)
        rots.append(rotation_align(np.array([0.0, 0.0, 1.0]), normals[k])
                    @ rotation_about_axis([0.0, 0.0, 1.0], psi))
    return rots


def rotation_average_matrix(M: PshCoeffMatrix, n: int) -> PshCoeffMatrix:
    """Coefficient-space rotation average: mean of D(R)^T M D(R).

    Exactly the PSH projection of the angular rotation average, since
    rotations do not mix l; each (l_o, l_i) block averages over all n^2
    rotations at once.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rots = np.array(_so3_fibonacci(n * n))
    blocks = [P.psh_rotation_block(l, None, dc=dc)
              for l, dc in enumerate(sh.wigner_d_stack(M.l_max, rots))]
    e = np.cumsum([0] + [b.shape[-1] for b in blocks])
    acc = np.empty_like(M.matrix)
    for (i, Bo), (j, Bi) in itertools.product(enumerate(blocks), repeat=2):
        acc[e[i]:e[i + 1], e[j]:e[j + 1]] = np.tensordot(
            Bo, M.matrix[e[i]:e[i + 1], e[j]:e[j + 1]] @ Bi, axes=([0, 1], [0, 1]))
    return PshCoeffMatrix(M.l_max, acc / len(rots))
