"""Scalar (spin-0) spherical harmonics.

Evaluation, projection, Wigner-D rotation (complex and real bases), the zonal
convolution theorem, Wigner 3-j triple products, and the z-flip reflection
operator.

Conventions (pinned, since libraries differ):
  Y_lm(theta, phi) = A_lm P_l^m(cos theta) e^{i m phi},
  A_lm = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!),
with the Condon-Shortley phase (-1)^m inside P_l^m, and
  P_l^{-m} = (-1)^m (l-m)!/(l+m)! P_l^m  for m >= 0.
Wigner D is D^l_{mm'}(R) = <Y_lm, R_F[Y_lm']> = e^{-i m a} d^l_{mm'}(b) e^{-i m' g}
for R = Rz(a) Ry(b) Rz(g).  d^l_{mm'} comes from the upward three-term
recurrence in l, each (m, m') seeded at l = max(|m|, |m'|) by the single-term
closed form with its binomial taken from a log-factorial table: no factorial
is formed, so there is no band ceiling, and the poles b = 0, pi are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geom import SphereGrid, zyz_from_rotation

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------

def sh_size(l_max: int) -> int:
    return (l_max + 1) ** 2


def sh_index(l: int, m: int) -> int:
    """Flat index of (l, m) in row order l = 0..l_max, m = -l..l."""
    if abs(m) > l:
        raise ValueError(f"invalid SH index (l={l}, m={m})")
    return l * l + l + m


def sh_lm_list(l_max: int):
    return [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]


@dataclass
class ShCoeffs:
    """Coefficient vector over (l, m); kind is 'complex' or 'real'."""
    l_max: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape[-1] != sh_size(self.l_max):
            raise ValueError("coefficient length does not match l_max")

    def copy(self):
        return ShCoeffs(self.l_max, self.kind, self.values.copy())


# ---------------------------------------------------------------------------
# associated Legendre
# ---------------------------------------------------------------------------

def assoc_legendre(l: int, m: int, x):
    """P_l^m(x) with Condon-Shortley phase; |m| <= l, |x| <= 1."""
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("argument outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    if m < 0:
        mm = -m
        scale = (-1.0) ** mm * math.factorial(l - mm) / math.factorial(l + mm)
        return scale * assoc_legendre(l, mm, x)
    # diagonal seed P_m^m, then upward in l
    pmm = np.ones_like(x)
    if m > 0:
        s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
        pmm = (-1.0) ** m * (math.factorial(2 * m) / (2.0 ** m * math.factorial(m))) * s ** m
    if l == m:
        return pmm
    pmm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pmm1
    for ll in range(m + 2, l + 1):
        pmm, pmm1 = pmm1, ((2 * ll - 1) * x * pmm1 - (ll + m - 1) * pmm) / (ll - m)
    return pmm1


def _norm_legendre_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized A_lm P_l^m(x) for all 0 <= m <= l <= l_max.

    Returns array (n_points, n_pairs) indexed by sh_index restricted to m >= 0
    positions; entries with m < 0 are left zero (filled by conjugation later).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = np.zeros((x.size, sh_size(l_max)))
    # N_m^m
    nmm = np.full(x.size, math.sqrt(1.0 / FOUR_PI))
    for m in range(l_max + 1):
        if m > 0:
            nmm = -nmm * s * math.sqrt((2 * m + 1) / (2.0 * m))
        out[:, sh_index(m, m)] = nmm
        if m + 1 <= l_max:
            prev2 = nmm
            prev1 = x * math.sqrt(2 * m + 3) * nmm
            out[:, sh_index(m + 1, m)] = prev1
            for l in range(m + 2, l_max + 1):
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                prev2, prev1 = prev1, a * (x * prev1 - b * prev2)
                out[:, sh_index(l, m)] = prev1
    return out


# ---------------------------------------------------------------------------
# basis evaluation
# ---------------------------------------------------------------------------

def sh_basis_complex(l_max: int, theta, phi) -> np.ndarray:
    """Matrix of Y_lm values, shape (n_points, (l_max+1)^2)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float)).ravel()
    phi = np.atleast_1d(np.asarray(phi, dtype=float)).ravel()
    nlm = _norm_legendre_table(l_max, np.cos(theta))
    out = np.zeros((theta.size, sh_size(l_max)), dtype=complex)
    for m in range(l_max + 1):
        e = np.exp(1j * m * phi)
        for l in range(m, l_max + 1):
            v = nlm[:, sh_index(l, m)] * e
            out[:, sh_index(l, m)] = v
            if m > 0:
                out[:, sh_index(l, -m)] = (-1.0) ** m * np.conj(v)
    return out


def sh_basis_real(l_max: int, theta, phi) -> np.ndarray:
    """Matrix of real SH values Y^R_lm, shape (n_points, (l_max+1)^2)."""
    yc = sh_basis_complex(l_max, theta, phi)
    out = np.zeros(yc.shape)
    for l in range(l_max + 1):
        out[:, sh_index(l, 0)] = yc[:, sh_index(l, 0)].real
        for m in range(1, l + 1):
            out[:, sh_index(l, m)] = math.sqrt(2.0) * yc[:, sh_index(l, m)].real
            out[:, sh_index(l, -m)] = math.sqrt(2.0) * yc[:, sh_index(l, m)].imag
    return out


def sh_complex(l: int, m: int, theta, phi):
    """Single complex SH value(s)."""
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    y = sh_basis_complex(l, theta, phi)[:, sh_index(l, m)]
    return y[0] if y.size == 1 else y


def sh_real(l: int, m: int, theta, phi):
    """Single real SH value(s)."""
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    y = sh_basis_real(l, theta, phi)[:, sh_index(l, m)]
    return float(y[0]) if y.size == 1 else y


# ---------------------------------------------------------------------------
# projection / reconstruction on quadrature grids
# ---------------------------------------------------------------------------

def _basis_on_grid(l_max, grid: SphereGrid, kind):
    th, ph = grid.angles()
    fn = sh_basis_complex if kind == "complex" else sh_basis_real
    return fn(l_max, th.ravel(), ph.ravel())


def sh_project(field: np.ndarray, grid: SphereGrid, l_max: int, kind="complex") -> ShCoeffs:
    """Project grid samples onto SH up to l_max: f_lm = <Y_lm, f>.

    `field` has shape (n_theta, n_phi); the grid band must be at least l_max.
    """
    if grid.band < l_max:
        raise ValueError(f"grid band {grid.band} insufficient for l_max {l_max}")
    vals = np.asarray(field).reshape(-1)
    w = grid.weights().reshape(-1)
    basis = _basis_on_grid(l_max, grid, kind)
    coeff = basis.conj().T @ (w * vals)
    if kind == "real":
        coeff = coeff.real if not np.iscomplexobj(vals) else coeff
    return ShCoeffs(l_max, kind, coeff)


def sh_reconstruct(coeffs: ShCoeffs, theta, phi):
    """Evaluate sum_lm f_lm Y_lm at the given angles."""
    fn = sh_basis_complex if coeffs.kind == "complex" else sh_basis_real
    theta = np.asarray(theta, dtype=float)
    shape = theta.shape
    basis = fn(coeffs.l_max, np.ravel(theta), np.ravel(np.asarray(phi, dtype=float)))
    out = basis @ coeffs.values
    return out.reshape(shape) if shape else out[()] if out.ndim == 0 else out[0]


# ---------------------------------------------------------------------------
# Wigner d and D
# ---------------------------------------------------------------------------

def wigner_small_d_racah(l, m, mp, beta):
    """Factorial-sum (Racah) evaluation of d^l_{m m'}(beta); reference path."""
    if abs(m) > l or abs(mp) > l:
        return 0.0 * np.asarray(beta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    c = np.cos(beta / 2.0)
    s = np.sin(beta / 2.0)
    pref = math.sqrt(math.factorial(l + m) * math.factorial(l - m)
                     * math.factorial(l + mp) * math.factorial(l - mp))
    total = np.zeros_like(beta)
    for k in range(max(0, mp - m), min(l + mp, l - m) + 1):
        denom = (math.factorial(l + mp - k) * math.factorial(k)
                 * math.factorial(l - m - k) * math.factorial(m - mp + k))
        total = total + ((-1.0) ** k / denom) * c ** (2 * l - 2 * k + mp - m) * s ** (2 * k + m - mp)
    d = (-1.0) ** (m - mp) * pref * total
    return d


@lru_cache(maxsize=4)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only log(k!) for k = 0..n, as cumulative sums of log k."""
    table = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    table.setflags(write=False)
    return table


def _wigner_d_seed(m, mp, beta):
    """d^{l0}_{mm'}(beta) at l0 = max(|m|, |m'|), shape beta.shape + m.shape:
    +-sqrt(C(2 l0, l0 + n)) cos(b/2)^(2 l0 - q) sin(b/2)^q with n = min(|m|,
    |m'|), q = |m - m'| and sign (-1)^q for m > m'."""
    l0, n, q = np.maximum(abs(m), abs(mp)), np.minimum(abs(m), abs(mp)), abs(m - mp)
    log_fact = _log_factorials(2 * int(l0.max()))
    coef = (-1.0) ** (q * (m > mp)) * np.exp(
        0.5 * (log_fact[2 * l0] - log_fact[l0 + n] - log_fact[l0 - n]))
    half = beta.reshape(beta.shape + (1,) * np.ndim(m)) / 2.0
    return coef * np.cos(half) ** (2 * l0 - q) * np.sin(half) ** q


def _wigner_d_step(l, m, mp, x, d, d_prev):
    """d^{l+1}_{mm'} from d^l and d^{l-1} (1 <= l, |m|, |m'| <= l)."""
    return (((2 * l + 1) * (l * (l + 1) * x - m * mp) * d
             - (l + 1) * ((l * l - m * m) * (l * l - mp * mp)) ** 0.5 * d_prev)
            / (l * (((l + 1) ** 2 - m * m) * ((l + 1) ** 2 - mp * mp)) ** 0.5))


def wigner_small_d_column(l_max, m, mp, beta):
    """d^l_{m m'}(beta) for l = 0..l_max at fixed (m, m'), vectorized in beta.

    Returns array (l_max+1, n_beta); entries with l < max(|m|,|m'|) are zero.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    out = np.zeros((l_max + 1, beta.size))
    l0 = max(abs(m), abs(mp))
    if l0 > l_max:
        return out
    x = np.cos(beta)
    out[l0] = _wigner_d_seed(m, mp, beta)
    for l in range(l0, l_max):
        out[l + 1] = x * out[0] if l == 0 else _wigner_d_step(l, m, mp, x, out[l], out[l - 1])
    # exact pole values: d(0) = delta_{mm'}, d(pi) = (-1)^{l-m'} delta_{m,-m'}
    out[l0:, beta == 0.0] = float(m == mp)
    if (beta == np.pi).any():
        out[l0:, beta == np.pi] = (-1.0) ** (np.arange(l0, l_max + 1)[:, None] - mp) * (m == -mp)
    return out


def wigner_d_stack(l_max: int, R):
    """Complex Wigner blocks D^l(R), shape (2l+1, 2l+1), for all l <= l_max.

    R is one rotation (3, 3) or a batch (N, 3, 3), which gives every block a
    leading N axis.  One recurrence step per l covers every (m, m', R).
    """
    R = np.asarray(R, dtype=float)
    alpha, beta, gamma = (np.atleast_1d(a) for a in zyz_from_rotation(R))
    ms = np.arange(-l_max, l_max + 1)
    seed = _wigner_d_seed(ms[:, None], ms[None, :], beta)
    x = np.cos(beta)[:, None, None]
    d = [np.ones((beta.size, 1, 1))]
    for l in range(l_max):   # the outer ring max(|m|, |m'|) = l + 1 is seeded
        nxt = seed[:, l_max - l - 1:l_max + l + 2, l_max - l - 1:l_max + l + 2].copy()
        m = ms[l_max - l:l_max + l + 1]
        nxt[:, 1:-1, 1:-1] = x * d[0] if l == 0 else _wigner_d_step(
            l, m[:, None], m[None, :], x, d[l], np.pad(d[l - 1], ((0, 0), (1, 1), (1, 1))))
        d.append(nxt)
    out = []
    for l, dl in enumerate(d):
        w = slice(l_max - l, l_max + l + 1)
        dl[beta == 0.0] = np.eye(2 * l + 1)
        dl[beta == np.pi] = np.eye(2 * l + 1)[::-1] * (-1.0) ** (l - ms[w])
        ea, eg = (np.exp(-1j * ms[w] * angle[:, None]) for angle in (alpha, gamma))
        D = ea[:, :, None] * dl * eg[:, None, :]
        out.append(D if R.ndim == 3 else D[0])
    return out


def wigner_d_complex(l: int, R) -> np.ndarray:
    """Complex Wigner block D^l_{mm'}(R), shape (2l+1, 2l+1), m ascending."""
    return wigner_d_stack(l, R)[l]


@lru_cache(maxsize=None)
def _c2r_block(m: int) -> np.ndarray:
    """M^{C->R} 2x2 block for |m| > 0, rows/cols ordered (+|m|, -|m|)."""
    sign = (-1.0) ** m
    blk = np.array([[1.0, sign], [-1.0j, sign * 1.0j]]) / math.sqrt(2.0)
    blk.setflags(write=False)
    return blk


def complex_to_real_block(l: int) -> np.ndarray:
    """Unitary (2l+1)x(2l+1) matrix U with Y^R_lm = sum_m' U_{mm'} Y^C_{lm'}."""
    n = 2 * l + 1
    U = np.zeros((n, n), dtype=complex)
    U[l, l] = 1.0
    for m in range(1, l + 1):
        blk = _c2r_block(m)
        U[l + m, l + m] = blk[0, 0]
        U[l + m, l - m] = blk[0, 1]
        U[l - m, l + m] = blk[1, 0]
        U[l - m, l - m] = blk[1, 1]
    return U


@lru_cache(maxsize=8)
def complex_to_real_matrix(l_max: int) -> np.ndarray:
    """Block-diagonal (read-only) complex_to_real_block over l = 0..l_max."""
    U = np.zeros((sh_size(l_max), sh_size(l_max)), dtype=complex)
    for l in range(l_max + 1):
        sl = slice(l * l, (l + 1) ** 2)
        U[sl, sl] = complex_to_real_block(l)
    U.setflags(write=False)
    return U


def wigner_d_real_from_complex(D: np.ndarray) -> np.ndarray:
    """Convert complex Wigner blocks (..., 2l+1, 2l+1) to the real-SH basis."""
    U = complex_to_real_block((D.shape[-1] - 1) // 2)
    return (U.conj() @ D @ U.T).real


def wigner_d_real(l: int, R) -> np.ndarray:
    """Real Wigner block D^{l,R}(R) via the C->R change of basis."""
    return wigner_d_real_from_complex(wigner_d_complex(l, R))


def sh_rotate_coeffs(coeffs: ShCoeffs, R) -> ShCoeffs:
    """Rotate coefficients: f'_{lm} = sum_m' D^l_{mm'}(R) f_{lm'}."""
    out = np.zeros_like(coeffs.values,
                        dtype=complex if coeffs.kind == "complex" else float)
    stack = wigner_d_stack(coeffs.l_max, R)
    for l in range(coeffs.l_max + 1):
        sl = slice(sh_index(l, -l), sh_index(l, l) + 1)
        block = stack[l] if coeffs.kind == "complex" else wigner_d_real_from_complex(stack[l])
        out[sl] = block @ coeffs.values[sl]
    return ShCoeffs(coeffs.l_max, coeffs.kind, out)


def sh_coeffs_r2c(coeffs: ShCoeffs) -> ShCoeffs:
    """Convert real-SH coefficients of a function to complex-SH coefficients."""
    if coeffs.kind != "real":
        raise ValueError("expected real coefficients")
    out = np.zeros(coeffs.values.shape, dtype=complex)
    for l in range(coeffs.l_max + 1):
        sl = slice(sh_index(l, -l), sh_index(l, l) + 1)
        out[sl] = complex_to_real_block(l).T @ coeffs.values[sl]
    return ShCoeffs(coeffs.l_max, "complex", out)


# ---------------------------------------------------------------------------
# zonal convolution
# ---------------------------------------------------------------------------

def sh_convolve(kernel_zonal: ShCoeffs, coeffs: ShCoeffs) -> ShCoeffs:
    """f'_{lm} = sqrt(4 pi / (2l+1)) k_{l0} f_{lm}; kernel must be zonal."""
    if kernel_zonal.l_max < coeffs.l_max:
        raise ValueError("kernel band too small")
    for l, m in sh_lm_list(kernel_zonal.l_max):
        if m != 0 and abs(kernel_zonal.values[sh_index(l, m)]) > 1e-12:
            raise ValueError("kernel has non-zonal (m != 0) content")
    out = np.array(coeffs.values,
                   dtype=complex if coeffs.kind == "complex" else float)
    for l in range(coeffs.l_max + 1):
        sl = slice(sh_index(l, -l), sh_index(l, l) + 1)
        out[sl] *= math.sqrt(FOUR_PI / (2 * l + 1)) * np.real(kernel_zonal.values[sh_index(l, 0)])
    return ShCoeffs(coeffs.l_max, coeffs.kind, out)


# ---------------------------------------------------------------------------
# Wigner 3-j and triple products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=200000)
def wigner3j(l1, l2, l3, m1, m2, m3) -> float:
    """Wigner 3-j symbol; zero when the selection rules fail."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    tri = (Fraction(math.factorial(l1 + l2 - l3) * math.factorial(l1 - l2 + l3)
                    * math.factorial(-l1 + l2 + l3), math.factorial(l1 + l2 + l3 + 1)))
    pref = (math.factorial(l1 + m1) * math.factorial(l1 - m1)
            * math.factorial(l2 + m2) * math.factorial(l2 - m2)
            * math.factorial(l3 + m3) * math.factorial(l3 - m3))
    kmin = max(0, l2 - l3 - m1, l1 - l3 + m2)
    kmax = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (math.factorial(k) * math.factorial(l1 + l2 - l3 - k)
                 * math.factorial(l1 - m1 - k) * math.factorial(l2 + m2 - k)
                 * math.factorial(l3 - l2 + m1 + k) * math.factorial(l3 - l1 - m2 + k))
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return 0.0
    sign = (-1) ** (l1 - l2 - m3)
    return sign * math.sqrt(float(tri) * pref) * float(total)


def triple_product_000(l1, m1, l2, m2, l3, m3) -> float:
    """Integral of Y*_{l1 m1} Y_{l2 m2} Y_{l3 m3} over the sphere."""
    return ((-1.0) ** m1
            * math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / FOUR_PI)
            * wigner3j(l1, l2, l3, -m1, m2, m3)
            * wigner3j(l1, l2, l3, 0, 0, 0))


def reflection_coeff_scalar(l: int, m: int) -> float:
    """Diagonal coefficient (-1)^(l+m) of the z-flip acting on scalar SH."""
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    return (-1.0) ** (l + m)
