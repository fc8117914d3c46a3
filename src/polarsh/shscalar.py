"""Scalar (spin-0) spherical harmonics and the one spin-weighted generator.

Evaluation, projection, Wigner-D rotation, the zonal convolution theorem,
Wigner 3-j triple products, and the z-flip reflection operator.  Real and
complex coefficients cross bases only by the row rule _c2r_rows (c2r_values,
r2c_values, wigner_d_real_from_complex); no dense change of basis is formed,
and rotation works in the complex basis.

Both parts of the PSH basis follow one identity,
  sY_lm(theta, phi) = sqrt((2l+1)/(4 pi)) d^l_{m,-s}(theta) e^{i m phi},
with s = 0 here and s = 2 for the linear pair.  spin_theta_table generates
its theta factor for every (l, m); basis matrices at scattered points
multiply it by the phase, and grid transforms are ring transforms
(ring_analysis / ring_synthesis).  The same factor is also a Fourier series
in theta through Delta = d(pi/2) (_theta_fourier), which kernel rows and
coefficient sums at scattered points read instead (_theta_fourier_rows,
_fourier_table, _fourier_eval).

Conventions (pinned, since libraries differ): for s = 0 this is
  Y_lm(theta, phi) = A_lm P_l^m(cos theta) e^{i m phi},
  A_lm = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!),
with the Condon-Shortley phase (-1)^m inside P_l^m, and
  P_l^{-m} = (-1)^m (l-m)!/(l+m)! P_l^m  for m >= 0.
Wigner D is D^l_{mm'}(R) = <Y_lm, R_F[Y_lm']> = e^{-i m a} d^l_{mm'}(b) e^{-i m' g}
for R = Rz(a) Ry(b) Rz(g).  There is one l-recurrence, _theta_blocks: the
upward three-term recurrence on one column m' = -s, each m seeded at
l = max(|m|, s) by the single-term closed form with its binomial taken from
a log-factorial table, so no factorial is formed and there is no band
ceiling.  Rotation factorizes through Delta = d(pi/2) (Risbo 1996):
  d^l_{mm'}(b) = i^{m-m'} sum_k Delta^l_{km} e^{-ikb} Delta^l_{km'},
with Delta built once per l_max by that recurrence in long double, so every
tilt rounds alike; the poles b = 0, pi are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geom import SphereGrid, is_rotation, zyz_from_rotation

FOUR_PI = 4.0 * np.pi
_CHUNK = 2048      # scattered points per pass of a basis evaluation: small temporaries


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


@lru_cache(maxsize=None)
def sh_lm_arrays(l_max: int):
    """Read-only (l, m) of every position in sh_index order."""
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    m = np.arange(l.size) - l * l - l
    for a in (l, m):
        a.setflags(write=False)
    return l, m


def _check_l_max(l_max):
    if isinstance(l_max, bool) or not isinstance(l_max, (int, np.integer)) or l_max < 0:
        raise ValueError(f"l_max must be an integer >= 0, got {l_max!r}")


@dataclass
class ShCoeffs:
    """Coefficient vector over (l, m); kind is 'complex' or 'real'."""
    l_max: int
    kind: str
    values: np.ndarray

    def __post_init__(self):
        _check_l_max(self.l_max)
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


# ---------------------------------------------------------------------------
# Wigner d and D
# ---------------------------------------------------------------------------

def wigner_small_d_racah(l, m, mp, beta):
    """Factorial-sum (Racah) evaluation of d^l_{m m'}(beta); reference path.

    Its alternating sum cancels: against exact rational values it is off by
    1.3e-11 at l = 20 (beta = pi/2), 3e-9 at l = 30 and 2e-6 at l = 40
    (beta = 2 atan(3/4)).  It checks the Wigner engine at a 1e-11 bound only
    up to l of about 16.
    """
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
    """Read-only log(k!) for k = 0..n, as cumulative sums of log k in long double."""
    table = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=np.longdouble)))))
    table.setflags(write=False)
    return table


def _wigner_d_seed(m, mp, beta):
    """d^{l0}_{mm'}(beta) at l0 = max(|m|, |m'|), shape beta.shape + m.shape:
    +-sqrt(C(2 l0, l0 + n)) cos(b/2)^(2 l0 - q) sin(b/2)^q with n = min(|m|,
    |m'|), q = |m - m'| and sign (-1)^q for m > m'; in beta's dtype."""
    l0, n, q = np.maximum(abs(m), abs(mp)), np.minimum(abs(m), abs(mp)), abs(m - mp)
    log_fact = _log_factorials(2 * int(l0.max()))
    coef = (-1.0) ** (q * (m > mp)) * np.exp(
        0.5 * (log_fact[2 * l0] - log_fact[l0 + n] - log_fact[l0 - n])).astype(beta.dtype)
    half = beta.reshape(beta.shape + (1,) * np.ndim(m)) / 2.0
    return coef * np.cos(half) ** (2 * l0 - q) * np.sin(half) ** q


def _zero_bordered(a):
    """a inside a zero border one wide on its last axis: the previous step at
    the size of the current one (np.pad without its call overhead)."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 2,), dtype=a.dtype)
    out[..., 1:-1] = a
    return out


def _wigner_d_step(l, m, mp, x, d, d_prev):
    """d^{l+1}_{mm'} from d^l and d^{l-1} (1 <= l, |m|, |m'| <= l)."""
    return (((2 * l + 1) * (l * (l + 1) * x - m * mp) * d
             - (l + 1) * ((l * l - m * m) * (l * l - mp * mp)) ** 0.5 * d_prev)
            / (l * (((l + 1) ** 2 - m * m) * ((l + 1) ** 2 - mp * mp)) ** 0.5))


def _half_pi_column(l_max: int, s: int):
    """Yield (l, Delta^l_{k,-s} for k = 0..l) for l = s..l_max, Delta^l = d^l(pi/2).

    It is _theta_blocks' column m' = -s at theta = pi/2, run in long double
    and rounded to float64 once; column +s follows from
    d_{k,-m}(pi/2) = (-1)^(l+k) d_{km}(pi/2).
    """
    theta = np.arccos(np.zeros(1, dtype=np.longdouble))    # pi/2 in long double
    for l, block in _theta_blocks(l_max, s, theta):
        yield l, (block[0, l:] / math.sqrt((2 * l + 1) / FOUR_PI)).astype(float)


@lru_cache(maxsize=4)
def _half_pi_factors(l_max: int):
    """Read-only u^l = Delta^l_{km} i^(-m) for k = 0..l, m = -l..l and every
    l <= l_max, with Delta^l = d^l(pi/2): the factors of wigner_d_stack,
    one _half_pi_column per s."""
    i_pow = np.array([1, -1j, -1, 1j])                     # i^(-m) at m mod 4
    u = [np.empty((l + 1, 2 * l + 1), dtype=complex) for l in range(l_max + 1)]
    for s in range(l_max + 1):
        for l, col in _half_pi_column(l_max, s):
            u[l][:, l - s] = i_pow[-s % 4] * col
            u[l][:, l + s] = i_pow[s % 4] * (-1.0) ** (l + np.arange(l + 1)) * col
    for table in u:
        table.setflags(write=False)
    return tuple(u)


def _theta_fourier(l, k, s: int, m, delta_m, delta_s):
    """Fourier coefficients in theta of sqrt((2l+1)/(4 pi)) d^l_{m,-s}(theta):
      sqrt((2l+1)/(4 pi)) d^l_{m,-s}(theta) = sum_k a^l_{km} cos(k theta)  (m + s even)
                                            = sum_k a^l_{km} sin(k theta)  (m + s odd),
    a^l_{km} = sqrt((2l+1)/(4 pi)) eps_k i^(m+s) Delta^l_{km} Delta^l_{k,-s}
    with eps_0 = 1, else 2, and i^(m+s) taken as its real or imaginary part:
    the Delta factorization of d folded onto k >= 0 (Risbo 1996; Huffenberger
    & Wandelt 2010).  l, k and m broadcast against delta_m (Delta^l_{km}) and
    delta_s (Delta^l_{k,-s}).
    """
    return (np.sqrt((2 * l + 1) / FOUR_PI) * np.where(k > 0, 2.0, 1.0)
            * np.where((m + s) % 4 < 2, 1.0, -1.0) * delta_m * delta_s)


@lru_cache(maxsize=8)
def _theta_fourier_rows(l_max: int, pairs: tuple) -> np.ndarray:
    """Read-only _theta_fourier coefficients a^l_k of each (s, m) in pairs,
    shape (len(pairs), l_max + 1, l_max + 1) over (pair, l, k), zero where
    l < max(|m|, s).  Built from the Delta columns m' = -s and -|m| alone
    (_half_pi_column), O(l_max^2), never the full _half_pi_factors: that is
    what keeps a one-shot kernel_coeffs cheap."""
    cols = {}
    for r in {r for s, m in pairs for r in (s, abs(m))}:
        cols[r] = np.zeros((l_max + 1, l_max + 1))          # Delta^l_{k,-r} over (l, k)
        for l, col in _half_pi_column(l_max, r):
            cols[r][l, :l + 1] = col
    l, k = np.ogrid[:l_max + 1, :l_max + 1]
    # Delta_{k,|m|} = (-1)^(l+k) Delta_{k,-|m|}
    out = np.stack([_theta_fourier(l, k, s, m, cols[abs(m)] * (-1.0) ** ((m > 0) * (l + k)), cols[s])
                    for s, m in pairs])
    out.setflags(write=False)
    return out


def _fourier_table(coeffs, s: int) -> np.ndarray:
    """F_km = sum_l c_lm a^l_km (_theta_fourier) for k = 0..l_max and
    m = -l_max..l_max, from coefficients c over sh_index order (zero below
    l = s): sum_lm c_lm sY_lm(theta, phi) = sum_{k,m} F_km t_km(theta) e^{i m phi}
    with t_km = cos(k theta) for m + s even and sin(k theta) for m + s odd.
    O(l_max^3), from the cached factors of _half_pi_factors."""
    l_max = math.isqrt(np.shape(coeffs)[-1]) - 1
    i_pow = np.array([1, 1j, -1, -1j])                     # i^m at m mod 4
    table = np.zeros((l_max + 1, 2 * l_max + 1), dtype=complex)
    for l, u in enumerate(_half_pi_factors(l_max)):
        if l < s:
            continue
        m = np.arange(-l, l + 1)
        delta = (u * i_pow[m % 4]).real                  # Delta^l_{km}, exactly
        a = _theta_fourier(l, np.arange(l + 1)[:, None], s, m, delta, delta[:, l - s, None])
        table[:l + 1, l_max - l:l_max + l + 1] += a * coeffs[l * l:(l + 1) ** 2]
    return table


def _fourier_eval(tables, theta, phi) -> np.ndarray:
    """sum_{k,m} F_km t_km(theta) e^{i m phi} (as in _fourier_table) for each of
    the tables (n_t, l_max+1, 2 l_max+1) of even spin (s = 0, 2: cos columns at
    even m, sin columns at odd m) at the points theta, phi (N,), as (N, n_t).
    Per _CHUNK points: two real products of cos(k theta) and sin(k theta)
    against the tables' cos and sin columns, then a row-wise dot with
    e^{i m phi}; no l-recurrence per point."""
    n_t, l_max = tables.shape[0], tables.shape[1] - 1
    m = np.arange(-l_max, l_max + 1)
    parts = [m % 2 == 0, m % 2 == 1]                    # cos columns, sin columns
    by_k = np.moveaxis(tables, 0, 1)                    # (l_max+1, n_t, 2 l_max+1)
    flat = [np.ascontiguousarray(by_k[..., p]).view(float).reshape(l_max + 1, -1) for p in parts]
    out = np.empty((theta.size, n_t), dtype=complex)
    for lo in range(0, theta.size, _CHUNK):
        th, ph = theta[lo:lo + _CHUNK], phi[lo:lo + _CHUNK]
        e_th = _cis_powers(l_max, th)
        e_ph = _cis_powers(l_max, ph)
        e_ph = np.concatenate([e_ph[:, :0:-1].conj(), e_ph], axis=1)     # m = -l_max..l_max
        acc = 0.0
        for p, t, f in zip(parts, (e_th.real, e_th.imag), flat):
            g = (t @ f).view(complex).reshape(th.size, n_t, -1)
            acc = acc + (g @ e_ph[:, p, None])[..., 0]
        out[lo:lo + _CHUNK] = acc
    return out


def _cis_powers(n_max: int, x) -> np.ndarray:
    """e^{i n x} for n = 0..n_max at float64 x, shape (x.size, n_max + 1), each
    within a few ulps: n = b q + r (b = isqrt(n_max) + 1, 0 <= r < b) takes the
    product of e^{i b q x} and e^{i r x}, 2b complex exponentials per point.
    Their arguments are kept exact: x = hi + lo with the low bits of hi's
    mantissa cleared so that n hi is exact in float64 for every n used, and
    e^{i n x} = e^{i n hi} (1 + i n lo) to within (n lo)^2 / 2 (below 1e-21 for
    |x| <= 2 pi and n_max <= 255).  A rounded n x would be off by up to half
    an ulp of it."""
    b = math.isqrt(n_max) + 1
    n = np.arange(b)
    x = np.ascontiguousarray(x, dtype=float)
    mask = ~((1 << (b * (b - 1)).bit_length()) - 1) & 0xFFFFFFFFFFFFFFFF
    hi = (x.view(np.uint64) & np.uint64(mask)).view(float)
    lo = x - hi

    def cis(n):
        return np.exp(1j * (hi[:, None] * n)) * (1.0 + 1j * (lo[:, None] * n))

    return (cis(b * n)[:, :, None] * cis(n)[:, None, :]).reshape(x.size, -1)[:, :n_max + 1]


def wigner_d_stack(l_max: int, R):
    """Complex Wigner blocks D^l(R), shape (2l+1, 2l+1), for all l <= l_max.

    R is one rotation (3, 3) or a batch (N, 3, 3), which gives every block a
    leading N axis.  Each d^l(beta) is one batched product of the cached
    d(pi/2) factors: the sum over k = -l..l, folded onto k >= 0 by
    Delta_{-k,m} = (-1)^(l+m) Delta_{km}, is d = Re(u^H diag(eps_k e^{-ik beta}) u)
    with eps_0 = 1, else 2.  beta = 0 and pi give the exact identity and flip blocks.
    Any other shape, or a matrix that is not a finite rotation to 1e-6 (the
    pose tolerance of s2l2.ViewSpec), raises a ValueError naming the first.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim not in (2, 3) or R.shape[-2:] != (3, 3):
        raise ValueError(f"R must have shape (3, 3) or (N, 3, 3), got {R.shape}")
    bad = np.flatnonzero(~np.atleast_1d(is_rotation(R, 1e-6)))
    if bad.size:
        name, bad_R = ("R", R) if R.ndim == 2 else (f"R[{bad[0]}]", R[bad[0]])
        raise ValueError(f"{name} is not a finite rotation to 1e-6: {bad_R.tolist()}")
    alpha, beta, gamma = (np.atleast_1d(a) for a in zyz_from_rotation(R))
    k = np.arange(l_max + 1)
    w = np.where(k > 0, 2.0, 1.0) * np.exp(-1j * k * beta[:, None])
    out = []
    for l, u in enumerate(_half_pi_factors(l_max)):
        m = np.arange(-l, l + 1)
        d = ((u.T.conj() * w[:, None, :l + 1]) @ u).real
        d[beta == 0.0] = np.eye(2 * l + 1)
        d[beta == np.pi] = np.eye(2 * l + 1)[::-1] * (-1.0) ** (l - m)
        ea, eg = (np.exp(-1j * m * angle[:, None]) for angle in (alpha, gamma))
        D = ea[:, :, None] * d * eg[:, None, :]
        out.append(D if R.ndim == 3 else D[0])
    return out


def wigner_d_complex(l: int, R) -> np.ndarray:
    """Complex Wigner block D^l_{mm'}(R), shape (2l+1, 2l+1), m ascending."""
    return wigner_d_stack(l, R)[l]


def _c2r_rows(m):
    """Row m of the unitary C->R change of basis U, Y^R_lm = sum_m' U_{mm'} Y_lm',
    vectorized over m: U[m, m] = diag and U[m, -m] += off (off = 0 at m = 0),
    its only nonzeros; no dense U is formed."""
    sign = 1.0 - 2.0 * (m % 2)
    diag = np.where(m > 0, 1.0, np.where(m < 0, 1j * sign, math.sqrt(2.0))) / math.sqrt(2.0)
    off = np.where(m > 0, sign, np.where(m < 0, -1j, 0.0)) / math.sqrt(2.0)
    return diag, off


def c2r_values(c):
    """Real-basis coefficients conj(U) c from complex-basis ones, along the
    last axis in sh_index order (U as in _c2r_rows)."""
    m = sh_lm_arrays(math.isqrt(np.shape(c)[-1]) - 1)[1]
    diag, off = _c2r_rows(m)
    return diag.conj() * c + off.conj() * c[..., np.arange(m.size) - 2 * m]


def r2c_values(r):
    """Complex-basis coefficients U^T r from real-basis ones (inverse of c2r_values)."""
    m = sh_lm_arrays(math.isqrt(np.shape(r)[-1]) - 1)[1]
    mirror = np.arange(m.size) - 2 * m
    diag, off = _c2r_rows(m)
    return diag * r + off[mirror] * r[..., mirror]


def wigner_d_real_from_complex(D: np.ndarray) -> np.ndarray:
    """Real-SH Wigner blocks conj(U) D U^T from complex ones (..., 2l+1, 2l+1):
    _c2r_rows' two nonzeros per row on each side, -m at the reversed index."""
    diag, off = _c2r_rows(np.arange(D.shape[-1]) - (D.shape[-1] - 1) // 2)
    X = diag.conj()[:, None] * D + off.conj()[:, None] * D[..., ::-1, :]
    return (X * diag + X[..., ::-1] * off).real


def rotate_bands(x, R):
    """D^l(R) x_l for every band l of complex-basis columns x (..., (l_max+1)^2, k)
    in sh_index order, one product per band; a batch of R (N, 3, 3) gives a
    leading N axis that the leading axes of x broadcast against."""
    return np.concatenate([D @ x[..., l * l:(l + 1) ** 2, :] for l, D in
                           enumerate(wigner_d_stack(math.isqrt(x.shape[-2]) - 1, R))], axis=-2)


def sh_rotate_coeffs(coeffs: ShCoeffs, R) -> ShCoeffs:
    """Rotate coefficients: f'_{lm} = sum_m' D^l_{mm'}(R) f_{lm'}, in the
    complex basis (real ones cross it by r2c_values and c2r_values)."""
    real = coeffs.kind == "real"
    out = rotate_bands((r2c_values(coeffs.values) if real else coeffs.values)[:, None], R)[:, 0]
    if real:
        out = c2r_values(out) if np.iscomplexobj(coeffs.values) else c2r_values(out).real
    return ShCoeffs(coeffs.l_max, coeffs.kind, out)


# ---------------------------------------------------------------------------
# spin-weighted harmonics: one generator
# ---------------------------------------------------------------------------

def spin_theta_table(l_max: int, s: int, theta) -> np.ndarray:
    """sqrt((2l+1)/(4 pi)) d^l_{m,-s}(theta) for every (l, m) in sh_index order.

    Shape (n_theta, (l_max+1)^2); zero where l < max(|m|, s); 0 <= s <= l_max.
    This is the theta factor of sY_lm = (this) e^{i m phi}.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float)).ravel()
    out = np.zeros((theta.size, sh_size(l_max)))
    for l, block in _theta_blocks(l_max, s, theta):
        out[:, l * l:(l + 1) ** 2] = block
    return out


def _theta_blocks(l_max, s, theta):
    """Yield (l, block l of spin_theta_table) for l = s..l_max, 0 <= s <= l_max.

    The package's one l-recurrence: d^l_{m,-s}(theta) on the column m' = -s,
    one three-term step per l over every m, each m seeded at l = max(|m|, s)
    by the single-term closed form.  It computes in theta's dtype (long
    double for the d(pi/2) factors of wigner_d_stack); the poles are exact.
    """
    ms = np.arange(-l_max, l_max + 1)
    seed = _wigner_d_seed(ms, -s, theta)
    x = np.cos(theta)[:, None]
    d = d_prev = np.zeros((theta.size, max(2 * s - 1, 1)), dtype=theta.dtype)
    for l in range(s, l_max + 1):
        m = ms[l_max - l:l_max + l + 1]
        nxt = seed[:, l_max - l:l_max + l + 1].copy()   # the ring |m| = l is seeded
        if l > s:                                       # else every m is seeded
            nxt[:, 1:-1] = x * d if l == 1 else _wigner_d_step(
                l - 1, m[1:-1].astype(theta.dtype), -s, x, d, _zero_bordered(d_prev))
        nxt[theta == 0.0] = m == -s
        nxt[theta == np.pi] = (m == s) * (-1.0) ** (l + s)
        yield l, math.sqrt((2 * l + 1) / FOUR_PI) * nxt
        d, d_prev = nxt, d


def _basis(l_max, s, theta, phi, phase):
    """Block l of spin_theta_table(theta) times phase(m, phi) for m = -l..l,
    for every l >= s, at broadcast scattered points (no full table is held)."""
    theta, phi = (np.ravel(a).astype(float) for a in np.broadcast_arrays(theta, phi))
    ph = phase(np.arange(-l_max, l_max + 1), phi[:, None])
    out = np.empty((theta.size, max(sh_size(l_max) - s * s, 0)), dtype=ph.dtype)
    for lo in range(0, theta.size, _CHUNK):
        for l, block in _theta_blocks(l_max, s, theta[lo:lo + _CHUNK]):
            np.multiply(block, ph[lo:lo + _CHUNK, l_max - l:l_max + l + 1],
                        out=out[lo:lo + _CHUNK, l * l - s * s:(l + 1) ** 2 - s * s])
    return out


def _cis(m, phi):
    return np.exp(1j * m * phi)


def sh_basis_complex(l_max: int, theta, phi) -> np.ndarray:
    """Matrix of Y_lm values, shape (n_points, (l_max+1)^2)."""
    return _basis(l_max, 0, theta, phi, _cis)


def sh_basis_real(l_max: int, theta, phi) -> np.ndarray:
    """Matrix of real SH values Y^R_lm, shape (n_points, (l_max+1)^2): sqrt(2)
    Re Y_lm for m > 0, and for m < 0 sqrt(2) Im Y_l|m| = sqrt(2) (-1)^m T_lm
    sin(|m| phi) with T the spin_theta_table (T_{l,-m} = (-1)^m T_lm)."""
    r2 = math.sqrt(2.0)
    return _basis(l_max, 0, theta, phi, lambda m, p: np.where(
        m > 0, r2 * np.cos(m * p), np.where(m < 0, r2 * (1 - 2 * (m % 2)) * np.sin(-m * p), 1.0)))


def sh_complex(l: int, m: int, theta, phi):
    """Single complex SH value(s); |m| <= l."""
    y = sh_basis_complex(l, theta, phi)[:, sh_index(l, m)]
    return y[0] if y.size == 1 else y


def sh_real(l: int, m: int, theta, phi):
    """Single real SH value(s); |m| <= l."""
    y = sh_basis_real(l, theta, phi)[:, sh_index(l, m)]
    return float(y[0]) if y.size == 1 else y


# ---------------------------------------------------------------------------
# ring transforms on quadrature grids
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _ring_table(l_max: int, s: int, theta_nodes: bytes) -> np.ndarray:
    table = spin_theta_table(l_max, s, np.frombuffer(theta_nodes))
    table.setflags(write=False)
    return table


def ring_table(l_max: int, s: int, grid: SphereGrid) -> np.ndarray:
    """Read-only spin_theta_table at a grid's theta nodes, cached per (l_max, s, nodes)."""
    return _ring_table(l_max, s, np.asarray(grid.theta_nodes, dtype=float).tobytes())


def ring_analysis(values, grid: SphereGrid, l_max: int, s: int) -> np.ndarray:
    """<sY_lm, f> for every (l, m) from grid samples (..., n_theta, n_phi), as
    (..., (l_max+1)^2): an FFT over phi per ring, read at m mod n_phi, then a
    theta sum against the ring table with the ring weights."""
    m = sh_lm_arrays(l_max)[1]
    rings = np.fft.fft(values, axis=-1)[..., m % grid.n_phi]
    return np.sum(rings * (grid.theta_weights[:, None] * ring_table(l_max, s, grid)), axis=-2)


def ring_synthesis(coeffs, grid: SphereGrid, s: int) -> np.ndarray:
    """sum_lm c_lm sY_lm on a grid, (..., (l_max+1)^2) -> (..., n_theta, n_phi):
    the reverse of ring_analysis, each ring's theta sum at m lands in bin
    m mod n_phi, then an inverse FFT over phi."""
    l_max = math.isqrt(np.shape(coeffs)[-1]) - 1
    m = sh_lm_arrays(l_max)[1]
    fold = (m[:, None] % grid.n_phi == np.arange(grid.n_phi)).astype(float)
    rings = ring_table(l_max, s, grid) * np.asarray(coeffs)[..., None, :]
    return np.fft.ifft(rings.real @ fold + 1j * (rings.imag @ fold), axis=-1) * grid.n_phi


def sh_project(field: np.ndarray, grid: SphereGrid, l_max: int, kind="complex") -> ShCoeffs:
    """Project grid samples onto SH up to l_max: f_lm = <Y_lm, f>.

    `field` has shape (n_theta, n_phi); the grid band must be at least l_max.
    """
    _check_l_max(l_max)
    if grid.band < l_max:
        raise ValueError(f"grid band {grid.band} insufficient for l_max {l_max}")
    vals = np.reshape(field, (np.size(grid.theta_nodes), grid.n_phi))
    coeff = ring_analysis(vals, grid, l_max, 0)
    if kind == "real":
        coeff = c2r_values(coeff)
        coeff = coeff if np.iscomplexobj(vals) else coeff.real
    return ShCoeffs(l_max, kind, coeff)


def sh_reconstruct(coeffs: ShCoeffs, theta, phi):
    """Evaluate sum_lm f_lm Y_lm at the given angles."""
    fn = sh_basis_complex if coeffs.kind == "complex" else sh_basis_real
    out = fn(coeffs.l_max, theta, phi) @ coeffs.values
    shape = np.broadcast(np.asarray(theta), np.asarray(phi)).shape
    return out.reshape(shape) if shape else out[0]


# ---------------------------------------------------------------------------
# zonal convolution
# ---------------------------------------------------------------------------

def sh_convolve(kernel_zonal: ShCoeffs, coeffs: ShCoeffs) -> ShCoeffs:
    """f'_{lm} = sqrt(4 pi / (2l+1)) k_{l0} f_{lm}; kernel must be zonal."""
    if kernel_zonal.l_max < coeffs.l_max:
        raise ValueError("kernel band too small")
    m = sh_lm_arrays(kernel_zonal.l_max)[1]
    if np.abs(kernel_zonal.values[m != 0]).max(initial=0.0) > 1e-12:
        raise ValueError("kernel has non-zonal (m != 0) content")
    l = sh_lm_arrays(coeffs.l_max)[0]
    out = (np.asarray(coeffs.values, dtype=complex if coeffs.kind == "complex" else float)
           * (np.sqrt(FOUR_PI / (2 * l + 1)) * np.real(kernel_zonal.values[l * l + l])))
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
