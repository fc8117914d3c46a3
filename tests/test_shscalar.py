import math
from fractions import Fraction

import numpy as np
import pytest

from polarsh import geom, pipeline, psh
from polarsh import shscalar as sh


def rodrigues_legendre(l, m, x):
    """Independent P_l^m oracle: differentiate the Legendre polynomial."""
    base = np.polynomial.legendre.Legendre.basis(l).convert(kind=np.polynomial.Polynomial)
    dm = base.deriv(m)
    return (-1.0) ** m * (1 - x * x) ** (m / 2.0) * dm(x)


def test_assoc_legendre_basics(rng):
    x = rng.uniform(-1, 1, 20)
    assert np.abs(sh.assoc_legendre(0, 0, x) - 1).max() == 0
    assert np.abs(sh.assoc_legendre(1, 0, x) - x).max() == 0
    assert abs(sh.assoc_legendre(2, 2, 0.3) - rodrigues_legendre(2, 2, 0.3)) < 1e-13
    for _ in range(50):
        l = int(rng.integers(0, 12))
        m = int(rng.integers(0, l + 1)) if l else 0
        xx = rng.uniform(-1, 1)
        assert abs(sh.assoc_legendre(l, m, xx) - rodrigues_legendre(l, m, xx)) \
            < 1e-10 * max(1, abs(rodrigues_legendre(l, m, xx)))
    # negative-m relation
    assert abs(sh.assoc_legendre(3, -2, 0.4)
               - (-1) ** 2 * math.factorial(1) / math.factorial(5)
               * sh.assoc_legendre(3, 2, 0.4)) < 1e-14


def test_assoc_legendre_domain_error():
    with pytest.raises(ValueError):
        sh.assoc_legendre(2, 1, 1.1)
    with pytest.raises(ValueError):
        sh.assoc_legendre(2, 3, 0.5)


def test_sh_complex_known_values(rng):
    th, ph = 0.77, 2.13
    assert abs(sh.sh_complex(0, 0, th, ph) - math.sqrt(1 / (4 * np.pi))) < 1e-15
    assert abs(sh.sh_complex(1, 0, th, ph) - math.sqrt(3 / (4 * np.pi)) * np.cos(th)) < 1e-15
    assert abs(sh.sh_complex(1, 1, th, ph)
               + math.sqrt(3 / (8 * np.pi)) * np.sin(th) * np.exp(1j * ph)) < 1e-15
    assert abs(sh.sh_complex(2, -2, th, ph)
               - math.sqrt(15 / (32 * np.pi)) * np.sin(th) ** 2 * np.exp(-2j * ph)) < 1e-15
    for _ in range(30):
        l = int(rng.integers(0, 9))
        m = int(rng.integers(-l, l + 1)) if l else 0
        t, p = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        assert abs(np.conj(sh.sh_complex(l, m, t, p))
                   - (-1.0) ** m * sh.sh_complex(l, -m, t, p)) < 1e-13


def test_sh_real_relations(rng):
    th, ph = 1.1, 0.6
    assert abs(sh.sh_real(3, 0, th, ph) - sh.sh_complex(3, 0, th, ph).real) < 1e-15
    assert abs(sh.sh_real(1, 1, th, ph)
               - math.sqrt(2) * sh.sh_complex(1, 1, th, ph).real) < 1e-15
    assert abs(sh.sh_real(4, -3, th, ph)
               - math.sqrt(2) * sh.sh_complex(4, 3, th, ph).imag) < 1e-15
    g = geom.gauss_legendre_grid(8)
    t, p = g.angles()
    w = g.weights().ravel()
    B = sh.sh_basis_real(8, t.ravel(), p.ravel())
    gram = B.T @ (w[:, None] * B)
    assert np.abs(gram - np.eye(81)).max() < 1e-12


def test_project_reconstruct(rng):
    g = geom.gauss_legendre_grid(8)
    th, ph = g.angles()
    # one-hot at (2, 1)
    f = sh.sh_basis_complex(2, th.ravel(), ph.ravel())[:, sh.sh_index(2, 1)].reshape(th.shape)
    c = sh.sh_project(f, g, 4, "complex")
    one_hot = np.zeros(sh.sh_size(4), dtype=complex)
    one_hot[sh.sh_index(2, 1)] = 1.0
    assert np.abs(c.values - one_hot).max() < 1e-12
    # constant
    c = sh.sh_project(np.full(th.shape, 3.25), g, 4, "complex")
    assert abs(c.values[0] - 3.25 * math.sqrt(4 * np.pi)) < 1e-12
    assert np.abs(c.values[1:]).max() < 1e-12
    # round trip on random band-limited real field
    vals = rng.normal(size=sh.sh_size(6))
    c0 = sh.ShCoeffs(6, "real", vals)
    f = sh.sh_reconstruct(c0, th, ph)
    c1 = sh.sh_project(f, g, 6, "real")
    assert np.abs(c1.values - vals).max() < 1e-10
    # zero / one-hot reconstruct
    assert sh.sh_reconstruct(sh.ShCoeffs(2, "real", np.zeros(9)), 0.3, 0.4) == 0.0
    const = np.zeros(9)
    const[0] = math.sqrt(4 * np.pi)
    assert abs(sh.sh_reconstruct(sh.ShCoeffs(2, "real", const), 0.9, 0.1) - 1.0) < 1e-14


@pytest.mark.parametrize("l_max", [-1, -2, 2.0, True, "3", None])
def test_sh_coeffs_and_project_reject_a_bad_l_max(l_max):
    # ShCoeffs(-2, "real", [1.0]) used to build a one-coefficient vector, and
    # sh_project to die in numpy's empty reduction
    with pytest.raises(ValueError, match="l_max must be an integer >= 0"):
        sh.ShCoeffs(l_max, "real", [1.0])
    with pytest.raises(ValueError, match="l_max must be an integer >= 0"):
        sh.sh_project(np.ones((3, 6)), geom.gauss_legendre_grid(2), l_max)


def test_project_band_check():
    g = geom.gauss_legendre_grid(3)
    with pytest.raises(ValueError):
        sh.sh_project(np.zeros((g.theta_nodes.size, g.n_phi)), g, 5)


def _d_blocks(l_max, betas):
    """d^l(beta) for a batch of beta, from wigner_d_stack at rotation_zyz(0, beta, 0)."""
    return sh.wigner_d_stack(l_max, np.stack([geom.rotation_zyz(0.0, b, 0.0) for b in betas]))


def test_wigner_small_d_against_racah(rng):
    cases = []
    for _ in range(200):
        l = int(rng.integers(0, 22))
        m = int(rng.integers(-l, l + 1)) if l else 0
        mp = int(rng.integers(-l, l + 1)) if l else 0
        cases.append((l, m, mp, rng.uniform(0, np.pi)))
    stack = _d_blocks(21, [beta for *_, beta in cases])
    for i, (l, m, mp, beta) in enumerate(cases):
        assert abs(stack[l][i, l + m, l + mp] - sh.wigner_small_d_racah(l, m, mp, beta)) < 1e-11


def test_spin0_theta_table_matches_assoc_legendre():
    # sqrt((2l+1)/4pi) d^l_{m0}(theta) = A_lm P_l^m(cos theta), Condon-Shortley
    # phase included, for every (l, m) with l <= 30, poles included.  (Near
    # a pole the oracle's sqrt(1 - x^2) loses digits that the table keeps.)
    theta = np.linspace(0.0, np.pi, 25)
    table = sh.spin_theta_table(30, 0, theta)
    for l in range(31):
        for m in range(-l, l + 1):
            a_lm = math.sqrt((2 * l + 1) / (4 * np.pi)
                             * math.factorial(l - m) / math.factorial(l + m))
            ref = a_lm * sh.assoc_legendre(l, m, np.cos(theta))
            assert np.abs(table[:, sh.sh_index(l, m)] - ref).max() < 1e-12, (l, m)


def test_wigner_d_identities(rng):
    # (1) identity rotation
    for l in (0, 1, 4):
        assert np.abs(sh.wigner_d_complex(l, np.eye(3)) - np.eye(2 * l + 1)).max() < 1e-14
    # first-few values: D^1_00 = cos(beta)
    a, b, g = 0.4, 1.2, -0.9
    D1 = sh.wigner_d_complex(1, geom.rotation_zyz(a, b, g))
    assert abs(D1[1, 1] - np.cos(b)) < 1e-14
    assert abs(D1[2, 2] - (1 + np.cos(b)) / 2 * np.exp(-1j * (a + g))) < 1e-14
    assert abs(D1[1, 0] + np.sin(b) / np.sqrt(2) * np.exp(1j * g)) < 1e-14
    for l in (2, 5, 6):
        R1 = geom.random_rotation(rng)
        R2 = geom.random_rotation(rng)
        D1m = sh.wigner_d_complex(l, R1)
        D2 = sh.wigner_d_complex(l, R2)
        # (2) composition
        assert np.abs(D1m @ D2 - sh.wigner_d_complex(l, R1 @ R2)).max() < 1e-12
        # (3)/(4) inverse relations
        Dinv = sh.wigner_d_complex(l, R1.T)
        assert np.abs(D1m @ Dinv - np.eye(2 * l + 1)).max() < 1e-12
        assert np.abs(Dinv - D1m.conj().T).max() < 1e-12
        # (5) index negation
        for m in range(-l, l + 1):
            for mp in range(-l, l + 1):
                assert abs(D1m[l - m, l - mp]
                           - (-1.0) ** (m + mp) * np.conj(D1m[l + m, l + mp])) < 1e-12


def test_wigner_d_quadrature_definition(rng):
    g = geom.gauss_legendre_grid(14)
    th, ph = g.angles()
    w = g.weights().ravel()
    R = geom.random_rotation(rng)
    rot_dirs = g.dirs().reshape(-1, 3) @ R
    tr, pr = geom.dir_to_sph(rot_dirs)
    for l in (1, 3, 6):
        D = sh.wigner_d_complex(l, R)
        B = sh.sh_basis_complex(l, th.ravel(), ph.ravel())
        Br = sh.sh_basis_complex(l, tr, pr)
        for m in (-l, 0, l):
            for mp in (-l, 1 if l else 0, l):
                q = np.sum(w * np.conj(B[:, sh.sh_index(l, m)]) * Br[:, sh.sh_index(l, mp)])
                assert abs(D[l + m, l + mp] - q) < 1e-12


def test_zonal_relation():
    th, ph, psi = 0.9, 2.0, 1.3
    for l in (1, 4, 6):
        D = sh.wigner_d_complex(l, geom.rotation_zyz(ph, th, psi))
        for m in range(-l, l + 1):
            expect = math.sqrt(4 * np.pi / (2 * l + 1)) * np.conj(sh.sh_complex(l, m, th, ph))
            assert abs(D[l + m, l] - expect) < 1e-13


def _exact_small_d(l, m, mp, c=Fraction(4, 5), s=Fraction(3, 5)):
    """d^l_{mm'}(beta) in exact rational arithmetic at cos(beta/2) = c, sin(beta/2) = s.

    Racah's sum without its float cancellation, which costs the float oracle
    about 2e-6 at l = 40; only the final square root is rounded.
    """
    f = math.factorial
    total = sum(Fraction((-1) ** k, f(l + mp - k) * f(k) * f(l - m - k) * f(m - mp + k))
                * c ** (2 * l - 2 * k + mp - m) * s ** (2 * k + m - mp)
                for k in range(max(0, mp - m), min(l + mp, l - m) + 1))
    sign = (-1) ** (m - mp) * (1 if total >= 0 else -1)
    return sign * math.sqrt(total * total * f(l + m) * f(l - m) * f(l + mp) * f(l - mp))


def test_wigner_d_stack_no_band_ceiling(rng):
    # unitary to l = 128 with no OverflowError from factorial seeds
    stack = sh.wigner_d_stack(128, geom.random_rotation(rng))
    for l, D in enumerate(stack):
        err = np.abs(D @ D.conj().T - np.eye(2 * l + 1)).max()
        assert err < (1e-12 if l <= 64 else 1e-11), (l, err)
    # entries against exact rational values, far past the float Racah range
    beta = 2.0 * math.atan2(3.0, 4.0)
    stack = sh.wigner_d_stack(128, geom.rotation_zyz(0.0, beta, 0.0))
    for l in (1, 7, 20, 40, 64, 100, 128):
        for _ in range(12):
            m, mp = (int(v) for v in rng.integers(-l, l + 1, 2))
            assert abs(stack[l][l + m, l + mp] - _exact_small_d(l, m, mp)) < 1e-12, (l, m, mp)


def test_wigner_d_stack_matches_racah(rng):
    # the float Racah sum cancels: at beta = pi/2 its own error is 6e-13 at
    # l = 16 and 1.3e-11 at l = 20; higher l is checked against
    # _exact_small_d above
    for beta in (0.3, np.pi / 2, 2.5):
        stack = sh.wigner_d_stack(16, geom.rotation_zyz(0.0, beta, 0.0))
        for l in (0, 1, 2, 5, 12, 16):
            racah = np.array([[sh.wigner_small_d_racah(l, m, mp, beta)
                               for mp in range(-l, l + 1)] for m in range(-l, l + 1)])
            assert np.abs(stack[l] - racah).max() < 1e-11, (beta, l)


def test_spin_theta_table_poles_exact():
    # d^l_{m,-s}(0) = delta_{m,-s} and d^l_{m,-s}(pi) = (-1)^(l+s) delta_{m,s};
    # the recurrence stays finite and next to those rows 1e-9 from the poles
    for s in (0, 2):
        table = sh.spin_theta_table(64, s, [0.0, 1e-9, np.pi - 1e-9, np.pi])
        l, m = sh.sh_lm_arrays(64)
        nrm = np.sqrt((2 * l + 1) / (4 * np.pi)) * (l >= s)
        assert np.array_equal(table[0], nrm * (m == -s))
        assert np.array_equal(table[3], nrm * (m == s) * (-1.0) ** (l + s))
        assert np.isfinite(table).all()
        assert np.abs(table[1] - table[0]).max() < 1e-6
        assert np.abs(table[2] - table[3]).max() < 1e-6


def test_wigner_d_poles_exact_and_finite():
    # rotation_zyz(0, 1e-9, 0) and (0, pi - 1e-9, 0) have R_zz = +-1 in floats
    stack = _d_blocks(64, [0.0, 1e-9, np.pi - 1e-9, np.pi])
    for l, d in enumerate(stack):
        m = np.arange(-l, l + 1)
        at0 = np.eye(2 * l + 1)
        atpi = np.eye(2 * l + 1)[::-1] * (-1.0) ** (l - m)    # (-1)^(l-m') at m = -m'
        assert np.array_equal(d[0], at0) and np.array_equal(d[3], atpi)
        assert np.isfinite(d).all()
        assert np.abs(d[1] - at0).max() < 1e-6
        assert np.abs(d[2] - atpi).max() < 1e-6
    # through rotations: exact identity and flip blocks, finite near the poles
    a, g = 0.4, -1.1
    for beta in (0.0, 1e-9, 1e-6, np.pi - 1e-6, np.pi):
        for l, D in enumerate(sh.wigner_d_stack(16, geom.rotation_zyz(a, beta, g))):
            assert np.isfinite(D).all()
            assert np.abs(D @ D.conj().T - np.eye(2 * l + 1)).max() < 1e-13
    D0 = sh.wigner_d_stack(16, np.eye(3))
    assert all(np.array_equal(D, np.eye(2 * l + 1)) for l, D in enumerate(D0))
    flip = geom.rotation_zyz(0.0, np.pi, 0.0)
    for l, D in enumerate(sh.wigner_d_stack(16, flip)):
        ms_l = np.arange(-l, l + 1)
        assert np.array_equal(D.real, np.eye(2 * l + 1)[::-1] * (-1.0) ** (l - ms_l))


# The bounds of the next three tests need an np.longdouble wider than
# float64 (README Conventions).  NEAR_POLE_TILTS holds tilts at and next to
# the poles, among them the chain tilts of benchmark seeds whose L = 32
# rotate check once failed (0.074; 3.092 and 3.125).
NEAR_POLE_TILTS = (1e-12, 1e-9, 1e-6, 0.039, 0.074, np.pi / 2, 3.092, 3.125, np.pi - 1e-12)


def test_half_pi_factors_are_rounded_exact_values(rng):
    # u^l_{km} = d^l_{km}(pi/2) i^(-m); float64 recurrence coefficients
    # would leave errors up to 2.5e-16 at l = 64
    u = sh._half_pi_factors(64)
    i_pow = np.array([1, -1j, -1, 1j])
    for l in (20, 64):
        assert not u[l].flags.writeable
        for _ in range(300):
            k, m = int(rng.integers(0, l + 1)), int(rng.integers(-l, l + 1))
            exact = _exact_small_d(l, k, m, 1, 1) / 2.0 ** l     # c = s = 2^(-1/2)
            assert abs(u[l][k, l + m] - i_pow[m % 4] * exact) <= 1e-16, (l, k, m)


def test_wigner_d_stack_unitary_next_to_the_poles():
    Rs = np.stack([geom.rotation_zyz(0.4, b, -1.1) for b in NEAR_POLE_TILTS])
    for l, D in enumerate(sh.wigner_d_stack(64, Rs)):
        err = np.abs(D @ np.conj(np.swapaxes(D, -1, -2)) - np.eye(2 * l + 1)).max()
        assert err <= 5e-15, (l, err)


def _band_norms(c):
    """Squared norms of s0, s3 and spin2 per band l, shape (3, l_max + 1)."""
    l = sh.sh_lm_arrays(c.l_max)[0]
    return np.stack([np.bincount(l, c.s0 ** 2), np.bincount(l, c.s3 ** 2),
                     np.bincount(l[l >= 2], np.abs(c.spin2) ** 2, minlength=c.l_max + 1)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_psh_rotation_keeps_band_norms_next_to_the_poles(seed):
    c = pipeline.random_psh_coeffs(32, seed=seed)
    rot = psh.psh_rotate_coeffs(
        c, np.stack([geom.rotation_zyz(0.4, b, -1.1) for b in NEAR_POLE_TILTS]))
    before = _band_norms(c)
    for i, beta in enumerate(NEAR_POLE_TILTS):
        after = _band_norms(psh.PshCoeffs(32, rot.s0[i], rot.spin2[i], rot.s3[i]))
        rel = np.abs(after - before)[before > 0] / before[before > 0]
        assert rel.max() <= 5e-15, (beta, rel.max())


def test_wigner_d_stack_batch_equals_single_calls(rng):
    Rs = np.array([geom.random_rotation(rng) for _ in range(6)]
                  + [np.eye(3), geom.rotation_zyz(0.3, np.pi, 0.0)])
    batch = sh.wigner_d_stack(9, Rs)
    assert [b.shape for b in batch] == [(8, 2 * l + 1, 2 * l + 1) for l in range(10)]
    for i, R in enumerate(Rs):
        for l, D in enumerate(sh.wigner_d_stack(9, R)):
            assert np.abs(batch[l][i] - D).max() <= 1e-15
    assert np.array_equal(sh.wigner_d_complex(4, Rs[0]), sh.wigner_d_stack(4, Rs[0])[4])


_NOT_ROTATIONS = {"nan": np.full((3, 3), np.nan), "scaled": 2.0 * np.eye(3),
                  "reflection": np.diag([1.0, 1.0, -1.0]),
                  # det 1 to 3e-11, but R^T R off the identity by 1e-5
                  "stretched": np.diag([1.0 + 5e-6, 1.0 - 5e-6, 1.0])}


@pytest.mark.parametrize("name", sorted(_NOT_ROTATIONS))
def test_rotations_reject_a_matrix_that_is_not_a_rotation(rng, name):
    # each used to rotate: NaN coefficients, or finite norm-preserving
    # meaningless ones
    bad = _NOT_ROTATIONS[name]
    c = pipeline.random_psh_coeffs(4, seed=1)
    with pytest.raises(ValueError, match=r"^R is not a finite rotation to 1e-6"):
        sh.wigner_d_stack(4, bad)
    with pytest.raises(ValueError, match=r"^R is not a finite rotation to 1e-6"):
        psh.psh_rotate_coeffs(c, bad)
    Rs = np.stack([geom.random_rotation(rng), np.eye(3), bad, bad])
    with pytest.raises(ValueError, match=r"^R\[2\] is not a finite rotation to 1e-6"):
        psh.psh_rotate_coeffs(c, Rs)
    with pytest.raises(ValueError, match=r"^R\[2\] is not a finite rotation to 1e-6"):
        sh.sh_rotate_coeffs(sh.ShCoeffs(4, "real", c.s0), Rs)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 4), (2, 2, 3, 3)])
def test_wigner_d_stack_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"R must have shape \(3, 3\) or \(N, 3, 3\)"):
        sh.wigner_d_stack(2, np.ones(shape))


def test_wigner_d_stack_accepts_rotations_to_the_pose_tolerance(rng):
    # rounding well inside 1e-6 is still a rotation
    R = geom.random_rotation(rng) + 1e-8 * rng.normal(size=(3, 3))
    assert len(sh.wigner_d_stack(3, R)) == 4


def test_wigner_d_real(rng):
    R = geom.random_rotation(rng)
    for l in (2, 4):
        DR = sh.wigner_d_real_from_complex(sh.wigner_d_complex(l, R))
        assert np.abs(DR.imag).max() if np.iscomplexobj(DR) else True
        assert np.abs(DR @ DR.T - np.eye(2 * l + 1)).max() < 1e-12
    DR = sh.wigner_d_real_from_complex(sh.wigner_d_complex(3, np.eye(3)))
    assert np.abs(DR - np.eye(7)).max() < 1e-14
    # quadrature match
    g = geom.gauss_legendre_grid(10)
    th, ph = g.angles()
    w = g.weights().ravel()
    rot_dirs = g.dirs().reshape(-1, 3) @ R
    tr, pr = geom.dir_to_sph(rot_dirs)
    l = 3
    DR = sh.wigner_d_real_from_complex(sh.wigner_d_complex(l, R))
    B = sh.sh_basis_real(l, th.ravel(), ph.ravel())
    Br = sh.sh_basis_real(l, tr, pr)
    for m in (-3, 0, 2):
        for mp in (-1, 3):
            q = np.sum(w * B[:, sh.sh_index(l, m)] * Br[:, sh.sh_index(l, mp)])
            assert abs(DR[l + m, l + mp] - q) < 1e-10


def test_sh_rotate_coeffs(rng):
    lmax = 6
    g = geom.gauss_legendre_grid(10)
    th, ph = g.angles()
    R = geom.random_rotation(rng)
    c = sh.ShCoeffs(lmax, "real", rng.normal(size=sh.sh_size(lmax)))
    # rotate field then project == rotate coefficients
    rot_dirs = g.dirs().reshape(-1, 3) @ R
    tr, pr = geom.dir_to_sph(rot_dirs)
    f_rot = sh.sh_reconstruct(c, tr.reshape(th.shape), pr.reshape(th.shape))
    c_ang = sh.sh_project(f_rot, g, lmax, "real")
    c_freq = sh.sh_rotate_coeffs(c, R)
    assert np.abs(c_ang.values - c_freq.values).max() < 1e-10
    assert np.abs(sh.sh_rotate_coeffs(c, np.eye(3)).values - c.values).max() < 1e-13
    assert abs(np.linalg.norm(c_freq.values) - np.linalg.norm(c.values)) < 1e-12


def test_sh_convolve(rng):
    lmax = 8
    c = sh.ShCoeffs(lmax, "real", rng.normal(size=sh.sh_size(lmax)))
    # delta-like kernel: k_l0 = sqrt((2l+1)/4pi) -> identity
    kv = np.zeros(sh.sh_size(lmax))
    for l in range(lmax + 1):
        kv[sh.sh_index(l, 0)] = math.sqrt((2 * l + 1) / (4 * np.pi))
    out = sh.sh_convolve(sh.ShCoeffs(lmax, "real", kv), c)
    assert np.abs(out.values - c.values).max() < 1e-13
    # k00-only kernel: output proportional to f_00 only
    kv = np.zeros(sh.sh_size(lmax))
    kv[0] = 1.7
    out = sh.sh_convolve(sh.ShCoeffs(lmax, "real", kv), c)
    assert np.abs(out.values[1:]).max() == 0.0
    assert abs(out.values[0] - math.sqrt(4 * np.pi) * 1.7 * c.values[0]) < 1e-13
    # non-zonal kernel rejected
    bad = np.zeros(sh.sh_size(2))
    bad[sh.sh_index(2, 1)] = 1.0
    with pytest.raises(ValueError):
        sh.sh_convolve(sh.ShCoeffs(2, "real", bad), sh.ShCoeffs(2, "real", np.zeros(9)))


def test_sh_convolve_angular_oracle(rng):
    lmax = 8
    c = sh.ShCoeffs(lmax, "real", rng.normal(size=sh.sh_size(lmax)))
    kv = np.zeros(sh.sh_size(lmax))
    for l in range(lmax + 1):
        kv[sh.sh_index(l, 0)] = rng.normal()
    k = sh.ShCoeffs(lmax, "real", kv)
    conv = sh.sh_convolve(k, c)
    g = geom.gauss_legendre_grid(18)
    th, ph = g.angles()
    w = g.weights().ravel()
    dk = g.dirs().reshape(-1, 3)
    fk = sh.sh_reconstruct(c, th, ph).ravel()
    for _ in range(10):
        td = geom.normalize(rng.normal(size=3))
        ang = np.arccos(np.clip(dk @ td, -1, 1))
        kvals = sh.sh_reconstruct(k, ang, np.zeros_like(ang))
        direct = np.sum(w * kvals * fk)
        tt, pp = geom.dir_to_sph(td)
        assert abs(direct - sh.sh_reconstruct(conv, tt, pp)) < 1e-8


def test_wigner3j(rng):
    assert sh.wigner3j(0, 0, 0, 0, 0, 0) == 1.0
    assert sh.wigner3j(2, 1, 2, 1, 1, 1) == 0.0          # m-sum != 0
    assert sh.wigner3j(1, 1, 3, 0, 0, 0) == 0.0          # triangle violated
    # known closed forms
    assert abs(sh.wigner3j(1, 1, 0, 0, 0, 0) + 1 / math.sqrt(3)) < 1e-15
    assert abs(sh.wigner3j(2, 2, 0, 1, -1, 0) - (-1) ** 1 / math.sqrt(5)) < 1e-15
    # orthogonality sum rule
    for (l1, l2) in ((2, 3), (4, 4)):
        for m1 in range(-l1, l1 + 1):
            for m2 in range(-l2, l2 + 1):
                total = sum((2 * l3 + 1) * sh.wigner3j(l1, l2, l3, m1, m2, -m1 - m2) ** 2
                            for l3 in range(abs(l1 - l2), l1 + l2 + 1))
                assert abs(total - 1.0) < 1e-12


def test_triple_product_000_quadrature():
    g = geom.gauss_legendre_grid(8)
    th, ph = g.angles()
    w = g.weights().ravel()
    B = sh.sh_basis_complex(4, th.ravel(), ph.ravel())
    worst = 0.0
    for l1 in range(5):
        for l2 in range(5):
            for l3 in range(5):
                if (l1 + l2 + l3) % 2 == 1:
                    # parity: the (0,0,0) 3-j vanishes for odd sums
                    assert sh.triple_product_000(l1, 0, l2, 0, l3, 0) == 0.0
                for m1 in range(-l1, l1 + 1):
                    for m3 in range(-l3, l3 + 1):
                        m2 = m1 - m3
                        if abs(m2) > l2:
                            continue
                        tp = sh.triple_product_000(l1, m1, l2, m2, l3, m3)
                        q = np.sum(w * np.conj(B[:, sh.sh_index(l1, m1)])
                                   * B[:, sh.sh_index(l2, m2)] * B[:, sh.sh_index(l3, m3)])
                        worst = max(worst, abs(tp - q))
    assert worst < 1e-10


def test_triple_product_000_constant_factor():
    # (l2, m2) = (0, 0): equals delta / sqrt(4 pi)
    for (l, m) in ((0, 0), (2, 1), (4, -3)):
        tp = sh.triple_product_000(l, m, 0, 0, l, m)
        assert abs(tp - math.sqrt(1 / (4 * np.pi))) < 1e-14
        assert sh.triple_product_000(l, m, 0, 0, l, m - 1 if m > -l else m + 1) == 0.0


def test_reflection_coeff_scalar():
    assert sh.reflection_coeff_scalar(0, 0) == 1.0
    assert sh.reflection_coeff_scalar(1, 0) == -1.0
    g = geom.gauss_legendre_grid(10)
    th, ph = g.angles()
    w = g.weights().ravel()
    B = sh.sh_basis_complex(4, th.ravel(), ph.ravel())
    Bf = sh.sh_basis_complex(4, np.pi - th.ravel(), ph.ravel())
    for l in range(5):
        for m in range(-l, l + 1):
            q = np.sum(w * np.conj(B[:, sh.sh_index(l, m)]) * Bf[:, sh.sh_index(l, m)])
            assert abs(q - sh.reflection_coeff_scalar(l, m)) < 1e-10


def test_rotation_block_diagonal_structure(rng):
    # full coefficient matrix of a rotation by quadrature has no cross-l terms
    lmax = 4
    g = geom.gauss_legendre_grid(10)
    th, ph = g.angles()
    w = g.weights().ravel()
    R = geom.random_rotation(rng)
    rot_dirs = g.dirs().reshape(-1, 3) @ R
    tr, pr = geom.dir_to_sph(rot_dirs)
    B = sh.sh_basis_complex(lmax, th.ravel(), ph.ravel())
    Br = sh.sh_basis_complex(lmax, tr, pr)
    mat = B.conj().T @ (w[:, None] * Br)
    for l in range(lmax + 1):
        for lp in range(lmax + 1):
            if l == lp:
                continue
            blk = mat[sh.sh_index(l, -l):sh.sh_index(l, l) + 1,
                      sh.sh_index(lp, -lp):sh.sh_index(lp, lp) + 1]
            assert np.abs(blk).max() < 1e-10


def _spin_theta_table_ld(l_max, s, theta):
    """spin_theta_table(l_max, s, theta) run in long double."""
    out = np.zeros((theta.size, sh.sh_size(l_max)), dtype=np.longdouble)
    for l, block in sh._theta_blocks(l_max, s, np.asarray(theta, dtype=np.longdouble)):
        out[:, l * l:(l + 1) ** 2] = block
    return out


# The next test also needs an np.longdouble wider than float64.
def test_theta_fourier_rows_match_long_double_recurrence():
    # the kernel rows of pconv (even m + s) and odd pairs (sin series), at
    # kernel nodes, the poles and 1e-9 from them; the float64 recurrence is
    # off by 4.4e-13 of a row at L = 128
    pairs = ((0, 0), (2, 0), (0, -2), (2, -2), (2, 2), (0, 1), (2, -3), (2, 5))
    for L in (32, 64, 128):
        rows = sh._theta_fourier_rows(L, pairs)
        assert not rows.flags.writeable and sh._theta_fourier_rows(L, pairs) is rows
        x, _ = geom.gauss_legendre(4 * L + 16)
        theta = np.concatenate([0.5 * np.pi * (x[::3] + 1.0), [0.0, 1e-9, np.pi - 1e-9, np.pi]])
        e = sh._cis_powers(L, theta).T
        ref = {s: _spin_theta_table_ld(L, s, theta) for s in (0, 2)}
        for (s, m), a in zip(pairs, rows):
            got = a @ (e.real if (m + s) % 2 == 0 else e.imag)
            want = np.zeros((L + 1, theta.size), dtype=np.longdouble)
            l = np.arange(abs(m), L + 1)
            want[abs(m):] = ref[s][:, l * l + l + m].T
            scale = float(np.abs(want).max())
            assert float(np.abs(got - want).max()) <= 2e-14 * scale, (L, s, m)
            assert np.all(got[:max(s, abs(m))] == 0.0)


def test_cis_powers_keep_the_argument_exact(rng):
    # within a few ulps of e^{i n x} with n x formed in long double; a
    # rounded n x is off by up to 5.7e-14 here
    x = np.concatenate([rng.uniform(-7.0, 7.0, 500), [0.0, np.pi, 1e-9]])
    for n_max in (0, 1, 2, 31, 128, 300):
        e = sh._cis_powers(n_max, x)
        arg = x.astype(np.longdouble)[:, None] * np.arange(n_max + 1)
        assert e.shape == (x.size, n_max + 1)
        assert np.abs(e.real - np.cos(arg)).max() <= 5e-16
        assert np.abs(e.imag - np.sin(arg)).max() <= 5e-16
