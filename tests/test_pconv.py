import json
import math
import os
import warnings

import numpy as np
import pytest

from polarsh import geom, operators as op, pconv, pipeline, psh
from polarsh import shscalar as sh


def pi_minus_theta(th):
    return (np.pi - th) * np.eye(4)


def generic_kernel(th):
    """Smooth kernel exercising every coefficient family."""
    a = np.cos(th)
    s2 = np.sin(th) ** 2
    iso = 0.8 * (1 + a) / 2
    conj = 0.4 * (1 - a) / 2
    M = np.zeros((4, 4))
    M[0, 0] = 1.2 + 0.1 * a
    M[0, 3] = 0.05 * s2
    M[3, 0] = 0.02 * s2
    M[3, 3] = 0.9 + 0.2 * a
    M[0, 1], M[0, 2] = 0.3 * s2, 0.1 * s2
    M[1, 0], M[2, 0] = 0.25 * s2, -0.15 * s2
    M[1, 3], M[2, 3] = 0.12 * s2, 0.04 * s2
    M[3, 1], M[3, 2] = 0.06 * s2, -0.03 * s2
    M[1:3, 1:3] = [[iso + conj, 0], [0, iso - conj]]
    return M


def cerr(a, b):
    return np.abs(a.flat() - b.flat()).max()


def test_kernel_validate():
    assert pconv.kernel_validate(pi_minus_theta)
    assert pconv.kernel_validate(generic_kernel)
    bad = lambda th: np.diag([1.0, 1.0, -1.0, 1.0])   # conj != 0 at theta = 0
    assert not pconv.kernel_validate(bad)


def test_delta_kernel_identity():
    L = 8
    kc = pconv.delta_kernel_coeffs(L)
    c = pipeline.random_psh_coeffs(L, seed=0)
    assert cerr(pconv.pconv_apply(kc, c), c) < 1e-13
    M = pconv.conv_expand_to_matrix(kc, L)
    assert np.abs(M.matrix - np.eye(M.matrix.shape[0])).max() < 1e-13


def test_scalar_kernel_reduction():
    L = 8
    g = lambda th: np.exp(-th)
    kc = pconv.kernel_coeffs(lambda th: np.diag([g(th), 0, 0, 0]), L)
    c = pipeline.random_psh_coeffs(L, seed=1)
    out = pconv.pconv_apply(kc, c)
    kv = np.zeros(sh.sh_size(L))
    for l in range(L + 1):
        kv[sh.sh_index(l, 0)] = kc.k00[l]
    ref = sh.sh_convolve(sh.ShCoeffs(L, "real", kv), sh.ShCoeffs(L, "real", c.s0))
    assert np.abs(out.s0 - ref.values).max() < 1e-13
    assert np.abs(out.s3).max() == 0.0 and np.abs(out.spin2).max() == 0.0


def test_pi_minus_theta_coeffs_finite_and_match():
    L = 8
    kc = pconv.kernel_coeffs(pi_minus_theta, L)
    for arr in (kc.k00, kc.k33, kc.kiso):
        assert np.all(np.isfinite(arr.view(float)))
    # spin-2 coupled families start at l = 2
    for name in ("k0p", "k3p", "kp0", "kp3", "kiso", "kconj"):
        assert np.abs(getattr(kc, name)[:2]).max() == 0.0
    assert abs(kc.k00[0] - 2 * np.pi * np.sqrt(1 / (4 * np.pi)) * np.pi) < 1e-10
    c = pipeline.random_psh_coeffs(L, seed=2)
    out = pconv.pconv_apply(kc, c)
    tt = np.array([0.4, 1.3, 2.5])
    pp = np.array([0.2, 2.9, 5.0])
    ang = pconv.pconv_angular(pi_minus_theta, c, tt, pp)
    frq = psh.psh_reconstruct(out, tt, pp)
    assert np.abs(ang - frq).max() < 1e-6


def test_phase_weights():
    w20, w02 = pconv.phase_weights(0, 0)
    assert w20 == 1.0 and w02 == 1.0
    assert pconv.phase_weights(1, 2) == (0.0, 0.0)
    for (m, mp) in ((1, 1), (1, -1), (2, 2), (3, -3)):
        w20, w02 = pconv.phase_weights(m, mp)
        assert abs(abs(w20) - 1 / math.sqrt(2)) < 1e-15
        assert abs(abs(w02) - 1 / math.sqrt(2)) < 1e-15
        # entries are among {+-1/sqrt2, +-i/sqrt2}
        for w in (w20, w02):
            assert min(abs(w.real), abs(w.imag)) < 1e-15


def test_term_isolation_unpolarized_input():
    # unpolarized input through a 0-to-2 kernel: spin-2 output from the first
    # term of the spin-2 theorem line only
    L = 6
    kc = pconv.kernel_coeffs(generic_kernel, L)
    c = pipeline.random_psh_coeffs(L, seed=3, unpolarized=True)
    c.s3[:] = 0.0
    out = pconv.pconv_apply(kc, c)
    for l in range(2, L + 1):
        fac = math.sqrt(4 * np.pi / (2 * l + 1))
        for m in range(-l, l + 1):
            expect = 0.0j
            for mp in {m, -m}:
                expect += pconv._u_to_spin2(m, mp) * kc.kp0[l] * c.s0[sh.sh_index(l, mp)]
            got = out.spin2[psh.spin2_index(l, m)]
            assert abs(got - fac * expect) < 1e-12


def test_two_route_equivalence():
    L = 8
    kc = pconv.kernel_coeffs(generic_kernel, L)
    c = pipeline.random_psh_coeffs(L, seed=4)
    out1 = pconv.pconv_apply(kc, c)
    M = pconv.conv_expand_to_matrix(kc, L)
    out2 = op.operator_apply(M, c)
    assert cerr(out1, out2) < 1e-12


def test_expand_matrix_structure():
    L = 5
    kc = pconv.kernel_coeffs(generic_kernel, L)
    M = pconv.conv_expand_to_matrix(kc, L).matrix
    idx = psh.psh_index_list(L)
    for i, (lo, mo, po) in enumerate(idx):
        for j, (li, mi, pi_) in enumerate(idx):
            if lo != li or abs(mo) != abs(mi):
                assert M[i, j] == 0.0
    # 2-to-2 block values: [[x, -y], [y, x]] of kiso, and of kconj times J
    def r22(z):
        return np.array([[z.real, -z.imag], [z.imag, z.real]])
    J = np.diag([1.0, -1.0])
    for l in range(2, L + 1):
        fac = math.sqrt(4 * np.pi / (2 * l + 1))
        for m in range(-l, l + 1):
            r = psh.psh_index(l, m, 1, L)
            c0 = psh.psh_index(l, m, 1, L)
            blk = M[r:r + 2, c0:c0 + 2]
            expect = fac * r22(kc.kiso[l])
            if m == 0:
                expect = expect + fac * r22(kc.kconj[l]) @ J
            assert np.abs(blk - expect).max() < 1e-13
            if m != 0:
                cc = psh.psh_index(l, -m, 1, L)
                blk = M[r:r + 2, cc:cc + 2]
                expect = fac * (-1.0) ** m * r22(kc.kconj[l]) @ J
                assert np.abs(blk - expect).max() < 1e-13


def test_angular_matches_frequency_generic():
    L = 6
    kc = pconv.kernel_coeffs(generic_kernel, L)
    c = pipeline.random_psh_coeffs(L, seed=5)
    out = pconv.pconv_apply(kc, c)
    tt = np.array([0.3, 1.0, 2.0, 2.8])
    pp = np.array([0.1, 2.0, 4.0, 5.5])
    ang = pconv.pconv_angular(generic_kernel, c, tt, pp)
    frq = psh.psh_reconstruct(out, tt, pp)
    assert np.abs(ang - frq).max() < 1e-10


def test_angular_identity_delta_approximation():
    # narrow Gaussian times identity behaves like the identity, loosely
    L = 4
    sigma = 0.02
    def narrow(th):
        return np.exp(-th ** 2 / (2 * sigma ** 2)) / (2 * np.pi * sigma ** 2) * np.eye(4)
    c = pipeline.random_psh_coeffs(L, seed=6)
    tt = np.array([0.9, 1.8])
    pp = np.array([0.4, 3.9])
    ang = pconv.pconv_angular(narrow, c, tt, pp, n_theta=1200)
    ref = psh.psh_reconstruct(c, tt, pp)
    assert np.abs(ang - ref).max() < 1e-2 * np.abs(ref).max()


def test_angular_rotation_equivariance(rng):
    L = 6
    c = pipeline.random_psh_coeffs(L, seed=7)
    R = geom.random_rotation(rng)
    c_rot = psh.psh_rotate_coeffs(c, R)
    tt = np.array([0.7, 1.9, 2.6])
    pp = np.array([0.3, 2.2, 4.8])
    # convolve the rotated field at w equals rotating the convolved field
    lhs = pconv.pconv_angular(generic_kernel, c_rot, tt, pp)
    out = pconv.pconv_apply(pconv.kernel_coeffs(generic_kernel, L), c)
    out_rot = psh.psh_rotate_coeffs(out, R)
    rhs = psh.psh_reconstruct(out_rot, tt, pp)
    assert np.abs(lhs - rhs).max() < 1e-8


def test_kernel_phi_invariance():
    # the kernel extraction must not depend on the phi anchoring the frames
    def field_fn(w_i, w_o):
        w_i = np.asarray(w_i, dtype=float)
        w_o = np.asarray(w_o, dtype=float)
        w_i_b, w_o_b = np.broadcast_arrays(w_i, w_o)
        flat_i = w_i_b.reshape(-1, 3)
        flat_o = w_o_b.reshape(-1, 3)
        out = np.empty((flat_i.shape[0], 4, 4))
        for k in range(flat_i.shape[0]):
            out[k] = pconv.pconv_angular_pair_matrix(generic_kernel, flat_i[k], flat_o[k])
        return out.reshape(w_i_b.shape[:-1] + (4, 4))

    for th in (0.6, 1.4, 2.7):
        mats = [pconv.kernel_from_mueller_field(field_fn, th, phi) for phi in (0.0, 1.0, 2.0)]
        assert np.abs(mats[0] - mats[1]).max() < 1e-12
        assert np.abs(mats[0] - mats[2]).max() < 1e-12
        assert np.abs(mats[0] - generic_kernel(th)).max() < 1e-12


def test_pair_matrix_at_coincident_and_antipodal_directions():
    # a coincident or antipodal pair has a degenerate great circle; its
    # matrix is the limit of the matrices of the pairs next to it
    dirs = geom.gauss_legendre_grid(4).dirs().reshape(-1, 3)
    for w_i, w_o in ((dirs[0], dirs[0]), (dirs[1], -dirs[1])):
        near = geom.rotation_about_axis(np.cross(w_o, [0.0, 0.0, 1.0]), 1e-8) @ w_o
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at = pconv.pconv_angular_pair_matrix(generic_kernel, w_i, w_o)
        assert np.all(np.isfinite(at))
        lim = pconv.pconv_angular_pair_matrix(generic_kernel, w_i, near)
        assert np.abs(at - lim).max() < 1e-6


def _theorem_loop(kc, c):
    """The convolution theorem per (l, m) through phase_weights; parts of c
    carry a leading batch axis."""
    o0, o3, o2 = np.zeros_like(c.s0), np.zeros_like(c.s3), np.zeros_like(c.spin2)
    for l in range(c.l_max + 1):
        fac = math.sqrt(4 * np.pi / (2 * l + 1))
        for m in range(-l, l + 1):
            i = sh.sh_index(l, m)
            a = kc.k00[l] * c.s0[:, i] + kc.k03[l] * c.s3[:, i]
            b = kc.k30[l] * c.s0[:, i] + kc.k33[l] * c.s3[:, i]
            if l >= 2:
                j = psh.spin2_index(l, m)
                z = (kc.kiso[l] * c.spin2[:, j]
                     + (-1) ** m * kc.kconj[l] * np.conj(c.spin2[:, psh.spin2_index(l, -m)]))
                for mp in {m, -m}:
                    w20, w02 = pconv.phase_weights(m, mp)
                    ft = c.spin2[:, psh.spin2_index(l, mp)]
                    a = a + np.real(np.conj(w20) * kc.k0p[l] * ft)
                    b = b + np.real(np.conj(w20) * kc.k3p[l] * ft)
                    z = z + w02 * (kc.kp0[l] * c.s0[:, sh.sh_index(l, mp)]
                                   + kc.kp3[l] * c.s3[:, sh.sh_index(l, mp)])
                o2[:, j] = fac * z
            o0[:, i], o3[:, i] = fac * a, fac * b
    return psh.PshCoeffs(c.l_max, o0, o2, o3).flat()


def _random_kernel_coeffs(l_max, rng):
    kc = pconv.PolarConvKernelCoeffs.zeros(l_max)
    for name in pconv.KC_FAMILIES:
        k = getattr(kc, name)
        k[:] = rng.normal(size=k.size) + (1j * rng.normal(size=k.size) if k.dtype == complex else 0)
        if name in pconv.KC_FAMILIES[4:]:
            k[:2] = 0.0
    return kc


@pytest.mark.parametrize("L", [*range(10), 32])
def test_theorem_table_matches_per_lm_loop(L):
    rng = np.random.default_rng(100 + L)
    kc = _random_kernel_coeffs(L + 1, rng)
    n = psh.psh_size(L)
    f = psh.PshCoeffs.from_flat(L, rng.normal(size=(2, n)))
    want = _theorem_loop(kc, f)
    for b in range(2):
        fb = psh.PshCoeffs(L, f.s0[b], f.spin2[b], f.s3[b])
        assert np.abs(pconv.pconv_apply(kc, fb).flat() - want[b]).max() < 1e-13
    M = pconv.conv_expand_to_matrix(kc, L).matrix
    if L <= 9:
        # every column: the loop applied to the unit vectors
        assert np.abs(M - _theorem_loop(kc, psh.PshCoeffs.from_flat(L, np.eye(n))).T).max() < 1e-13
    else:
        assert np.abs(f.flat() @ M.T - want).max() < 1e-13


def test_conv_project_fixed_point_and_sanity(rng):
    L = 4
    kc = pconv.kernel_coeffs(generic_kernel, L)
    M = pconv.conv_expand_to_matrix(kc, L)
    kc2, rms, report = pconv.conv_project_operator(M)
    assert rms < 1e-12
    for name in ("k00", "k03", "k30", "k33", "k0p", "k3p", "kp0", "kp3", "kiso", "kconj"):
        assert np.abs(getattr(kc2, name) - getattr(kc, name)).max() < 1e-12
    rnd = op.PshCoeffMatrix(L, rng.normal(size=M.matrix.shape))
    _, rms_rnd, _ = pconv.conv_project_operator(rnd)
    assert rms_rnd > 0.1


def test_rotation_average_matrix_matches_per_rotation_loop(rng):
    n_psh = psh.psh_size(3)
    # a convolution operator is equivariant: the average leaves it as it is
    conv = pconv.conv_expand_to_matrix(pconv.kernel_coeffs(generic_kernel, 3), 3)
    for M in (op.PshCoeffMatrix(3, rng.normal(size=(n_psh, n_psh))), conv):
        expect = np.zeros_like(M.matrix)
        for R in pconv._so3_fibonacci(9):
            D = psh.psh_rotation_matrix(3, R)
            expect += D.T @ M.matrix @ D
        got = pconv.rotation_average_matrix(M, 3).matrix
        assert np.abs(got - expect / 9).max() < 1e-14
    assert np.abs(got - conv.matrix).max() < 1e-12


def test_rotation_average_reduces_residual():
    from polarsh.polar import synthetic_pbrdf
    pb = synthetic_pbrdf(roughness=0.5, ior=1.5, horizon_sharpness=0.12)
    M = op.operator_project(pb, 3, geom.gauss_legendre_grid(10))
    _, rms0, _ = pconv.conv_project_operator(M)
    Mavg = pconv.rotation_average_matrix(M, 8)
    _, rms1, _ = pconv.conv_project_operator(Mavg)
    assert rms1 < rms0
    Mavg2 = pconv.rotation_average_matrix(M, 16)
    _, rms2, _ = pconv.conv_project_operator(Mavg2)
    assert rms2 < rms1


# -- conv_project_operator pinned to its recorded outputs ---------------------

KC_NAMES = ("k00", "k03", "k30", "k33", "k0p", "k3p", "kp0", "kp3", "kiso", "kconj")


def _reference_cases():
    from polarsh.polar import synthetic_pbrdf
    rng = np.random.default_rng(2501)
    n = psh.psh_size(4)
    yield "random_l4", op.PshCoeffMatrix(4, rng.normal(size=(n, n)))
    pb = synthetic_pbrdf(roughness=0.5, ior=1.5, horizon_sharpness=0.12)
    yield "criterion5_pbrdf", op.operator_project(pb, 4, geom.gauss_legendre_grid(12))


def test_conv_project_matches_recorded_outputs():
    # kc, rms and report recorded from the loop implementation
    path = os.path.join(os.path.dirname(__file__), "data", "conv_project_reference.json")
    with open(path) as f:
        expected = json.load(f)
    for name, M in _reference_cases():
        ref = expected[name]
        kc, rms, report = pconv.conv_project_operator(M)
        for fam in KC_NAMES:
            want = np.array([complex(*v) if isinstance(v, list) else v
                             for v in ref["kc"][fam]])
            assert np.abs(getattr(kc, fam) - want).max() < 1e-12, (name, fam)
        assert abs(rms - ref["rms"]) < 1e-12
        assert set(report) == set(ref["report"])
        for blk, per_l in ref["report"].items():
            assert sorted(report[blk]) == sorted(int(l) for l in per_l)
            for l, vals in per_l.items():
                for key in ("matched", "unmatched"):
                    assert abs(report[blk][int(l)][key] - vals[key]) < 1e-12, (name, blk, l)


def test_kernel_coeffs_match_recorded_outputs():
    # recorded from the per-l basis evaluation; the kink at theta = 1 gives
    # every band up to L = 32 weight in every family
    def kinked(th):
        return generic_kernel(th) * (1.0 + abs(th - 1.0))

    path = os.path.join(os.path.dirname(__file__), "data", "kernel_coeffs_reference.json")
    with open(path) as f:
        ref = json.load(f)["kinked_generic_l32"]
    kc = pconv.kernel_coeffs(kinked, 32)
    for fam in KC_NAMES:
        want = np.array([complex(*v) if isinstance(v, list) else v for v in ref[fam]])
        assert np.abs(getattr(kc, fam) - want).max() < 1e-13, fam


def test_conv_project_unmatched_perturbation():
    # entries outside the structure leave the fit alone and are reported as
    # unmatched energy with weights 1 (scalar), 2 (complex), 4 (spin 2-to-2)
    L = 4
    kc = pconv.kernel_coeffs(generic_kernel, L)
    M = pconv.conv_expand_to_matrix(kc, L)
    kc0, rms0, rep0 = pconv.conv_project_operator(M)
    d = 0.3
    P = M.matrix.copy()
    P[psh.psh_index(3, 1, 0, L), psh.psh_index(3, 2, 0, L)] += d    # |m_o| != |m_i|
    P[psh.psh_index(2, 1, 2, L), psh.psh_index(1, 1, 0, L)] += d    # l_o != l_i
    P[psh.psh_index(4, 2, 1, L), psh.psh_index(2, 1, 2, L)] += d    # l_o != l_i
    kc1, rms1, rep1 = pconv.conv_project_operator(op.PshCoeffMatrix(L, P))
    for name in KC_NAMES:
        assert np.array_equal(getattr(kc1, name), getattr(kc0, name)), name
    # per-row-l entry counts off the structure: 4 scalar families over
    # 7 x 25 entries less 13 matched; 2 mixed families x 2 over 5 x 25 less 9;
    # 4 over 9 x 21 spin-2 entries less 17 (one real entry is half iso, half conj)
    expected = {("scalar", 3): d / math.sqrt(4 * (7 * 25 - 13)),
                ("to_spin2", 2): d / math.sqrt(4 * (5 * 25 - 9)),
                ("spin22", 4): math.sqrt(0.5 * d * d / (4 * (9 * 21 - 17)))}
    for blk in rep0:
        for l in rep0[blk]:
            assert rep1[blk][l]["matched"] == pytest.approx(rep0[blk][l]["matched"], abs=1e-14)
            want = expected.get((blk, l), 0.0)
            assert rep1[blk][l]["unmatched"] == pytest.approx(want, rel=1e-12, abs=1e-14), (blk, l)
    assert rms1 > rms0


def test_conv_project_rejects_stacked_matrix():
    n = psh.psh_size(2)
    with pytest.raises(ValueError, match=r"\(2, %d, %d\)" % (n, n)):
        pconv.conv_project_operator(op.PshCoeffMatrix(2, np.zeros((2, n, n))))


def test_conv_project_names_first_non_finite_entry():
    L = 3
    M = pconv.conv_expand_to_matrix(pconv.kernel_coeffs(generic_kernel, L), L).matrix.copy()
    M[7, 11] = np.inf
    M[20, 3] = np.nan
    with pytest.raises(ValueError, match=r"\(row, col\) = \(7, 11\)"):
        pconv.conv_project_operator(op.PshCoeffMatrix(L, M))


def test_phase_weight_tables_match_scalar_weights():
    # the theorem table's weights on the mixed families against the scalar
    # U^{p0} / U^{0p}
    L = 5
    t = pconv._conv_tables(L)
    lmp = psh.psh_index_list(L)
    fam = np.array(pconv.KC_FAMILIES)[t.fam]
    for r, c, f, w in zip(t.row, t.col, fam, t.w):
        (lo, m_o, po), (li, m_i, pi_) = lmp[r], lmp[c]
        assert lo == li and abs(m_o) == abs(m_i)
        if f in ("kp0", "kp3"):
            assert w == pconv._u_to_spin2(m_o, m_i) * (1 if po == 1 else -1j)
        elif f in ("k0p", "k3p"):
            assert w == pconv._u_from_spin2(m_o, m_i) * (1 if pi_ == 1 else 1j)


def _spin_theta_table(l_max, s, theta):
    """The previous shscalar.spin_theta_table body, in theta's dtype."""
    out = np.zeros((theta.size, sh.sh_size(l_max)), dtype=theta.dtype)
    for l, block in sh._theta_blocks(l_max, s, theta):
        out[:, l * l:(l + 1) ** 2] = block
    return out


def _kernel_coeffs_oracle(kernel_fn, l_max):
    """The previous kernel_coeffs body (numpy's rule, rows from the
    recurrence), with the rows and sums in long double: in float64 the
    recurrence itself is off by up to 2e-13 of a row at l_max = 64."""
    x, w = np.polynomial.legendre.leggauss(4 * l_max + 16)
    theta = 0.5 * np.pi * (x + 1.0)
    w = 0.5 * np.pi * w
    k = pconv._kernel_samples(kernel_fn, theta)
    ws = 2.0 * np.pi * w * np.sin(theta)
    tables = {s: _spin_theta_table(l_max, s, theta.astype(np.longdouble)) for s in (0, 2)}
    out = {}
    for group, key, g, s_out, s_in, sign in op._spin_parts(k):
        m = -sign * s_in
        l = np.arange(abs(m), l_max + 1)
        rows = np.zeros((l_max + 1, theta.size), dtype=np.longdouble)
        rows[abs(m):] = tables[s_out][:, l * l + l + m].T
        wg = ws * g
        out[pconv._family(group, key)] = rows @ wg.real + 1j * (rows @ np.imag(wg))
    return out


def test_kernel_coeffs_match_previous_body_in_long_double():
    # rows from the Fourier series in theta against the previous
    # recurrence-table body; needs an np.longdouble wider than float64
    def kinked(th):
        return generic_kernel(th) * (1.0 + abs(th - 1.0))

    for fn in (pi_minus_theta, generic_kernel, kinked):
        for L in (0, 1, 2, 9, 32, 64):
            kc = pconv.kernel_coeffs(fn, L)
            for fam, want in _kernel_coeffs_oracle(fn, L).items():
                got = getattr(kc, fam)
                if fam in ("k0p", "k3p", "kp0", "kp3", "kiso", "kconj"):
                    assert np.all(got[:2] == 0.0), (fam, L)
                scale = float(np.abs(want).max())
                assert float(np.abs(got - want).max()) <= 1e-14 * scale, (fn, L, fam)


def test_kernel_coeffs_rejects_bad_input():
    calls = []

    def counted(th):
        calls.append(th)
        return pi_minus_theta(th)

    with pytest.raises(ValueError, match="l_max >= 0"):
        pconv.kernel_coeffs(counted, -1)
    for n in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="n_nodes >= 1"):
            pconv.kernel_coeffs(counted, 4, n_nodes=n)
    assert not calls
    # a NaN at one node names that theta and the entry; no extra kernel call
    x, _ = geom.gauss_legendre(20)
    bad_theta = float(0.5 * np.pi * (x[7] + 1.0))

    def holed(th):
        k = counted(th)
        if th == bad_theta:
            k[2, 1] = np.nan
        return k

    with pytest.raises(ValueError, match=rf"theta = {bad_theta!r} .*entry \(2, 1\) is nan"):
        pconv.kernel_coeffs(holed, 4, n_nodes=20)
    assert len(calls) == 20
    inf_k = np.ones((4, 4))
    inf_k[0, 3] = np.inf
    with pytest.raises(ValueError, match=r"entry \(0, 3\) is inf"):
        pconv.kernel_coeffs(lambda th: inf_k, 3)
    assert np.isfinite(pconv.kernel_coeffs(pi_minus_theta, 0, n_nodes=1).k00).all()
