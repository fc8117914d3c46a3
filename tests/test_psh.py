import math

import numpy as np
import pytest

from polarsh import geom, psh, pipeline
from polarsh import shscalar as sh
from polarsh.polar import StokesField


def random_coeffs(l_max, rng):
    return psh.PshCoeffs(
        l_max, rng.normal(size=sh.sh_size(l_max)),
        rng.normal(size=psh.spin2_size(l_max)) + 1j * rng.normal(size=psh.spin2_size(l_max)),
        rng.normal(size=sh.sh_size(l_max)))


def test_index_set():
    assert psh.psh_size(0) == 2 and psh.psh_size(1) == 8
    for L in (2, 4, 6):
        assert psh.psh_size(L) == 4 * (L + 1) ** 2 - 8
    lst = psh.psh_index_list(5)
    assert len(lst) == psh.psh_size(5)
    for i, (l, m, p) in enumerate(lst):
        assert psh.psh_index(l, m, p, 5) == i
    with pytest.raises(ValueError):
        psh.psh_index(1, 0, 1, 5)
    with pytest.raises(ValueError):
        psh.spin2_index(1, 0)


def test_layout_matches_scalar_index():
    for L in range(41):
        lay = psh.psh_layout(L)
        assert [psh.psh_index(l, m, p, L) for l, m, p in lay.lmp.tolist()] == list(range(psh.psh_size(L)))
        for i, (l, m) in enumerate(zip(lay.l.tolist(), lay.m.tolist())):
            assert i == sh.sh_index(l, m)
            assert lay.pos0[i] == psh.psh_index(l, m, 0, L)
            assert lay.pos3[i] == psh.psh_index(l, m, 3, L)
            if l >= 2:
                assert lay.pos1[i - 4] == psh.psh_index(l, m, 1, L)


def test_flat_scatter_matches_parts(rng):
    c = random_coeffs(7, rng)
    v = c.flat()
    for l, m, p in psh.psh_index_list(7):
        part = {0: c.s0[sh.sh_index(l, m)], 3: c.s3[sh.sh_index(l, m)]}.get(p)
        if part is None:
            z = c.spin2[psh.spin2_index(l, m)]
            part = z.real if p == 1 else z.imag
        assert v[psh.psh_index(l, m, p, 7)] == part
    back = psh.PshCoeffs.from_flat(7, v)
    for a, b in ((back.s0, c.s0), (back.s3, c.s3), (back.spin2, c.spin2)):
        assert np.array_equal(a, b)


def test_s2sh_pole_behavior():
    for l in (2, 3, 5):
        for m in range(-l, l + 1):
            v0 = psh.s2sh_eval(l, m, 0.0, 1.3)
            vp = psh.s2sh_eval(l, m, np.pi, 0.7)
            if m != -2:
                assert v0 == 0.0
            else:
                assert abs(abs(v0) - math.sqrt((2 * l + 1) / (4 * np.pi))) < 1e-13
                # e^{-2 i phi} winding
                ratio = psh.s2sh_eval(l, -2, 0.0, 1.3) / psh.s2sh_eval(l, -2, 0.0, 0.0)
                assert abs(ratio - np.exp(-2j * 1.3)) < 1e-13
            if m != 2:
                assert vp == 0.0
            else:
                assert abs(vp) > 0.1
                ratio = psh.s2sh_eval(l, 2, np.pi, 0.7) / psh.s2sh_eval(l, 2, np.pi, 0.0)
                assert abs(ratio - np.exp(2j * 0.7)) < 1e-13


def test_s2sh_sum_rule(rng):
    th = rng.uniform(0, np.pi, 100)
    ph = rng.uniform(0, 2 * np.pi, 100)
    B = psh.s2sh_basis(2, th, ph)
    tot = np.sum(np.abs(B) ** 2, axis=1)
    assert np.abs(tot - 5 / (4 * np.pi)).max() < 1e-12


def test_s2sh_direct_formula(rng):
    for _ in range(60):
        l = int(rng.integers(2, 9))
        m = int(rng.integers(-l, l + 1))
        t = rng.uniform(0.1, np.pi - 0.1)
        p = rng.uniform(0, 2 * np.pi)
        a = psh.s2sh_eval(l, m, t, p)
        b = psh.s2sh_eval_direct(l, m, t, p)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))
    with pytest.raises(ValueError):
        psh.s2sh_eval_direct(3, 1, 1e-8, 0.0)
    # m = 0 azimuthal symmetry; e^{im phi} dependence
    assert abs(psh.s2sh_eval_direct(4, 0, 1.0, 0.3)
               - psh.s2sh_eval_direct(4, 0, 1.0, 2.9)) < 1e-12
    v = psh.s2sh_eval(5, 3, 1.0, 0.0)
    assert abs(psh.s2sh_eval(5, 3, 1.0, 0.7) - v * np.exp(3j * 0.7)) < 1e-12


def test_psh_basis_eval():
    th, ph = 0.9, 1.7
    b1 = psh.psh_basis_eval(3, 1, 1, th, ph)
    b2 = psh.psh_basis_eval(3, 1, 2, th, ph)
    # p=2 basis is i times the p=1 basis in the spin-2 complex sense
    z1 = b1[1] + 1j * b1[2]
    z2 = b2[1] + 1j * b2[2]
    assert abs(z2 - 1j * z1) < 1e-14
    b0 = psh.psh_basis_eval(3, 1, 0, th, ph)
    assert b0[0] == sh.sh_real(3, 1, th, ph) and np.abs(b0[1:]).max() == 0.0
    # p in {1,2} vanish at the pole unless m = -2
    assert np.abs(psh.psh_basis_eval(3, 1, 1, 0.0, 0.3)).max() == 0.0
    assert np.abs(psh.psh_basis_eval(3, -2, 1, 0.0, 0.3)).max() > 0.1


def test_psh_orthonormality_l6():
    g = geom.gauss_legendre_grid(6)
    th, ph = g.angles()
    w = g.weights().ravel()
    br = sh.sh_basis_real(6, th.ravel(), ph.ravel())
    b2 = psh.s2sh_basis(6, th.ravel(), ph.ravel())
    gram_r = br.T @ (w[:, None] * br)
    gram_2 = b2.conj().T @ (w[:, None] * b2)
    assert np.abs(gram_r - np.eye(br.shape[1])).max() < 1e-10
    assert np.abs(gram_2 - np.eye(b2.shape[1])).max() < 1e-10
    # scalar vs spin-2 rows are orthogonal by construction (disjoint slots);
    # p=1 vs p=2 orthogonality is the imaginary part of the spin-2 gram
    assert np.abs(np.real(1j * gram_2)).max() < 1e-10


def test_psh_project_examples(rng):
    g = geom.gauss_legendre_grid(6)
    th, ph = g.angles()
    # one-hot basis field (3, 2, 1)
    c0 = psh.PshCoeffs.zeros(6)
    c0.spin2[psh.spin2_index(3, 2)] = 1.0
    field = StokesField(psh.psh_reconstruct(c0, th, ph), g)
    c1 = psh.psh_project(field, 6)
    assert np.abs(c1.flat() - c0.flat()).max() < 1e-10
    # unpolarized constant field
    const = np.zeros(th.shape + (4,))
    const[..., 0] = 2.5
    c = psh.psh_project(StokesField(const, g), 4)
    assert abs(c.s0[0] - 2.5 * math.sqrt(4 * np.pi)) < 1e-12
    assert np.abs(c.s0[1:]).max() < 1e-12
    assert np.abs(c.spin2).max() < 1e-12 and np.abs(c.s3).max() < 1e-12
    # random round trip
    c0 = random_coeffs(6, rng)
    field = StokesField(psh.psh_reconstruct(c0, th, ph), g)
    c1 = psh.psh_project(field, 6)
    assert np.abs(c1.flat() - c0.flat()).max() < 1e-10


def test_psh_project_requires_band():
    g = geom.gauss_legendre_grid(3)
    data = np.zeros((g.theta_nodes.size, g.n_phi, 4))
    with pytest.raises(ValueError):
        psh.psh_project(StokesField(data, g), 5)


@pytest.mark.parametrize("l_max", [-1, -2, 2.0, True, "3", None])
def test_psh_coeffs_and_project_reject_a_bad_l_max(l_max):
    # a negative l_max used to pass as a one-coefficient vector
    with pytest.raises(ValueError, match="l_max must be an integer >= 0"):
        psh.PshCoeffs(l_max, np.zeros(1), np.zeros(0, dtype=complex), np.zeros(1))
    field = psh.psh_reconstruct_field(psh.PshCoeffs.zeros(2), geom.gauss_legendre_grid(4))
    with pytest.raises(ValueError, match="l_max must be an integer >= 0"):
        psh.psh_project(field, l_max)


def test_psh_reconstruct_trivial():
    assert np.abs(psh.psh_reconstruct(psh.PshCoeffs.zeros(3), 0.3, 0.2)).max() == 0.0
    # below l = 2 there are no spin-2 columns; l_max = 0 is the constant s0, s3
    assert psh.s2sh_basis(0, [0.3, 1.0], [0.2, 4.0]).shape == (2, 0)
    assert psh.s2sh_basis(1, [0.3, 1.0], [0.2, 4.0]).shape == (2, 0)
    c0 = psh.PshCoeffs.zeros(0)
    c0.s0[0], c0.s3[0] = 2.0, -1.0
    v = psh.psh_reconstruct(c0, np.array([0.0, 1.0, np.pi]), np.array([0.0, 2.0, 5.0]))
    y00 = 1.0 / np.sqrt(4.0 * np.pi)
    assert np.abs(v - [2.0 * y00, 0.0, 0.0, -y00]).max() < 1e-15
    c = psh.PshCoeffs.zeros(4)
    c.spin2[psh.spin2_index(2, -1)] = 1.0
    v = psh.psh_reconstruct(c, 0.8, 0.9)
    b = psh.psh_basis_eval(2, -1, 1, 0.8, 0.9)
    assert np.abs(v - b).max() < 1e-14


def test_psh_reconstruct_across_a_chunk_boundary(rng):
    # one call over a chunk and a part equals the two calls split at the
    # chunk boundary, in the broadcast shape of its inputs
    L = 6
    c = psh.PshCoeffs(L, rng.normal(size=sh.sh_size(L)),
                      rng.normal(size=psh.spin2_size(L)) + 1j * rng.normal(size=psh.spin2_size(L)),
                      rng.normal(size=sh.sh_size(L)))
    n = sh._CHUNK + 37
    th, ph = rng.uniform(0, np.pi, (3, n)), rng.uniform(0, 2 * np.pi, n)
    whole = psh.psh_reconstruct(c, th, ph)
    assert whole.shape == (3, n, 4)
    for row in range(3):
        split = np.concatenate([psh.psh_reconstruct(c, th[row, :sh._CHUNK], ph[:sh._CHUNK]),
                                psh.psh_reconstruct(c, th[row, sh._CHUNK:], ph[sh._CHUNK:])])
        assert np.abs(whole[row] - split).max() < 1e-13


def test_psh_rotation_block_properties(rng):
    R = geom.random_rotation(rng)
    for l in (0, 1, 3):
        blk = psh.psh_rotation_block(l, R)
        assert np.abs(blk @ blk.T - np.eye(blk.shape[0])).max() < 1e-12
        ident = psh.psh_rotation_block(l, np.eye(3))
        assert np.abs(ident - np.eye(blk.shape[0])).max() < 1e-13
    # closure: products keep the diag(R, R2x2(C), R) structure
    R2 = geom.random_rotation(rng)
    l = 3
    prod = psh.psh_rotation_block(l, R) @ psh.psh_rotation_block(l, R2)
    direct = psh.psh_rotation_block(l, R @ R2)
    assert np.abs(prod - direct).max() < 1e-12
    for i in range(2 * l + 1):
        for j in range(2 * l + 1):
            b = prod[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4]
            assert abs(b[0, 0] - b[3, 3]) < 1e-12
            assert abs(b[1, 1] - b[2, 2]) < 1e-12 and abs(b[1, 2] + b[2, 1]) < 1e-12
            assert np.abs([b[0, 1], b[0, 2], b[1, 0], b[2, 0],
                           b[3, 1], b[3, 2], b[1, 3], b[2, 3]]).max() < 1e-12


def _rotation_block_loop(l, R):
    """Per-entry reference assembly of diag(D^R, R2x2(D^C), D^R)."""
    dc = sh.wigner_d_complex(l, R)
    dr = sh.wigner_d_real_from_complex(dc)
    n_p = 2 if l < 2 else 4
    out = np.zeros(((2 * l + 1) * n_p,) * 2)
    for i in range(2 * l + 1):
        for j in range(2 * l + 1):
            bi, bj = i * n_p, j * n_p
            out[bi, bj] = out[bi + n_p - 1, bj + n_p - 1] = dr[i, j]
            if l >= 2:
                z = dc[i, j]
                out[bi + 1, bj + 1] = out[bi + 2, bj + 2] = z.real
                out[bi + 1, bj + 2], out[bi + 2, bj + 1] = -z.imag, z.imag
    return out


def test_psh_rotation_block_matches_loop_and_batches(rng):
    Rs = np.array([geom.random_rotation(rng) for _ in range(3)])
    for l in range(6):
        batch = psh.psh_rotation_block(l, None, dc=sh.wigner_d_stack(l, Rs)[l])
        for i, R in enumerate(Rs):
            assert np.array_equal(psh.psh_rotation_block(l, R), _rotation_block_loop(l, R))
            assert np.abs(batch[i] - _rotation_block_loop(l, R)).max() <= 1e-15


def test_psh_project_spin2_matches_conjugate_transpose():
    field = pipeline.synth_envmap("two-lobe-polarized", band=12)
    th, ph = field.grid.angles()
    b2 = psh.s2sh_basis(10, th.ravel(), ph.ravel())
    w = field.grid.weights().ravel()
    expect = b2.conj().T @ (w * field.spin2_complex().ravel())
    assert np.abs(psh.psh_project(field, 10).spin2 - expect).max() < 1e-14


def test_psh_rotation_block_quadrature(rng):
    # coefficient matrix by quadrature matches the analytic blocks
    lmax = 4
    g = geom.gauss_legendre_grid(10)
    th, ph = g.angles()
    R = geom.random_rotation(rng)
    c = random_coeffs(lmax, rng)
    ev = lambda t_, p_: psh.psh_reconstruct(c, t_, p_)
    rot = psh.rotate_field_components(ev, R, th, ph)
    c_ang = psh.psh_project(StokesField(rot, g), lmax)
    c_freq = psh.psh_rotate_coeffs(c, R)
    assert np.abs(c_ang.flat() - c_freq.flat()).max() < 1e-9
    # matrix route identical to block route
    flat_rot = psh.psh_rotation_matrix(lmax, R) @ c.flat()
    assert np.abs(flat_rot - c_freq.flat()).max() < 1e-12


def test_psh_rotate_composition_and_norm(rng):
    c = random_coeffs(5, rng)
    R1, R2 = geom.random_rotation(rng), geom.random_rotation(rng)
    a = psh.psh_rotate_coeffs(psh.psh_rotate_coeffs(c, R1), R2)
    b = psh.psh_rotate_coeffs(c, R2 @ R1)
    assert np.abs(a.flat() - b.flat()).max() < 1e-11
    assert abs(a.norm() - c.norm()) < 1e-12


def test_pole_reconstruction_continuity():
    c = pipeline.random_psh_coeffs(5, seed=3)
    base = psh.psh_reconstruct(c, 0.0, 0.0)
    for p2 in (0.5, 1.7, 4.4):
        v = psh.psh_reconstruct(c, 0.0, p2)
        rot = 2.0 * p2
        cr, sr = np.cos(rot), np.sin(rot)
        assert abs(v[1] - (cr * base[1] + sr * base[2])) < 1e-10
        assert abs(v[2] - (-sr * base[1] + cr * base[2])) < 1e-10


def test_triple_product_022(rng):
    with pytest.raises(ValueError):
        psh.triple_product_022(1, 0, 0, 0, 2, 0)
    # constant multiplier
    for (l, m) in ((2, 1), (3, -2), (4, 0)):
        tp = psh.triple_product_022(l, m, 0, 0, l, m)
        assert abs(tp - math.sqrt(1 / (4 * np.pi))) < 1e-13
    # m-selection
    assert psh.triple_product_022(2, 1, 3, 0, 2, 2) == 0.0
    # quadrature oracle, all triples l <= 4
    g = geom.gauss_legendre_grid(8)
    th, ph = g.angles()
    w = g.weights().ravel()
    B2 = psh.s2sh_basis(4, th.ravel(), ph.ravel())
    Bs = sh.sh_basis_complex(4, th.ravel(), ph.ravel())
    worst = 0.0
    for l1 in range(2, 5):
        for l3 in range(2, 5):
            for l2 in range(5):
                for m1 in range(-l1, l1 + 1):
                    for m3 in range(-l3, l3 + 1):
                        m2 = m1 - m3
                        if abs(m2) > l2:
                            continue
                        tp = psh.triple_product_022(l1, m1, l2, m2, l3, m3)
                        q = np.sum(w * np.conj(B2[:, psh.spin2_index(l1, m1)])
                                   * Bs[:, sh.sh_index(l2, m2)]
                                   * B2[:, psh.spin2_index(l3, m3)])
                        worst = max(worst, abs(tp - q))
    assert worst < 1e-9


def naive_spin2_rotation_matrix(l_max, R, grid):
    """Coefficient matrix of a rotation w.r.t. scalar real SH on (s1, s2)."""
    th, ph = grid.angles()
    w = grid.weights().ravel()
    B = sh.sh_basis_real(l_max, th.ravel(), ph.ravel())
    S = sh.sh_size(l_max)
    n = 2 * S
    mat = np.zeros((n, n))
    for col_lm in range(S):
        for p in (0, 1):
            cvals = np.zeros(S, dtype=complex)
            cvals[col_lm] = 1.0 if p == 0 else 1.0j

            def ev(t_, p_):
                b = sh.sh_basis_real(l_max, np.ravel(t_), np.ravel(np.asarray(p_, float)))
                z = b @ cvals
                out = np.zeros(np.shape(np.ravel(t_)) + (4,))
                out[..., 1] = z.real
                out[..., 2] = z.imag
                return out.reshape(np.shape(t_) + (4,))

            rot = psh.rotate_field_components(ev, R, th, ph)
            z = (rot[..., 1] + 1j * rot[..., 2]).ravel()
            proj = B.T @ (w * z)
            mat[0::2, 2 * col_lm + p] = proj.real
            mat[1::2, 2 * col_lm + p] = proj.imag
    return mat


def test_naive_basis_rotation_not_block_diagonal(rng):
    # scalar SH on theta-phi Stokes components mixes bands under rotation
    lmax = 3
    g = geom.gauss_legendre_grid(10)
    R = geom.rotation_about_axis(geom.normalize([10.0, 0.1, 0.2]),
                                 np.linalg.norm([10.0, 0.1, 0.2]))
    mat = naive_spin2_rotation_matrix(lmax, R, g)
    total = np.sum(mat ** 2)
    off = 0.0
    for l in range(lmax + 1):
        for lp in range(lmax + 1):
            if l == lp:
                continue
            rows = [2 * sh.sh_index(l, m) + p for m in range(-l, l + 1) for p in (0, 1)]
            cols = [2 * sh.sh_index(lp, m) + p for m in range(-lp, lp + 1) for p in (0, 1)]
            off += np.sum(mat[np.ix_(rows, cols)] ** 2)
    assert off / total > 0.01


def test_spin2_theta_table_matches_direct_formula():
    # the scalar-SH combination cancels near the poles (1.7e-10 at theta =
    # 1e-3, in the formula), so compare where sin(theta) >= 0.1
    theta = np.linspace(0.1, np.pi - 0.1, 41)
    table = sh.spin_theta_table(20, 2, theta)
    assert not table[:, :4].any()
    for l in range(2, 21):
        for m in range(-l, l + 1):
            ref = psh.s2sh_eval_direct(l, m, theta, 0.0)
            assert np.abs(table[:, sh.sh_index(l, m)] - ref).max() < 1e-12, (l, m)


def _ring_grids(L):
    """The band-L Gauss-Legendre grid and one with n_phi = 40 <= 2 L, whose
    phi sums alias (weights rescaled to keep the phi cell width)."""
    g = geom.gauss_legendre_grid(L)
    return g, geom.SphereGrid(L, g.theta_nodes, g.theta_weights * g.n_phi / 40, 40)


@pytest.mark.parametrize("aliased", [False, True])
def test_ring_transforms_equal_dense_basis_products(rng, aliased):
    L = 32
    g = _ring_grids(L)[aliased]
    th, ph = (a.ravel() for a in g.angles())
    w = g.weights().ravel()
    br, b2 = sh.sh_basis_real(L, th, ph), psh.s2sh_basis(L, th, ph)
    shape = (g.theta_nodes.size, g.n_phi)
    # sh_project, both kinds, real and complex samples
    f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    bc = sh.sh_basis_complex(L, th, ph)
    for kind, basis in (("complex", bc), ("real", br)):
        for vals in (f.real, f):
            got = sh.sh_project(vals, g, L, kind).values
            assert np.abs(got - basis.conj().T @ (w * vals.ravel())).max() < 1e-13, kind
    # psh_project on unit-scale samples
    data = rng.uniform(-1, 1, shape + (4,))
    c = psh.psh_project(StokesField(data, g), L)
    flat = data.reshape(-1, 4)
    assert np.abs(c.s0 - br.T @ (w * flat[:, 0])).max() < 1e-13
    assert np.abs(c.s3 - br.T @ (w * flat[:, 3])).max() < 1e-13
    assert np.abs(c.spin2 - b2.conj().T @ (w * (flat[:, 1] + 1j * flat[:, 2]))).max() < 1e-13
    # psh_reconstruct_field on coefficients of unit norm
    c = random_coeffs(L, rng)
    c = psh.PshCoeffs(L, c.s0 / c.norm(), c.spin2 / c.norm(), c.s3 / c.norm())
    out = psh.psh_reconstruct_field(c, g).data.reshape(-1, 4)
    lin = b2 @ c.spin2
    dense = np.stack([br @ c.s0, lin.real, lin.imag, br @ c.s3], axis=-1)
    assert np.abs(out - dense).max() < 1e-13


def test_spin2_basis_orthonormal_on_band64_grid():
    # Gram = sum_ij w_i conj(2Y_a) 2Y_b.  The phi sum of e^{i (m_b - m_a) phi}
    # over the 130 nodes is n_phi for m_a = m_b and vanishes for the other
    # |m_b - m_a| <= 128, so the Gram is one theta Gram per m.
    L = 64
    g = geom.gauss_legendre_grid(L)
    phi_sums = np.exp(1j * np.outer(np.arange(1, 2 * L + 1), g.phi_nodes)).sum(axis=1)
    assert np.abs(phi_sums).max() < 1e-12
    table = sh.ring_table(L, 2, g) * np.sqrt(g.theta_weights * g.n_phi)[:, None]
    m = sh.sh_lm_arrays(L)[1]
    for mm in range(-L, L + 1):
        cols = table[:, (m == mm) & (np.arange(m.size) >= 4)]
        assert np.abs(cols.T @ cols - np.eye(cols.shape[1])).max() < 1e-12, mm


def _psh_reconstruct_basis(coeffs, theta, phi):
    """The previous psh_reconstruct: basis matrices from the recurrence,
    sh._CHUNK points at a time."""
    theta, phi = np.broadcast_arrays(theta, phi)
    if theta.size > sh._CHUNK:
        parts = [_psh_reconstruct_basis(coeffs, theta.flat[lo:lo + sh._CHUNK],
                                        phi.flat[lo:lo + sh._CHUNK])
                 for lo in range(0, theta.size, sh._CHUNK)]
        return np.concatenate(parts).reshape(theta.shape + (4,))
    s0, s3 = (sh.sh_basis_real(coeffs.l_max, theta, phi) @ np.stack([coeffs.s0, coeffs.s3], -1)).T
    c = psh.s2sh_basis(coeffs.l_max, theta, phi) @ coeffs.spin2
    return np.stack([s0, c.real, c.imag, s3], axis=-1).reshape(theta.shape + (4,))


def _psh_reconstruct_ld(coeffs, theta, phi):
    """psh_reconstruct in long double: the recurrence's blocks times the real
    (s = 0) and complex (s = 2) phases, as sh_basis_real and s2sh_basis form them."""
    L = coeffs.l_max
    th, ph = (np.asarray(a, dtype=np.longdouble) for a in (theta, phi))
    m = np.arange(-L, L + 1)
    cos, sin = np.cos(m * ph[:, None]), np.sin(m * ph[:, None])
    r2 = np.sqrt(np.longdouble(2))
    real_phase = np.where(m > 0, r2 * cos, np.where(m < 0, -r2 * (-1) ** (m % 2) * sin, 1))
    out = np.zeros((th.size, 4), dtype=np.longdouble)
    for l, block in sh._theta_blocks(L, 0, th):
        b = block * real_phase[:, L - l:L + l + 1]
        out[:, [0, 3]] += b @ np.stack([coeffs.s0, coeffs.s3], -1)[l * l:(l + 1) ** 2]
    for l, block in sh._theta_blocks(L, 2, th) if L >= 2 else ():
        c = coeffs.spin2[l * l - 4:(l + 1) ** 2 - 4]
        re, im = block * cos[:, L - l:L + l + 1], block * sin[:, L - l:L + l + 1]
        out[:, 1] += re @ c.real - im @ c.imag
        out[:, 2] += re @ c.imag + im @ c.real
    return out


def _random_psh(L, rng):
    n2 = psh.spin2_size(L)
    spin2 = rng.normal(size=n2) + 1j * rng.normal(size=n2)
    return psh.PshCoeffs(L, rng.normal(size=sh.sh_size(L)), spin2, rng.normal(size=sh.sh_size(L)))


def test_psh_reconstruct_matches_long_double_reference(rng):
    # at the poles, 1e-9 from each and at random points; needs an
    # np.longdouble wider than float64
    for L in (32, 64, 128):
        c = _random_psh(L, rng)
        th = np.concatenate([[0.0, np.pi, 1e-9, np.pi - 1e-9], np.arccos(rng.uniform(-1, 1, 150))])
        ph = rng.uniform(0, 2 * np.pi, th.size)
        want = _psh_reconstruct_ld(c, th, ph)
        err = np.abs(psh.psh_reconstruct(c, th, ph) - want).max()
        assert float(err) <= 2e-14 * float(np.abs(want).max()), (L, err)


def test_psh_reconstruct_matches_previous_basis_path(rng):
    for L in (0, 1, 2, 9, 32):
        c = _random_psh(L, rng)
        n = sh._CHUNK + 37 if L == 9 else 200
        th, ph = np.arccos(rng.uniform(-1, 1, (2, n))), rng.uniform(0, 2 * np.pi, n)
        th[0, :4] = [0.0, np.pi, 1e-9, np.pi - 1e-9]
        got, want = psh.psh_reconstruct(c, th, ph), _psh_reconstruct_basis(c, th, ph)
        assert got.shape == want.shape == (2, n, 4)
        assert np.abs(got - want).max() <= 2e-14 * max(1.0, np.abs(want).max()), L
