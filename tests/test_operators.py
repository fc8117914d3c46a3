import math

import numpy as np
import pytest

from polarsh import geom, operators as op, pconv, pipeline, psh
from polarsh import shscalar as sh
from polarsh.polar import synthetic_pbrdf


LMAX = 4


@pytest.fixture(scope="module")
def pbrdf_matrix():
    pb = synthetic_pbrdf(roughness=4.0, ior=1.5)
    return pb, op.operator_project(pb, LMAX, geom.gauss_legendre_grid(12))


def test_operator_apply_basics(rng, pbrdf_matrix):
    _, M = pbrdf_matrix
    n = M.matrix.shape[0]
    ident = op.PshCoeffMatrix(LMAX, np.eye(n))
    c = pipeline.random_psh_coeffs(LMAX, seed=5)
    assert np.abs(op.operator_apply(ident, c).flat() - c.flat()).max() == 0.0
    zero = psh.PshCoeffs.zeros(LMAX)
    assert np.abs(op.operator_apply(M, zero).flat()).max() == 0.0
    # associativity of composition with application
    A = op.PshCoeffMatrix(LMAX, rng.normal(size=(n, n)))
    lhs = op.operator_apply(A, op.operator_apply(M, c))
    rhs = op.operator_apply(op.PshCoeffMatrix(LMAX, A.matrix @ M.matrix), c)
    assert np.abs(lhs.flat() - rhs.flat()).max() < 1e-10
    with pytest.raises(ValueError):
        op.operator_apply(M, pipeline.random_psh_coeffs(LMAX + 1, seed=0))


def test_complex_input_is_rejected():
    n = psh.psh_size(2)
    with pytest.raises(ValueError, match="matrix"):
        op.PshCoeffMatrix(2, (1 + 1j) * np.ones((n, n)))
    real = np.ones(psh.sh_size(2))
    spin2 = np.ones(psh.spin2_size(2), dtype=complex)
    with pytest.raises(ValueError, match="s0"):
        psh.PshCoeffs(2, (1 + 1j) * real, spin2, real)
    with pytest.raises(ValueError, match="s3"):
        psh.PshCoeffs(2, real, spin2, (1 + 1j) * real)


def test_operator_project_angular_oracle(rng, pbrdf_matrix):
    # applying the matrix to band-limited lighting matches direct angular
    # integration of the rendering integral
    pb, M = pbrdf_matrix
    c = pipeline.random_psh_coeffs(LMAX, seed=11)
    out = op.operator_apply(M, c)
    gf = geom.gauss_legendre_grid(30)
    tf, pf = gf.angles()
    w = gf.weights().ravel()
    dirs = gf.dirs().reshape(-1, 3)
    light = psh.psh_reconstruct(c, tf, pf).reshape(-1, 4)
    for (to, po) in ((0.5, 0.7), (1.2, 3.0), (2.2, 5.1)):
        wo = geom.sph_to_dir(to, po)
        K = pb(dirs, wo[None, :])
        direct = np.einsum("i,iab,ib->a", w, K, light)
        recon = psh.psh_reconstruct(out, to, po)
        assert np.abs(direct - recon).max() < 1e-6


def test_depolarizer_field_block_separation():
    # M = diag(1,0,0,0) * k(w_i . w_o) must populate only the 0-to-0 block
    def depol(w_i, w_o):
        w_i = np.asarray(w_i, dtype=float)
        w_o = np.asarray(w_o, dtype=float)
        dot = np.einsum("...i,...i->...", *np.broadcast_arrays(w_i, w_o))
        k = np.exp(dot - 1.0)
        M = np.zeros(dot.shape + (4, 4))
        M[..., 0, 0] = k
        return M

    M = op.operator_project(depol, 3, geom.gauss_legendre_grid(10))
    blocks = op.split_psh_matrix(M)
    assert np.abs(blocks["scalar"][(0, 0)]).max() > 1e-3
    for key in ((0, 3), (3, 0), (3, 3)):
        assert np.abs(blocks["scalar"][key]).max() < 1e-12
    for a in (0, 3):
        assert np.abs(blocks["to_spin2"][a]).max() < 1e-12
        assert np.abs(blocks["from_spin2"][a]).max() < 1e-12
    assert np.abs(blocks["iso"]).max() < 1e-12
    assert np.abs(blocks["conj"]).max() < 1e-12


def test_operator_project_band_check():
    with pytest.raises(ValueError):
        op.operator_project(lambda a, b: np.zeros((4, 4)), 5, geom.gauss_legendre_grid(3))
    with pytest.raises(ValueError):   # the ring path
        op.operator_project(synthetic_pbrdf(), 5, geom.gauss_legendre_grid(3))


def _dense(field):
    """The same field without its `azimuthal` declaration: the dense path."""
    return lambda w_i, w_o: field(w_i, w_o)


def _aliased_grid(n_phi):
    g = geom.gauss_legendre_grid(6)
    return geom.SphereGrid(6, g.theta_nodes, g.theta_weights * g.n_phi / n_phi, n_phi)


@pytest.mark.parametrize("L, grid, kwargs", [
    (9, geom.gauss_legendre_grid(18), dict(roughness=0.5, horizon_sharpness=0.15)),
    (4, geom.gauss_legendre_grid(12), dict(roughness=1.0)),
    (4, geom.gauss_legendre_grid(4), dict(roughness=1.0)),
    (4, geom.gauss_legendre_grid(12), dict(normal=(0, 0, -1), roughness=0.7, ior=1.3,
                                           horizon_sharpness=0.2)),
    (5, _aliased_grid(6), dict(roughness=0.8)),
    (5, _aliased_grid(11), dict(normal=(0, 0, -2), roughness=0.8)),
], ids=["L9-band18", "L4-band12", "L4-band4", "normal-z", "nphi6", "nphi11-normal-z"])
def test_ring_path_matches_dense_path(L, grid, kwargs):
    pb = synthetic_pbrdf(**kwargs)
    assert pb.azimuthal
    ring = op.operator_project(pb, L, grid).matrix
    dense = op.operator_project(_dense(pb), L, grid).matrix
    assert np.abs(ring - dense).max() <= 1e-13 * np.abs(dense).max()


def test_azimuthal_declaration_and_phi_shift(rng):
    assert not synthetic_pbrdf(normal=(0.1, 0.0, 1.0)).azimuthal
    assert not synthetic_pbrdf(normal=(0.0, 1e-12, 1.0)).azimuthal
    for normal in ((0, 0, 1), (0, 0, -1), (0, 0, 3.0)):
        pb = synthetic_pbrdf(normal=normal, roughness=0.5, horizon_sharpness=0.15)
        assert pb.azimuthal
        # the declared symmetry: a common phi shift leaves K unchanged
        th = np.arccos(rng.uniform(-1, 1, size=(2, 500)))
        ph = rng.uniform(0, 2 * np.pi, size=(2, 500))
        shift = rng.uniform(0, 2 * np.pi, size=500)
        K = pb(geom.sph_to_dir(th[0], ph[0]), geom.sph_to_dir(th[1], ph[1]))
        Ks = pb(geom.sph_to_dir(th[0], ph[0] + shift), geom.sph_to_dir(th[1], ph[1] + shift))
        assert np.abs(Ks - K).max() <= 1e-14 * np.abs(K).max()
    with pytest.raises(AttributeError):
        pb.azimuthal = False


def test_isotropy_sparsity_on_the_dense_path():
    # criterion 10's pBRDF through the dense path, where the |m_i| = |m_o|
    # sparsity is measured, not built in
    M = op.operator_project(_dense(synthetic_pbrdf(roughness=1.0, ior=1.5)), 4,
                            geom.gauss_legendre_grid(12))
    comp = op.isotropic_compact(M)
    assert comp.max_m_violation < 1e-9
    assert comp.max_pair_violation < 1e-9


def test_isotropic_compact(pbrdf_matrix, rng):
    _, M = pbrdf_matrix
    comp = op.isotropic_compact(M)
    assert comp.max_m_violation < 1e-9
    assert comp.max_pair_violation < 1e-9
    assert comp.stored_count == op.isotropic_storage_count(LMAX)
    # anisotropic operator violates the constraint visibly
    aniso = op.PshCoeffMatrix(LMAX, rng.normal(size=M.matrix.shape))
    bad = op.isotropic_compact(aniso)
    assert bad.max_m_violation > 0.1


def test_assemble_split_roundtrip(rng):
    n = psh.psh_size(3)
    M = op.PshCoeffMatrix(3, rng.normal(size=(n, n)))
    blocks = op.split_psh_matrix(M)
    back = op.assemble_psh_matrix(3, blocks)
    assert np.abs(back - M.matrix).max() < 1e-14


def test_visibility_from_spheres():
    occ = [(np.array([0.0, 0.0, 1.0]), 0.4)]
    assert op.visibility_from_spheres([], np.array([0.0, 0, 1])) == 1.0
    assert op.visibility_from_spheres(occ, np.array([0.0, 0, 1])) == 0.0
    assert op.visibility_from_spheres(occ, geom.sph_to_dir(0.5, 0.0)) == 1.0


def test_visibility_project_trivial_and_zonal():
    grid = geom.gauss_legendre_grid(40)
    v1 = op.visibility_project(lambda d: np.ones(np.asarray(d).shape[:-1]), 8, grid)
    expect = np.zeros(sh.sh_size(8))
    expect[0] = math.sqrt(4 * np.pi)
    assert np.abs(v1.values - expect).max() < 1e-12
    v0 = op.visibility_project(lambda d: np.zeros(np.asarray(d).shape[:-1]), 8, grid)
    assert np.abs(v0.values).max() == 0.0
    # upper hemisphere against the 1-D Legendre integral oracle
    grid = geom.gauss_legendre_grid(201)
    vh = op.visibility_project(lambda d: (np.asarray(d)[..., 2] > 0).astype(float), 6, grid)
    from numpy.polynomial.legendre import Legendre
    for l in range(7):
        if l == 0:
            integral = 1.0
        else:
            integral = (Legendre.basis(l - 1)(0) - Legendre.basis(l + 1)(0)) / (2 * l + 1)
        expect = 2 * np.pi * math.sqrt((2 * l + 1) / (4 * np.pi)) * integral
        assert abs(vh.values[sh.sh_index(l, 0)] - expect) < 2e-3
        for m in range(1, l + 1):
            assert abs(vh.values[sh.sh_index(l, m)]) < 2e-3


def test_cap_solid_angle_deficit():
    radius = 0.5
    occ = [(np.array([0.3, 0.4, np.sqrt(1 - 0.25)]), radius)]
    grid = geom.gauss_legendre_grid(32)
    v = op.visibility_project(lambda d: op.visibility_from_spheres(occ, d), 16, grid)
    cap_area = 2 * np.pi * (1 - np.cos(radius))
    expect = (4 * np.pi - cap_area) / math.sqrt(4 * np.pi)
    assert abs(v.values[0] - expect) < 1e-3


def test_visibility_basis_cache_keyed_on_grid_nodes():
    # same band and shape, different nodes or weights: each grid gets its own
    # basis, so every projection equals the direct quadrature on its grid
    g1 = geom.gauss_legendre_grid(8)
    n = g1.theta_nodes.size
    mid = np.pi * (np.arange(n) + 0.5) / n
    g2 = geom.SphereGrid(8, mid, np.pi / n * np.sin(mid) * 2 * np.pi / g1.n_phi, g1.n_phi)
    g3 = geom.SphereGrid(8, g1.theta_nodes, 2.0 * g1.theta_weights, g1.n_phi)
    vis = lambda d: (np.asarray(d)[..., 2] > 0.2).astype(float)
    outs = []
    for g in (g1, g2, g3):
        v = op.visibility_project(vis, 6, g)
        th, ph = g.angles()
        direct = (sh.sh_basis_real(6, th.ravel(), ph.ravel()).T
                  @ (g.weights().ravel() * vis(g.dirs()).ravel()))
        assert np.abs(v.values - direct).max() < 1e-12
        outs.append(v.values)
    assert np.abs(outs[0] - outs[1]).max() > 1e-3
    assert np.abs(outs[2] - 2.0 * outs[0]).max() < 1e-12


def test_cached_tables_are_read_only():
    g = geom.gauss_legendre_grid(4)
    op.visibility_project(lambda d: np.ones(np.asarray(d).shape[:-1]), 4, g)
    tables = [*op._product_bases(2, 4), *psh.psh_layout(3), sh.ring_table(4, 0, g),
              sh.ring_table(4, 2, g), *sh.sh_lm_arrays(3), sh.complex_to_real_block(2),
              sh.complex_to_real_matrix(3),
              *pconv._conv_tables(3), *pconv._residual_labels(3)]
    for a in tables:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = a[(0,) * a.ndim]


def test_shadow_expand_identity_and_zero_blocks():
    grid = geom.gauss_legendre_grid(16)
    v1 = op.visibility_project(lambda d: np.ones(np.asarray(d).shape[:-1]), 8, grid)
    V = op.shadow_expand(v1, LMAX)
    assert np.abs(V.matrix - np.eye(V.matrix.shape[0])).max() < 1e-10
    vh = op.visibility_project(lambda d: (np.asarray(d)[..., 2] > 0).astype(float), 8, grid)
    Vh = op.shadow_expand(vh, LMAX)
    blocks = op.split_psh_matrix(Vh)
    for a in (0, 3):
        assert np.abs(blocks["to_spin2"][a]).max() == 0.0
        assert np.abs(blocks["from_spin2"][a]).max() == 0.0
    assert np.abs(blocks["conj"]).max() == 0.0
    assert np.abs(blocks["scalar"][(0, 0)] - blocks["scalar"][(3, 3)]).max() == 0.0


def test_shadow_expand_matches_direct():
    # band-limited v on the band-rule grid vs direct quadrature of the raw mask
    grid = geom.gauss_legendre_grid(16)
    vis = lambda d: (np.asarray(d)[..., 2] > 0).astype(float)
    v = op.visibility_project(vis, 2 * LMAX, grid)
    Vexp = op.shadow_expand(v, LMAX)
    Vdir = op.shadow_matrix_direct(vis, LMAX, grid)
    assert np.abs(Vexp.matrix - Vdir.matrix).max() < 1e-8


def test_shadow_expand_matches_direct_smooth_independent_grids():
    # smooth mask: the two routes on unrelated grids agree tightly
    def vis(d):
        return 1.0 / (1.0 + np.exp(-np.asarray(d)[..., 2] / 0.35))

    v = op.visibility_project(vis, 2 * LMAX, geom.gauss_legendre_grid(48))
    Vexp = op.shadow_expand(v, LMAX)
    Vdir = op.shadow_matrix_direct(vis, LMAX, geom.gauss_legendre_grid(64))
    assert np.abs(Vexp.matrix - Vdir.matrix).max() < 1e-8


def _gaunt_shadow(v, L):
    """The pointwise-product operator of real-SH v by Gaunt contraction over
    v's complex coefficients: triple_product_000 on the scalar block, moved
    to the real basis, and triple_product_022 on the spin-2 block."""
    vc = sh.r2c_values(v.values)
    S0 = np.zeros((sh.sh_size(L),) * 2, dtype=complex)
    S2 = np.zeros((psh.spin2_size(L),) * 2, dtype=complex)
    lm = [(l, m) for l in range(L + 1) for m in range(-l, l + 1)]
    for lo, mo in lm:
        for li, mi in lm:
            mv = mo - mi
            for lv in range(max(abs(lo - li), abs(mv)), min(lo + li, v.l_max) + 1):
                c = vc[sh.sh_index(lv, mv)]
                S0[sh.sh_index(lo, mo), sh.sh_index(li, mi)] += (
                    sh.triple_product_000(lo, mo, lv, mv, li, mi) * c)
                if lo >= 2 and li >= 2:
                    S2[psh.spin2_index(lo, mo), psh.spin2_index(li, mi)] += (
                        psh.triple_product_022(lo, mo, lv, mv, li, mi) * c)
    U = sh.complex_to_real_matrix(L)
    Sr = (U.conj() @ S0 @ U.T).real
    return op.assemble_psh_matrix(L, {"scalar": {(0, 0): Sr, (3, 3): Sr}, "iso": S2})


@pytest.mark.parametrize("L, Lv", [(4, 8), (5, 10), (4, 7)])
def test_shadow_expand_equals_gaunt_contraction(rng, L, Lv):
    v = sh.ShCoeffs(Lv, "real", rng.normal(size=sh.sh_size(Lv)))
    assert np.abs(op.shadow_expand(v, L).matrix - _gaunt_shadow(v, L)).max() < 1e-13


@pytest.mark.parametrize("L, Lv", [(4, 8), (4, 7)])
def test_shadow_quadrature_band_rule(rng, L, Lv):
    # degree 2L + Lv is exact on band B = L + Lv // 2 (degree 2B + 1), and
    # one band less aliases
    v = sh.ShCoeffs(Lv, "real", rng.normal(size=sh.sh_size(Lv)))
    gaunt = _gaunt_shadow(v, L)
    vis = lambda d: sh.sh_reconstruct(v, *geom.dir_to_sph(d))
    B = L + Lv // 2
    err = [np.abs(op.shadow_matrix_direct(vis, L, geom.gauss_legendre_grid(b)).matrix
                  - gaunt).max() for b in (B, B - 1)]
    assert err[0] < 1e-13 and err[1] > 1e-3, err


def test_reflection_permutation_equals_dense_product(rng):
    for l_max in (0, 1, 2, 5):
        rows, signs = op.reflection_permutation_psh(l_max)
        assert not rows.flags.writeable and not signs.flags.writeable
        n = psh.psh_size(l_max)
        T = rng.normal(size=(n, n))
        dense = op.reflection_matrix_psh(l_max).matrix @ T
        assert np.array_equal(signs[:, None] * T[rows], dense)


def test_reflection_matrix():
    R = op.reflection_matrix_psh(LMAX)
    n = R.matrix.shape[0]
    assert np.abs(R.matrix @ R.matrix - np.eye(n)).max() < 1e-12
    assert R.matrix[psh.psh_index(1, 0, 0, LMAX), psh.psh_index(1, 0, 0, LMAX)] == -1.0
    # quadrature of the flipped basis
    grid = geom.gauss_legendre_grid(10)
    th, ph = grid.angles()
    c = pipeline.random_psh_coeffs(LMAX, seed=2)
    ev = lambda t_, p_: psh.psh_reconstruct(c, t_, p_)
    flipped = psh.reflect_field_components(ev, th, ph)
    from polarsh.polar import StokesField, SAMPLING_QUAD
    c_flip = psh.psh_project(StokesField(flipped, SAMPLING_QUAD, grid), LMAX)
    expect = R.matrix @ c.flat()
    assert np.abs(c_flip.flat() - expect).max() < 1e-9


def test_operator_composition_matches_matrix_product():
    # smooth wide-lobe operators: the matrix product approximates the
    # composition's projection up to band truncation
    pb1 = synthetic_pbrdf(roughness=4.0, ior=1.5)
    pb2 = synthetic_pbrdf(roughness=3.0, ior=1.3)
    grid = geom.gauss_legendre_grid(12)
    L = 4
    M1 = op.operator_project(pb1, L, grid)
    M2 = op.operator_project(pb2, L, grid)

    g_mid = geom.gauss_legendre_grid(6)
    mid = g_mid.dirs().reshape(-1, 3)
    w_mid = g_mid.weights().ravel()

    def composed(w_i, w_o):
        # (P1 o P2)(w_i, w_o) = int P1(w, w_o) P2(w_i, w) dw
        w_i_b, w_o_b = np.broadcast_arrays(np.asarray(w_i, dtype=float),
                                           np.asarray(w_o, dtype=float))
        flat_i = w_i_b.reshape(-1, 3)
        flat_o = w_o_b.reshape(-1, 3)
        out = np.zeros((flat_i.shape[0], 4, 4))
        for lo in range(0, flat_i.shape[0], 2000):
            sl = slice(lo, min(lo + 2000, flat_i.shape[0]))
            A = pb1(mid[None, :, :], flat_o[sl, None, :])    # (k, n, 4, 4)
            B = pb2(flat_i[sl, None, :], mid[None, :, :])
            out[sl] = np.einsum("n,knab,knbc->kac", w_mid, A, B)
        return out.reshape(w_i_b.shape[:-1] + (4, 4))

    composed.azimuthal = True    # both factors have a z normal: the ring path
    Mc = op.operator_project(composed, L, geom.gauss_legendre_grid(8))
    prod = M1.matrix @ M2.matrix
    scale = np.abs(Mc.matrix).max()
    assert np.abs(Mc.matrix - prod).max() < 1e-3 * max(1.0, scale)


def test_block_separation_theorem():
    # zeroing one input block of the Mueller field zeroes exactly the
    # corresponding coefficient sub-block
    base = synthetic_pbrdf(roughness=1.0, ior=1.5)

    def spin22_only(w_i, w_o):
        M = np.asarray(base(w_i, w_o)).copy()
        M[..., 0, :] = 0.0
        M[..., 3, :] = 0.0
        M[..., :, 0] = 0.0
        M[..., :, 3] = 0.0
        return M

    M = op.operator_project(spin22_only, 3, geom.gauss_legendre_grid(10))
    blocks = op.split_psh_matrix(M)
    for key in ((0, 0), (0, 3), (3, 0), (3, 3)):
        assert np.abs(blocks["scalar"][key]).max() < 1e-9
    for a in (0, 3):
        assert np.abs(blocks["to_spin2"][a]).max() < 1e-9
        assert np.abs(blocks["from_spin2"][a]).max() < 1e-9
    assert np.abs(blocks["iso"]).max() > 1e-4
