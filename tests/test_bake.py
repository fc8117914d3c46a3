"""The structure-aware bake against the dense one-vertex bake it replaced.

`dense_precompute` keeps the earlier per-vertex `build` body unchanged: the
dense transfer product `brdf_mat @ vmat`, the shadow operator assembled
through `assemble_psh_matrix`, and the convolution fit whose residual is the
dense matrix less `conv_expand_to_matrix` of the fit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarsh import geom, operators as op, pconv, pipeline as pl, psh as P
from polarsh import shscalar as sh
from polarsh.polar import synthetic_pbrdf

KC_NAMES = pconv.KC_FAMILIES


# ---------------------------------------------------------------------------
# the dense oracle
# ---------------------------------------------------------------------------

def dense_shadow_expand(v, l_max):
    grid = geom.gauss_legendre_grid(l_max + v.l_max // 2)
    vals = sh.ring_synthesis(sh.r2c_values(v.values), grid, 0).real
    th, ph = (a.ravel() for a in grid.angles())
    br, b2 = sh.sh_basis_real(l_max, th, ph), P.s2sh_basis(l_max, th, ph)
    wv = grid.weights().ravel() * vals.ravel()
    Sr = br.T @ (wv[:, None] * br)
    C2 = b2.conj().T @ (wv[:, None] * b2)
    blocks = {("scalar", (0, 0)): Sr, ("scalar", (3, 3)): Sr, ("iso", None): C2}
    return op.PshCoeffMatrix(l_max, op.assemble_psh_matrix(l_max, blocks))


def dense_residual_labels(l_max):
    l, m, p = P.psh_layout(l_max).lmp.T
    spin = (p == 1) | (p == 2)
    block = spin[:, None] + 2 * spin[None, :]
    unmatched = (l[:, None] != l[None, :]) | (np.abs(m)[:, None] != np.abs(m)[None, :])
    label = 2 * (block * (l_max + 1) + l[:, None]) + unmatched
    label[(block == 2) & (l[:, None] < 2)] = 8 * (l_max + 1)
    label = label.ravel()
    count = np.bincount(label, minlength=8 * (l_max + 1) + 1)[:-1].reshape(4, l_max + 1, 2)
    return label, count


def dense_energies(M, kc):
    """The residual energies per label from the dense residual, by bincount."""
    l_max = M.l_max
    label, count = dense_residual_labels(l_max)
    R = M.matrix - pconv.conv_expand_to_matrix(kc, l_max).matrix
    energy = np.bincount(label, weights=(R * R).ravel(), minlength=count.size + 1)
    energy = energy[:-1].reshape(count.shape)
    energy[3] *= 0.5
    return energy, count


def dense_conv_project_operator(M):
    l_max = M.l_max
    n_l = l_max + 1
    t = pconv._conv_tables(l_max)
    v = M.matrix[t.row, t.col]
    key = t.fam * n_l + t.l
    fac = np.sqrt(4.0 * np.pi / (2 * np.arange(n_l) + 1))
    k = np.zeros((2, len(KC_NAMES), n_l))
    for part, (w, sign) in enumerate(((t.w.real, 1.0), (t.w.imag, -1.0))):
        num, den = (np.bincount(key, weights=x, minlength=k[part].size).reshape(-1, n_l)
                    for x in (w * v, w * w))
        np.divide(sign * num, den * fac, out=k[part], where=den > 0)
    kc = pconv.PolarConvKernelCoeffs(l_max, *k[0, :4], *(k[0, 4:] + 1j * k[1, 4:]))
    energy, count = dense_energies(M, kc)
    rms = np.sqrt(energy / np.maximum(count, 1))
    report = {name: {l: {"matched": float(rms[b, l, 0]), "unmatched": float(rms[b, l, 1])}
                     for l in range(0 if b == 0 else 2, n_l)}
              for b, name in enumerate(("scalar", "to_spin2", "from_spin2", "spin22"))}
    return kc, math.sqrt(energy.sum() / max(count.sum(), 1)), report


def _truncate_matrix(M, l_new):
    n = P.psh_size(l_new)
    return op.PshCoeffMatrix(l_new, M.matrix[:n, :n].copy())


def dense_precompute(mesh, brdf_mat, occluders=(), l_low=4, l_high=9,
                     use_ray_visibility=False, n_rays=2000):
    brdf_mat = _truncate_matrix(brdf_mat, l_high)
    l_vis = 2 * l_high
    vis_grid = geom.gauss_legendre_grid(l_vis)
    refl_rows, refl_signs = op.reflection_permutation_psh(l_high)
    z = np.array([0.0, 0.0, 1.0])
    if use_ray_visibility:
        dirs_f = geom.fibonacci_directions(n_rays)
        B = sh.sh_basis_real(l_vis, *geom.dir_to_sph(dirs_f))

    def build(i):
        n = mesh.normals[i]
        Rv = geom.rotation_align(z, n)
        # project the visibility directly in the vertex's local frame:
        # V_local(w) = V_world(Rv w)
        if use_ray_visibility:
            world = dirs_f @ Rv.T
            vals = (pl.ray_visibility(mesh, i, world)
                    * op.visibility_from_spheres(occluders, world))
            v_local = sh.ShCoeffs(l_vis, "real",
                                  (4.0 * np.pi / n_rays) * (B.T @ vals))
        else:
            v_local = op.visibility_project(
                lambda dirs: op.visibility_from_spheres(occluders, dirs @ Rv.T),
                l_vis, vis_grid)
        vmat = dense_shadow_expand(v_local, l_high)
        T = op.PshCoeffMatrix(l_high, brdf_mat.matrix @ vmat.matrix)
        mat_low = _truncate_matrix(T, l_low)
        conv = None
        resid = 0.0
        if l_high > l_low:
            reflected = op.PshCoeffMatrix(l_high, refl_signs[:, None] * T.matrix[refl_rows])
            kc, resid, _ = dense_conv_project_operator(reflected)
            for name in KC_NAMES:
                getattr(kc, name)[:l_low + 1] = 0.0
            conv = kc
        return pl.TransferRecord(n, Rv, mat_low, conv, l_low, l_high, resid)

    return [build(i) for i in range(len(mesh.vertices))]


def assert_records_equal(got, want, tol=1e-13):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.matrix_low.l_max == w.matrix_low.l_max
        assert np.abs(g.matrix_low.matrix - w.matrix_low.matrix).max() <= tol
        assert np.array_equal(g.rotation, w.rotation)
        assert abs(g.conv_residual - w.conv_residual) <= tol
        assert (g.conv_high is None) == (w.conv_high is None)
        if w.conv_high is not None:
            for name in KC_NAMES:
                assert np.abs(getattr(g.conv_high, name)
                              - getattr(w.conv_high, name)).max() <= tol, name


# ---------------------------------------------------------------------------
# records against the dense oracle
# ---------------------------------------------------------------------------

OCCLUDERS = ((np.array([0.8, 0.15, 0.58]), 0.7), (np.array([-0.4, 0.7, -0.59]), 0.5))


@pytest.fixture(scope="module")
def material9():
    mat = synthetic_pbrdf(roughness=0.5, ior=1.5, horizon_sharpness=0.15)
    return op.operator_project(mat, 9, geom.gauss_legendre_grid(18))


@pytest.fixture(scope="module")
def mesh10():
    mesh = pl.sphere_mesh(3, 4)      # ten vertices, the poles among them
    assert len(mesh.vertices) == 10
    assert np.array_equal(mesh.normals[[0, -1], 2], [1.0, -1.0])
    return mesh


def test_bake_equals_dense_oracle(material9, mesh10):
    got = pl.pprt_precompute(mesh10, material9, OCCLUDERS, 4, 9)
    assert_records_equal(got, dense_precompute(mesh10, material9, OCCLUDERS, 4, 9))
    assert max(r.conv_residual for r in got) > 1e-6


def test_bake_equals_dense_oracle_equal_bands(material9, mesh10):
    got = pl.pprt_precompute(mesh10, material9, OCCLUDERS, 6, 6)
    assert got[0].conv_high is None
    assert_records_equal(got, dense_precompute(mesh10, material9, OCCLUDERS, 6, 6))


def test_bake_equals_dense_oracle_ray_visibility(material9):
    mesh = pl.sphere_mesh(3, 4)
    got = pl.pprt_precompute(mesh, material9, OCCLUDERS, 2, 5,
                             use_ray_visibility=True, n_rays=300)
    assert_records_equal(got, dense_precompute(mesh, material9, OCCLUDERS, 2, 5,
                                               use_ray_visibility=True, n_rays=300))


def test_bake_equals_dense_oracle_dense_material(mesh10, rng):
    material = op.PshCoeffMatrix(5, rng.normal(size=(P.psh_size(5),) * 2))
    assert pl._reflected_blocks(material.matrix, 5)[0][0].size == P.psh_size(5)
    got = pl.pprt_precompute(mesh10, material, OCCLUDERS, 2, 5)
    assert_records_equal(got, dense_precompute(mesh10, material, OCCLUDERS, 2, 5))


def test_bake_keeps_a_tiny_entry_outside_the_m_blocks(material9, mesh10):
    lay = P.psh_layout(9)
    m_abs = np.abs(lay.lmp[:, 1])
    row = int(np.flatnonzero(m_abs == 3)[5])
    col = int(np.flatnonzero(m_abs == 1)[2])
    assert material9.matrix[row, col] == 0.0
    tiny = material9.matrix.copy()
    tiny[row, col] = 1e-300
    tiny = op.PshCoeffMatrix(9, tiny)
    n_rows = lambda M: sum(dest.size for dest, _, _ in pl._reflected_blocks(M.matrix, 9))
    assert n_rows(tiny) == n_rows(material9) + 1
    got = pl.pprt_precompute(mesh10, tiny, OCCLUDERS, 4, 9)
    assert_records_equal(got, dense_precompute(mesh10, tiny, OCCLUDERS, 4, 9))


# ---------------------------------------------------------------------------
# the |m|-class product
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(l_max=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1),
       density=st.floats(0.0, 1.0))
def test_class_product_equals_dense_product(l_max, seed, density):
    rng = np.random.default_rng(seed)
    n = P.psh_size(l_max)
    m_abs = np.abs(P.psh_layout(l_max).lmp[:, 1])
    # a random set of (|m_o|, |m_i|) class pairs, thinned inside
    pairs = rng.random((l_max + 1, l_max + 1)) < density
    keep = pairs[m_abs[:, None], m_abs[None, :]] & (rng.random((n, n)) < 0.7)
    brdf = np.where(keep, rng.normal(size=(n, n)), 0.0)
    V = rng.normal(size=(n, n))
    rows, signs = op.reflection_permutation_psh(l_max)
    want = signs[:, None] * (brdf @ V)[rows]
    got = pl._reflected_product(pl._reflected_blocks(brdf, l_max), V)
    assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


# ---------------------------------------------------------------------------
# the fit's residual without a dense expansion
# ---------------------------------------------------------------------------

def _conv_structured(rng, L):
    kc = pconv.PolarConvKernelCoeffs(
        L, *(rng.normal(size=L + 1) for _ in range(4)),
        *(rng.normal(size=L + 1) + 1j * rng.normal(size=L + 1) for _ in range(6)))
    return pconv.conv_expand_to_matrix(kc, L).matrix


@pytest.mark.parametrize("L", [1, 2, 3, 6, 9])
@pytest.mark.parametrize("kind", ["random", "structured", "structured+noise"])
def test_conv_project_energies_match_dense_bincount(rng, L, kind):
    n = P.psh_size(L)
    M = {"random": lambda: rng.normal(size=(n, n)),
         "structured": lambda: _conv_structured(rng, L),
         "structured+noise": lambda: _conv_structured(rng, L)
                                     + 1e-4 * rng.normal(size=(n, n))}[kind]()
    M = op.PshCoeffMatrix(L, M)
    kc, rms, report = pconv.conv_project_operator(M)
    kc_d, rms_d, report_d = dense_conv_project_operator(M)
    for name in KC_NAMES:
        assert np.array_equal(getattr(kc, name), getattr(kc_d, name))
    assert abs(rms - rms_d) <= 1e-12 * rms_d
    assert report.keys() == report_d.keys()
    for block, rows in report_d.items():
        assert rows.keys() == report[block].keys()
        for l, pair in rows.items():
            for key, want in pair.items():
                assert abs(report[block][l][key] - want) <= 1e-12 * want, (block, l, key)
    # a Fortran-ordered copy of the same matrix reads the same
    assert pconv.conv_project_operator(op.PshCoeffMatrix(L, np.asfortranarray(M.matrix)))[1] == rms
