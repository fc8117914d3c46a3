import os
import re

import numpy as np
import pytest

from polarsh import geom, operators as op, pconv, pipeline as pl, polar, psh
from polarsh.polar import synthetic_pbrdf


def test_synth_envmaps(tmp_path):
    from polarsh.io import save_stokes_field
    a = pl.synth_envmap("band-limited-random", l_max=5, seed=9)
    b = pl.synth_envmap("band-limited-random", l_max=5, seed=9)
    pa, pb = tmp_path / "a.s4em", tmp_path / "b.s4em"
    save_stokes_field(pa, a)
    save_stokes_field(pb, b)
    assert pa.read_bytes() == pb.read_bytes()
    # band-limited-random projects and reconstructs exactly
    c = psh.psh_project(a, 5)
    back = psh.psh_reconstruct(c, *a.grid.angles())
    assert np.abs(back - a.data).max() < 1e-10
    # sky is physically valid everywhere
    sky = pl.synth_envmap("sky-analytic")
    s = sky.data
    assert np.all(s[..., 0] >= np.sqrt((s[..., 1:] ** 2).sum(-1)) - 1e-12)
    with pytest.raises(ValueError):
        pl.synth_envmap("nope")


def test_synth_band_limited_random_needs_a_grid_band_of_at_least_l_max():
    with pytest.raises(ValueError, match="grid band 2 cannot hold coefficients of l_max 4"):
        pl.synth_envmap("band-limited-random", l_max=4, band=2)
    assert pl.synth_envmap("band-limited-random", l_max=4, band=4).grid.band == 4


def test_two_lobe_pole_continuity():
    f = pl.two_lobe_field_fn
    base = f(np.pi, 0.0)
    for p2 in (0.9, 2.2, 5.1):
        v = f(np.pi, p2)
        rot = -2.0 * p2    # south pole: components rotate the other way
        c, s = np.cos(rot), np.sin(rot)
        assert abs(v[1] - (c * base[1] + s * base[2])) < 1e-12
        assert abs(v[2] - (-s * base[1] + c * base[2])) < 1e-12


def test_sphere_mesh_and_obj(tmp_path):
    m = pl.sphere_mesh()
    assert len(m.vertices) == 512
    assert np.abs(np.linalg.norm(m.normals, axis=1) - 1).max() < 1e-12
    assert m.triangles.min() >= 0 and m.triangles.max() < len(m.vertices)
    path = tmp_path / "s.obj"
    pl.save_obj(path, m)
    m2 = pl.load_obj(path)
    assert np.abs(m2.vertices - m.vertices).max() == 0.0
    assert np.abs(m2.normals - m.normals).max() < 1e-12
    assert np.array_equal(m2.triangles, m.triangles)
    assert len(pl.sphere_mesh(2, 3).vertices) == 5
    with pytest.raises(ValueError, match="n_rings >= 2, got 1"):
        pl.sphere_mesh(1, 3)
    with pytest.raises(ValueError, match="n_segments >= 3, got 2"):
        pl.sphere_mesh(2, 2)
    for radius in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"finite radius > 0, got {radius}"):
            pl.sphere_mesh(2, 3, radius)


def test_save_vertex_stokes_refuses_before_writing(tmp_path):
    mesh = pl.sphere_mesh(2, 3)
    csv_out, bin_out = tmp_path / "v.csv", tmp_path / "v.f64"
    values = np.ones((5, 4))
    values[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite value nan at payload index 6"):
        pl.save_vertex_stokes(csv_out, bin_out, mesh, values)
    with pytest.raises(ValueError, match=r"shape \(4, 4\), expected \(5, 4\)"):
        pl.save_vertex_stokes(csv_out, bin_out, mesh, np.ones((4, 4)))
    assert not csv_out.exists() and not bin_out.exists()
    pl.save_vertex_stokes(csv_out, bin_out, mesh, np.ones((5, 4)))
    assert np.array_equal(np.fromfile(bin_out, dtype="<f8"), np.ones(20))


def test_obj_without_normals(tmp_path):
    path = tmp_path / "t.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    m = pl.load_obj(path)
    assert np.abs(m.normals[0] - [0, 0, 1]).max() < 1e-12


def test_obj_polygons_are_fan_triangulated(tmp_path):
    quad = tmp_path / "q.obj"
    quad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    m = pl.load_obj(quad)
    assert m.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]
    assert np.abs(m.normals - [0, 0, 1]).max() < 1e-12
    # a pentagon with v//vn tokens keeps the per-corner normals
    pent = tmp_path / "p.obj"
    ang = 2 * np.pi * np.arange(5) / 5
    lines = [f"v {np.cos(a)} {np.sin(a)} 0" for a in ang]
    lines += [f"vn 0 0 {k + 1}" for k in range(5)]
    lines.append("f " + " ".join(f"{k}//{k}" for k in range(1, 6)))
    pent.write_text("\n".join(lines) + "\n")
    m = pl.load_obj(pent)
    assert m.triangles.tolist() == [[0, 1, 2], [0, 2, 3], [0, 3, 4]]
    assert np.abs(m.normals - [0, 0, 1]).max() < 1e-12
    # negative indices count back from the last entry read
    rel = tmp_path / "r.obj"
    rel.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 1 0 0\nvn 0 0 1\nf -3//-1 -2//-1 -1//-1\n")
    m = pl.load_obj(rel)
    assert m.triangles.tolist() == [[0, 1, 2]]
    assert np.abs(m.normals - [0, 0, 1]).max() == 0.0


def test_obj_rejects_bad_faces(tmp_path):
    path = tmp_path / "u.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 5 5 5\nf 1 2 3\n")
    with pytest.raises(ValueError, match="vertex 4 "):
        pl.load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
    with pytest.raises(ValueError, match="line 4: index 4 out of range"):
        pl.load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//2\n")
    with pytest.raises(ValueError, match="index 2 out of range"):
        pl.load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n")
    with pytest.raises(ValueError, match="line 4"):
        pl.load_obj(path)
    # non-finite (1e400 overflows to inf) or missing coordinates, even where
    # given normals hide them
    tri = "vn 0 0 1\nf 1//1 2//1 3//1\n"
    for bad in ("v nan 0 0", "v 0 inf 0", "v 0 0 1e400", "v 0 0"):
        path.write_text(bad + "\nv 1 0 0\nv 0 1 0\n" + tri)
        with pytest.raises(ValueError, match="line 1: v needs three finite numbers"):
            pl.load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 0\nf 1//1 2//1 3//1\n")
    with pytest.raises(ValueError, match="vertex 1 has no usable normal"):
        pl.load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")     # a degenerate face
    with pytest.raises(ValueError, match="vertex 1 has no usable normal"):
        pl.load_obj(path)
    path.write_text("v 0 0 0\n")
    with pytest.raises(ValueError, match="no faces"):
        pl.load_obj(path)
    # non-numeric tokens name their line
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 0 x\nf 1 2 3\n")
    with pytest.raises(ValueError, match="line 3: v needs three finite numbers"):
        pl.load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 a\n")
    with pytest.raises(ValueError, match="line 4: index 'a' is not an integer"):
        pl.load_obj(path)


def test_mesh_rejects_bad_indices_and_normals():
    eye = np.eye(3)
    with pytest.raises(ValueError, match="triangle 1 has vertex index -1, out of range for 3"):
        pl.Mesh(eye, eye, [[0, 1, 2], [0, 1, -1]])
    with pytest.raises(ValueError, match="triangle 0 has vertex index 3"):
        pl.Mesh(eye, eye, [[0, 3, 1]])
    with pytest.raises(ValueError, match=r"normals of shape \(2, 3\) for vertices of shape \(3, 3\)"):
        pl.Mesh(eye, eye[:2], [[0, 1, 2]])
    for bad in (np.nan, np.inf, 0.0):
        normals = eye.copy()
        normals[1] = [bad, 0.0, 0.0]
        with pytest.raises(ValueError, match="normal 1 is zero or not finite"):
            pl.Mesh(eye, normals, [[0, 1, 2]])
    for bad in (np.nan, -np.inf):
        verts = eye.copy()
        verts[2, 1] = bad
        with pytest.raises(ValueError, match="vertex 2 is not finite"):
            pl.Mesh(verts, eye, [[0, 1, 2]])
    with pytest.raises(ValueError, match="vertex 0 is not finite"):
        pl.Mesh([[np.nan, 0.0, 0.0]], [[0.0, 0.0, 1.0]], np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError, match=r"vertices have shape \(3, 2\), expected \(N, 3\)"):
        pl.Mesh(eye[:, :2], eye[:, :2], [[0, 1, 2]])
    with pytest.raises(ValueError, match=r"triangles have shape \(1, 2\), expected \(M, 3\)"):
        pl.Mesh(eye, eye, [[0, 1]])
    # one vertex and no triangle, as a bake of one vertex uses
    one = pl.Mesh(eye[:1], 2.0 * eye[:1], np.zeros((0, 3), dtype=int))
    assert np.array_equal(one.normals, eye[:1])


def test_ray_visibility_convex():
    m = pl.sphere_mesh(6, 8)
    vis = pl.ray_visibility(m, 0, np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0, -1.0]]))
    assert vis[0] == 1.0 and vis[2] == 0.0


@pytest.fixture(scope="module")
def small_setup():
    mesh = pl.sphere_mesh(4, 6)
    mat = synthetic_pbrdf(roughness=0.5, ior=1.5, horizon_sharpness=0.15)
    bm = op.operator_project(mat, 6, geom.gauss_legendre_grid(12))
    lighting = pl.random_psh_coeffs(6, seed=21)
    return mesh, mat, bm, lighting


def test_pprt_unshadowed_transfer_equals_brdf(small_setup):
    mesh, _, bm, _ = small_setup
    recs = pl.pprt_precompute(mesh, bm, occluders=(), l_low=6, l_high=6)
    assert np.abs(recs[0].matrix_low.matrix - bm.matrix).max() < 1e-9
    assert recs[0].conv_high is None


def test_pprt_zero_lighting(small_setup):
    mesh, _, bm, _ = small_setup
    recs = pl.pprt_precompute(mesh, bm, occluders=(), l_low=6, l_high=6)
    out = pl.pprt_shade(recs, psh.PshCoeffs.zeros(6), mesh.normals)
    assert np.abs(out).max() == 0.0


def test_pprt_depolarizing_material_unpolarized_light(small_setup):
    mesh, _, _, _ = small_setup

    def depol(w_i, w_o):
        w_i = np.asarray(w_i, dtype=float)
        w_o = np.asarray(w_o, dtype=float)
        dot = np.einsum("...i,...i->...", *np.broadcast_arrays(w_i, w_o))
        M = np.zeros(dot.shape + (4, 4))
        M[..., 0, 0] = np.exp(dot - 1.0)
        return M

    bm = op.operator_project(depol, 6, geom.gauss_legendre_grid(12))
    recs = pl.pprt_precompute(mesh, bm, occluders=(), l_low=6, l_high=6)
    light = pl.random_psh_coeffs(6, seed=3, unpolarized=True)
    light.s3[:] = 0.0
    out = pl.pprt_shade(recs, light, mesh.normals)
    assert np.abs(out[:, 1:3]).max() < 1e-10
    assert np.abs(out[:, 0]).max() > 1e-4


def test_pprt_hemisphere_halving(small_setup):
    _, _, _, _ = small_setup
    mat = synthetic_pbrdf(roughness=0.5, ior=1.5, horizon_sharpness=0.15)
    bm = op.operator_project(mat, 8, geom.gauss_legendre_grid(16))
    mesh1 = pl.Mesh(np.array([[0, 0, 1.0]]), np.array([[0, 0, 1.0]]),
                    np.zeros((0, 3), dtype=int))
    const = psh.PshCoeffs.zeros(8)
    const.s0[0] = 1.0
    half = [(np.array([-1.0, 0.0, 0.0]), np.pi / 2)]
    out_h = pl.pprt_shade(pl.pprt_precompute(mesh1, bm, half, 8, 8), const,
                          np.array([[0, 0, 1.0]]))
    out_o = pl.pprt_shade(pl.pprt_precompute(mesh1, bm, (), 8, 8), const,
                          np.array([[0, 0, 1.0]]))
    assert abs(out_h[0, 0] / out_o[0, 0] - 0.5) < 0.05


def test_pprt_split_band_consistency(small_setup):
    mesh, _, bm, lighting = small_setup
    full = pl.pprt_shade(pl.pprt_precompute(mesh, bm, (), 6, 6), lighting, mesh.normals)
    split_recs = pl.pprt_precompute(mesh, bm, (), l_low=3, l_high=6)
    assert split_recs[0].conv_high is not None
    assert split_recs[0].conv_residual >= 0.0
    # l < 2 coefficient families of the high-band kernel are zeroed
    assert np.abs(split_recs[0].conv_high.k00[:4]).max() == 0.0
    split = pl.pprt_shade(split_recs, lighting, mesh.normals)
    # conv high band approximates the matrix high band
    scale = np.abs(full).max()
    assert np.sqrt(np.mean((split - full) ** 2)) < 0.2 * scale


def test_pprt_l_low_zero(small_setup):
    # with l_low = 0 only l = 0 goes through the transfer matrix, and the
    # high-band kernel is zero at l = 0: constant lighting shades as at l_high = 0
    mesh, _, bm, lighting = small_setup
    recs = pl.pprt_precompute(mesh, bm, (), l_low=0, l_high=6)
    out = pl.pprt_shade(recs, lighting, mesh.normals)
    assert out.shape == (len(mesh.vertices), 4) and np.isfinite(out).all()
    const = psh.PshCoeffs.zeros(6)
    const.s0[0], const.s3[0] = lighting.s0[0], lighting.s3[0]
    at0 = pl.pprt_shade(pl.pprt_precompute(mesh, bm, (), 0, 0), const, mesh.normals)
    assert np.abs(pl.pprt_shade(recs, const, mesh.normals) - at0).max() < 1e-15
    assert np.abs(at0).max() > 0.0


def test_pprt_shade_reference_agreement(small_setup):
    mesh, mat, bm, lighting = small_setup
    occ = [(np.array([0.7, 0.1, 0.7]), 0.6)]
    recs = pl.pprt_precompute(mesh, bm, occ, l_low=6, l_high=6)
    view = geom.normalize(np.array([2.0, 1.0, 3.0])[None, :] - mesh.vertices)
    out = pl.pprt_shade(recs, lighting, view)
    i = 7
    ref = pl.shade_reference(mesh, i, mat, occ, lighting, view[i], band=64)
    assert np.abs(out[i] - ref).max() < 0.02 * max(1.0, np.abs(ref).max())


def test_pprt_zero_s3_flag(small_setup):
    mesh, _, bm, lighting = small_setup
    recs = pl.pprt_precompute(mesh, bm, (), 6, 6)
    out = pl.pprt_shade(recs, lighting, mesh.normals, zero_s3=True)
    assert np.abs(out[:, 3]).max() == 0.0


def test_pprt_shade_next_to_the_poles(small_setup, rng):
    # view directions next to a world pole (and local poles: next to the
    # normals) used to need a 1e-6 direction tolerance in the final reframe.
    # Compared under camera frames, which are smooth through the poles, the
    # output must be continuous there.
    mesh, _, bm, lighting = small_setup
    recs = pl.pprt_precompute(mesh, bm, (), l_low=4, l_high=6)
    n = len(recs)

    def shade_in_camera_frames(views, up):
        out = pl.pprt_shade(recs, lighting, views)
        return np.array([polar.stokes_reframe(o, geom.frame_for_dir(v), geom.frame_perspective(v, u))
                         for o, v, u in zip(out, views, up)])

    for poles in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0], mesh.normals):
        poles = np.broadcast_to(poles, (n, 3))
        up = geom.normalize(np.cross(poles, rng.normal(size=3)))
        base = shade_in_camera_frames(poles, up)
        for eps in 10.0 ** -np.arange(3, 13):
            t = geom.normalize(np.cross(poles, rng.normal(size=(n, 3))))
            views = geom.normalize(poles + eps * t)
            assert np.abs(shade_in_camera_frames(views, up) - base).max() <= eps, eps


def _shade_loop(records, lighting, view_dirs):
    """The per-vertex shading loop: the oracle of the batched pprt_shade."""
    comps = np.zeros((len(records), 4))
    frames = np.zeros((len(records), 3, 3))
    for i, rec in enumerate(records):
        Rv = rec.rotation
        light_local = psh.psh_rotate_coeffs(lighting.truncated(rec.l_high), Rv.T)
        wo_local = Rv.T @ view_dirs[i]
        th_l, ph_l = geom.dir_to_sph(wo_local)
        low_out = op.operator_apply(rec.matrix_low, light_local.truncated(rec.l_low))
        comps[i] = psh.psh_reconstruct(low_out, th_l, ph_l)
        if rec.conv_high is not None and rec.l_high > rec.l_low:
            g = pconv.pconv_apply(rec.conv_high, light_local)
            flipped = np.array([wo_local[0], wo_local[1], -wo_local[2]])
            gc = psh.psh_reconstruct(g, *geom.dir_to_sph(flipped))
            comps[i] += [gc[0], gc[1], -gc[2], gc[3]]
        frames[i] = Rv @ geom.frame_theta_phi(th_l, ph_l)
    return polar.stokes_reframe(comps, frames, geom.frame_for_dir(view_dirs))


@pytest.fixture(scope="module")
def band9_setup():
    mat = synthetic_pbrdf(roughness=0.5, ior=1.5, horizon_sharpness=0.15)
    bm = op.operator_project(mat, 9, geom.gauss_legendre_grid(18))
    mesh = pl.sphere_mesh(4, 6)
    view = geom.normalize(np.array([2.0, 1.0, 3.0])[None, :] - mesh.vertices)
    return mesh, bm, pl.random_psh_coeffs(9, seed=5), view


@pytest.mark.parametrize("l_low, l_high", [(4, 9), (0, 6), (6, 6)])
def test_pprt_shade_batch_matches_loop(band9_setup, l_low, l_high):
    mesh, bm, lighting, view = band9_setup
    occ = [(np.array([0.7, 0.1, 0.7]), 0.6)]
    recs = pl.pprt_precompute(mesh, bm, occ, l_low, l_high)
    assert (recs[0].conv_high is None) == (l_low == l_high)
    want = _shade_loop(recs, lighting, view)
    assert np.abs(want).max() > 1e-3
    assert np.abs(pl.pprt_shade(recs, lighting, view) - want).max() < 1e-13
    # one record alone
    one = pl.pprt_shade(recs[5:6], lighting, view[5:6])
    assert one.shape == (1, 4) and np.abs(one - want[5]).max() < 1e-13


def test_pprt_shade_mixed_bands_in_output_order(band9_setup):
    mesh, bm, lighting, view = band9_setup
    a = pl.pprt_precompute(mesh, bm, (), 2, 4)
    b = pl.pprt_precompute(mesh, bm, (), 4, 6)
    pick = np.arange(len(mesh.vertices))
    recs = [(a if i % 3 else b)[i] for i in pick]
    want = _shade_loop(recs, lighting, view)
    assert np.abs(pl.pprt_shade(recs, lighting, view) - want).max() < 1e-13
    # the lighting must cover the largest l_high, not that of the first record
    assert recs[1].l_high == 4
    with pytest.raises(ValueError, match="lighting band 4 below the records' l_high 6"):
        pl.pprt_shade(recs[1:], lighting.truncated(4), view[1:])


def test_pprt_shade_normals_at_the_poles(band9_setup):
    # normals +z and -z: the batched Wigner stack meets beta = 0 and pi
    _, bm, lighting, _ = band9_setup
    normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.6, 0.0, 0.8],
                        [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    mesh = pl.Mesh(normals, normals, np.zeros((0, 3), dtype=int))
    recs = pl.pprt_precompute(mesh, bm, (), 4, 9)
    betas = geom.zyz_from_rotation(np.stack([r.rotation.T for r in recs]))[1]
    assert np.array_equal(betas[[0, 1, 3, 4]], [0.0, np.pi, np.pi, 0.0])
    view = geom.normalize(np.array([[0.3, 0.2, 1.0], [0.1, -0.4, -1.0], [1.0, 0.0, 1.0],
                                    [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]))
    want = _shade_loop(recs, lighting, view)
    assert np.abs(pl.pprt_shade(recs, lighting, view) - want).max() < 1e-13


def test_pprt_shade_input_checks(small_setup):
    mesh, _, bm, lighting = small_setup
    recs = pl.pprt_precompute(mesh, bm, (), 4, 6)
    n = len(recs)
    for views in (np.ones((n + 1, 3)), np.ones((n - 1, 3)), np.ones((n, 2)), np.ones(3)):
        shape = re.escape(str(views.shape))
        with pytest.raises(ValueError, match=f"{shape}, expected \\({n}, 3\\)"):
            pl.pprt_shade(recs, lighting, views)
    empty = pl.pprt_shade([], lighting, np.zeros((0, 3)))
    assert empty.shape == (0, 4)


def test_pprt_ray_visibility_path():
    mesh = pl.sphere_mesh(4, 6)
    mat = synthetic_pbrdf(roughness=0.6, ior=1.5, horizon_sharpness=0.15)
    bm = op.operator_project(mat, 4, geom.gauss_legendre_grid(10))
    recs = pl.pprt_precompute(mesh, bm, (), l_low=4, l_high=4,
                              use_ray_visibility=True, n_rays=400)
    # convex sphere: upper-hemisphere visibility; transfer differs from the
    # unshadowed one but stays finite and sane
    assert np.all(np.isfinite(recs[0].matrix_low.matrix))


def test_pprt_material_above_l_high_is_truncated(small_setup):
    # an L = 6 material baked at l_high = 4 equals the material projected at 4
    mesh, mat, bm, _ = small_setup
    bm4 = op.operator_project(mat, 4, geom.gauss_legendre_grid(12))
    occ = [(np.array([0.7, 0.1, 0.7]), 0.6)]
    recs6 = pl.pprt_precompute(mesh, bm, occ, l_low=2, l_high=4)
    recs4 = pl.pprt_precompute(mesh, bm4, occ, l_low=2, l_high=4)
    names = ("k00", "k03", "k30", "k33", "k0p", "k3p", "kp0", "kp3", "kiso", "kconj")
    for r6, r4 in zip(recs6, recs4):
        assert r6.matrix_low.l_max == 2
        assert np.abs(r6.matrix_low.matrix - r4.matrix_low.matrix).max() < 1e-12
        for name in names:
            assert np.abs(getattr(r6.conv_high, name) - getattr(r4.conv_high, name)).max() < 1e-12
        assert abs(r6.conv_residual - r4.conv_residual) < 1e-12


def test_pprt_band_validation(small_setup):
    mesh, _, bm, lighting = small_setup
    with pytest.raises(ValueError):
        pl.pprt_precompute(mesh, bm, (), l_low=7, l_high=6)
    with pytest.raises(ValueError):
        pl.pprt_precompute(mesh, bm, (), l_low=2, l_high=9)   # matrix band too low
    recs = pl.pprt_precompute(mesh, bm, (), 6, 6)
    with pytest.raises(ValueError):
        pl.pprt_shade(recs, pl.random_psh_coeffs(4, seed=0), mesh.normals)


@pytest.mark.parametrize("l_low, l_high, name", [
    (-1, 6, "l_low"), (2.5, 6, "l_low"), (True, 6, "l_low"), (np.float64(2), 6, "l_low"),
    (2, -1, "l_high"), (2, 6.0, "l_high"), (2, None, "l_high"),
])
def test_pprt_precompute_rejects_a_band_that_is_no_integer_at_least_zero(
        small_setup, l_low, l_high, name):
    # l_low = -1 used to build records with an empty low band, and 2.5 to die
    # inside numpy on an index cast
    mesh, _, bm, _ = small_setup
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got "):
        pl.pprt_precompute(mesh, bm, (), l_low, l_high)


def test_pprt_material_matrix_checks(small_setup):
    mesh, _, bm, _ = small_setup
    stacked = op.PshCoeffMatrix(6, np.stack([bm.matrix, bm.matrix]))
    for l_low, l_high in ((6, 6), (2, 6), (2, 4)):
        with pytest.raises(ValueError, match=re.escape(str(stacked.matrix.shape))):
            pl.pprt_precompute(mesh, stacked, (), l_low, l_high)
    for bad in (np.nan, np.inf, -np.inf):
        m = bm.matrix.copy()
        m[7, 3] = bad
        m[9, 1] = bad
        with pytest.raises(ValueError, match=re.escape("(row, col) = (7, 3)")):
            pl.pprt_precompute(mesh, op.PshCoeffMatrix(6, m), (), 2, 4)
    # the whole matrix is checked, the part above l_high too
    m = bm.matrix.copy()
    m[-1, -2] = np.nan
    with pytest.raises(ValueError, match=re.escape("(row, col) = (187, 186)")):
        pl.pprt_precompute(mesh, op.PshCoeffMatrix(6, m), (), 2, 4)
