import json
import re

import numpy as np
import pytest

from polarsh import cli, io as pio, pipeline
from polarsh.s2l2 import ViewSpec, render_image


def run(*args):
    return cli.main([str(a) for a in args])


def test_project_reconstruct_roundtrip(tmp_path):
    env = tmp_path / "env.s4em"
    coeff = tmp_path / "env.psh4"
    back = tmp_path / "back.s4em"
    assert run("synth", "band-limited-random", "--lmax", 9, "--grid", 12, env) == 0
    assert run("project", "--lmax", 9, env, coeff) == 0
    assert run("reconstruct", "--grid", 12, coeff, back) == 0
    f1 = pio.load_stokes_field(env)
    f2 = pio.load_stokes_field(back)
    # float32 payload bounds the round trip
    assert np.abs(f1.data - f2.data).max() < 1e-5


def test_rotate_inverse_identity(tmp_path):
    coeff = tmp_path / "c.psh4"
    pio.save_psh_coeffs(coeff, pipeline.random_psh_coeffs(5, seed=4))
    rot = tmp_path / "r.psh4"
    back = tmp_path / "b.psh4"
    assert run("rotate", "--rotation", "0.3,1.1,-0.4", coeff, rot) == 0
    assert run("rotate", "--rotation", "0.4,-1.1,-0.3", rot, back) == 0
    c0 = pio.load_psh_coeffs(coeff)
    c1 = pio.load_psh_coeffs(back)
    assert np.abs(c0.flat() - c1.flat()).max() < 1e-12


def test_convolve_builtin_and_zero_s3(tmp_path):
    coeff = tmp_path / "c.psh4"
    out = tmp_path / "o.psh4"
    pio.save_psh_coeffs(coeff, pipeline.random_psh_coeffs(6, seed=5))
    assert run("convolve", "--kernel", "builtin:pi-minus-theta",
               "--zero-s3", coeff, out) == 0
    from polarsh import pconv
    c = pio.load_psh_coeffs(coeff)
    c.s3[:] = 0.0
    expect = pconv.pconv_apply(pconv.kernel_coeffs(
        lambda th: (np.pi - th) * np.eye(4), 6), c)
    got = pio.load_psh_coeffs(out)
    assert np.abs(got.flat() - expect.flat()).max() < 1e-12


def test_convolve_kernel_file(tmp_path):
    from polarsh import pconv
    coeff = tmp_path / "c.psh4"
    kern = tmp_path / "k.pshk"
    out = tmp_path / "o.psh4"
    pio.save_psh_coeffs(coeff, pipeline.random_psh_coeffs(4, seed=6))
    pio.save_kernel_coeffs(kern, pconv.delta_kernel_coeffs(4))
    assert run("convolve", "--kernel", kern, coeff, out) == 0
    assert np.abs(pio.load_psh_coeffs(out).flat()
                  - pio.load_psh_coeffs(coeff).flat()).max() < 1e-12


def test_resample_cli(tmp_path):
    src = tmp_path / "p.s4em"
    dstspec = tmp_path / "v.json"
    out = tmp_path / "e.s4em"
    view = ViewSpec("perspective", 12, 12, np.eye(3), 120.0)
    pio.save_stokes_image(src, render_image(pipeline.two_lobe_field_fn, view))
    dstspec.write_text(json.dumps({"kind": "equirect", "height": 16, "width": 32}))
    assert run("resample", "--method", "s2l2", "--dst", dstspec, "--out", out, src) == 0
    img = pio.load_stokes_image(out)
    assert img.data.shape == (16, 32, 4)
    assert run("resample", "--method", "naive", "--dst", dstspec, "--out", out, src) == 0


@pytest.mark.parametrize("spec, message", [
    ({"kind": "perspective", "height": 0, "width": 8}, "view height must be an integer >= 1, got 0"),
    ({"kind": "equirect", "height": 8, "width": 0}, "view width must be an integer >= 1, got 0"),
    ({"kind": "perspective", "height": 8, "width": 8, "fov": 0}, r"view fov_deg .* \(0, 180\) degrees, got 0.0"),
    ({"kind": "perspective", "height": 8, "width": 8, "fov": 200}, "view fov_deg .* got 200.0"),
    ({"kind": "perspective", "height": 8, "width": 8, "fov": float("nan")}, "view fov_deg .* got nan"),
    ({"kind": "perspective", "height": 8, "width": 8, "pose": np.diag([1.0, 1.0, -1.0]).tolist()},
     "view pose must be a 3x3 rotation"),
    # any kind but equirect used to become a perspective view
    ({"kind": "equirectangular", "height": 8, "width": 16}, "unknown view kind 'equirectangular'"),
    # a missing key used to print only error: 'height'
    ({"kind": "perspective", "width": 8}, "v.json: the view key 'height' is missing"),
    # a list used to print 'list' object has no attribute 'get'
    ([8, 8], "v.json: a view spec is a JSON object, got a list"),
    # an unknown key used to be ignored: this view was rendered at 90 degrees
    ({"kind": "perspective", "height": 8, "width": 8, "fov_deg": 60},
     "v.json: unknown view key 'fov_deg'; the keys are kind, height, width, fov, pose"),
    ({"kind": "perspective", "height": 8, "width": 8, "fov": "wide"},
     "v.json: the view key 'fov' must be a number, got 'wide'"),
])
def test_resample_rejects_bad_view_specs(tmp_path, capsys, spec, message):
    # each used to exit 0 and write an S4EM file that load_stokes_image rejects
    src = tmp_path / "p.s4em"
    dstspec = tmp_path / "v.json"
    out = tmp_path / "o.s4em"
    pio.save_stokes_image(src, render_image(pipeline.two_lobe_field_fn, ViewSpec("equirect", 4, 8)))
    dstspec.write_text(json.dumps(spec))
    assert run("resample", "--dst", dstspec, "--out", out, src) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_pprt_cli(tmp_path):
    from polarsh import pipeline as pl
    mesh = pl.sphere_mesh(3, 4)
    obj = tmp_path / "m.obj"
    pl.save_obj(obj, mesh)
    env = tmp_path / "e.psh4"
    pio.save_psh_coeffs(env, pipeline.random_psh_coeffs(4, seed=7))
    csv_out = tmp_path / "v.csv"
    bin_out = tmp_path / "v.f64"
    assert run("pprt", "--mesh", obj, "--env", env, "--llow", 4, "--lhigh", 4,
               "--occluder", "0.8,0.1,0.6,0.7", "--out-csv", csv_out,
               "--out-bin", bin_out) == 0
    data = np.fromfile(bin_out, dtype="<f8").reshape(-1, 4)
    assert data.shape[0] == len(mesh.vertices)
    assert np.isfinite(data).all()
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("index,") and len(lines) == len(mesh.vertices) + 1
    # band violation exits nonzero
    assert run("pprt", "--mesh", obj, "--env", env, "--lhigh", 9,
               "--out-csv", csv_out, "--out-bin", bin_out) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--camera", "1,2,nan", "--camera needs 3 finite numbers"),
    ("--camera", "1,2", "--camera needs 3 finite numbers"),
    ("--camera", "0,0,1", "--camera 0,0,1 sits on mesh vertex 0"),
    ("--occluder", "nan,0,1,0.5", "--occluder needs 4 finite numbers"),
    ("--occluder", "0,0,1,nan", "--occluder needs 4 finite numbers"),
    ("--occluder", "0,0,0,0.5", "occluder 0: center .* not a finite nonzero 3-vector"),
    ("--occluder", "0,0,1,4", r"occluder 0: angular radius 4.0 is not in \[0, pi\]"),
])
def test_pprt_rejects_bad_scene_input(tmp_path, capsys, flag, value, message):
    # a NaN camera would shade NaN values, a bad occluder would be dropped
    env = tmp_path / "e.psh4"
    pio.save_psh_coeffs(env, pipeline.random_psh_coeffs(4, seed=7))
    obj = tmp_path / "m.obj"
    pipeline.save_obj(obj, pipeline.sphere_mesh(2, 3))
    csv_out, bin_out = tmp_path / "v.csv", tmp_path / "v.f64"
    assert run("pprt", "--mesh", obj, "--env", env, "--llow", 2, "--lhigh", 4, flag, value,
               "--out-csv", csv_out, "--out-bin", bin_out) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not csv_out.exists() and not bin_out.exists()


def test_s2l2_validate_cli(capsys):
    assert run("s2l2-validate", "--n", 60, "--pairs", 1) == 0
    text = capsys.readouterr().out
    assert "per-vector max distance" in text
    assert "rotation-invariance sweep" in text


def test_pprt_refuses_a_camera_on_a_vertex_before_baking(tmp_path, capsys, monkeypatch):
    # the vertex has no view direction; nothing is baked or written
    def no_bake(*args, **kwargs):
        raise AssertionError("baked before checking the camera")
    monkeypatch.setattr(pipeline, "pprt_precompute", no_bake)
    env = tmp_path / "e.psh4"
    pio.save_psh_coeffs(env, pipeline.random_psh_coeffs(4, seed=7))
    cam = ",".join(repr(float(x)) for x in pipeline.sphere_mesh().vertices[37])
    csv_out, bin_out = tmp_path / "v.csv", tmp_path / "v.f64"
    assert run("pprt", "--env", env, "--llow", 2, "--lhigh", 4, "--camera", cam,
               "--out-csv", csv_out, "--out-bin", bin_out) == 1
    assert f"--camera {cam} sits on mesh vertex 37" in capsys.readouterr().err
    assert not csv_out.exists() and not bin_out.exists()


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_s2l2_validate_rejects_non_finite_eps(capsys, eps):
    assert run("s2l2-validate", "--n", 10, "--eps", eps) == 1
    assert f"needs a finite eps, got {eps}" in capsys.readouterr().err


def test_malformed_input_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.psh4"
    bad.write_bytes(b"garbage")
    assert run("reconstruct", bad, tmp_path / "o.s4em") == 1
    assert "error:" in capsys.readouterr().err


def test_negative_lmax_exits_one_and_writes_nothing(tmp_path, capsys):
    # synth used to write a nonzero map from a one-coefficient vector and exit
    # 0, and project to die inside numpy on an empty reduction
    env = tmp_path / "env.s4em"
    assert run("synth", "band-limited-random", "--lmax", 4, env) == 0
    neg_map, neg_coeffs = tmp_path / "neg.s4em", tmp_path / "neg.psh4"
    assert run("synth", "band-limited-random", "--lmax", -2, neg_map) == 1
    assert "l_max must be an integer >= 0, got -2" in capsys.readouterr().err
    assert run("project", "--lmax", -1, env, neg_coeffs) == 1
    assert "l_max must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not neg_map.exists() and not neg_coeffs.exists()


def test_synth_on_a_grid_below_lmax_exits_one_and_writes_nothing(tmp_path, capsys):
    # a band-2 map of band-4 coefficients used to be written with exit 0
    small = tmp_path / "small.s4em"
    assert run("synth", "band-limited-random", "--lmax", 4, "--grid", 2, small) == 1
    assert "grid band 2 cannot hold coefficients of l_max 4" in capsys.readouterr().err
    assert not small.exists()
