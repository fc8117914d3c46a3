import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarsh import geom, io as pio, pconv, pipeline, psh, s2l2
from polarsh import shscalar as sh
from polarsh.operators import PshCoeffMatrix
from polarsh.s2l2 import ViewSpec, render_image


def test_sh_coeffs_roundtrip(tmp_path, rng):
    for kind in ("complex", "real"):
        vals = rng.normal(size=sh.sh_size(5))
        if kind == "complex":
            vals = vals + 1j * rng.normal(size=vals.size)
        c = sh.ShCoeffs(5, kind, vals)
        p = tmp_path / f"{kind}.pshc"
        pio.save_sh_coeffs(p, c)
        c2 = pio.load_sh_coeffs(p)
        assert c2.kind == kind and c2.l_max == 5
        assert np.abs(c2.values - c.values).max() == 0.0


def test_psh_coeffs_roundtrip(tmp_path):
    c = pipeline.random_psh_coeffs(6, seed=13)
    p = tmp_path / "c.psh4"
    pio.save_psh_coeffs(p, c)
    c2 = pio.load_psh_coeffs(p)
    assert np.abs(c2.flat() - c.flat()).max() == 0.0


def test_psh_matrix_roundtrip(tmp_path, rng):
    n = psh.psh_size(3)
    M = PshCoeffMatrix(3, rng.normal(size=(n, n)), "isotropic")
    p = tmp_path / "m.pshm"
    pio.save_psh_matrix(p, M)
    M2 = pio.load_psh_matrix(p)
    assert M2.sparsity == "isotropic"
    assert np.abs(M2.matrix - M.matrix).max() == 0.0


def test_kernel_coeffs_roundtrip(tmp_path):
    kc = pconv.kernel_coeffs(lambda th: (np.pi - th) * np.eye(4), 6)
    p = tmp_path / "k.pshk"
    pio.save_kernel_coeffs(p, kc)
    kc2 = pio.load_kernel_coeffs(p)
    for name in ("k00", "k03", "k30", "k33", "k0p", "k3p", "kp0", "kp3", "kiso", "kconj"):
        assert np.abs(getattr(kc2, name) - getattr(kc, name)).max() == 0.0


def test_stokes_field_roundtrip(tmp_path):
    f = pipeline.synth_envmap("two-lobe-polarized", band=6)
    p = tmp_path / "f.s4em"
    pio.save_stokes_field(p, f)
    f2 = pio.load_stokes_field(p)
    assert f2.sampling == f.sampling and f2.grid.band == f.grid.band
    assert np.abs(f2.data - f.data).max() < 1e-6   # float32 payload


def test_stokes_image_roundtrip(tmp_path, rng):
    view = ViewSpec("perspective", 8, 12, geom.random_rotation(rng), 72.5)
    img = render_image(pipeline.two_lobe_field_fn, view)
    p = tmp_path / "i.s4em"
    pio.save_stokes_image(p, img)
    img2 = pio.load_stokes_image(p)
    assert img2.view.kind == "perspective"
    assert img2.view.fov_deg == 72.5
    assert np.abs(img2.view.pose - view.pose).max() == 0.0
    assert np.abs(img2.data - img.data).max() < 1e-6
    # equirect images round trip too
    eq = ViewSpec("equirect", 6, 12)
    img = render_image(pipeline.two_lobe_field_fn, eq)
    pio.save_stokes_image(p, img)
    img2 = pio.load_stokes_image(p)
    assert img2.view.kind == "equirect" and img2.data.shape == (6, 12, 4)


def test_masked_image_round_trip(tmp_path):
    # a 60-degree view to an equirect image: its uncovered pixels stay
    # invalid through the file, so resampling it back drops the footprints
    # that reach them, as in memory
    pv = ViewSpec("perspective", 32, 32, np.eye(3), 60.0)
    eq = s2l2.resample([render_image(pipeline.two_lobe_field_fn, pv)], ViewSpec("equirect", 32, 64))
    p = tmp_path / "e.s4em"
    pio.save_stokes_image(p, eq)
    assert p.read_bytes().startswith(b"S4EM 32 64 uniform-pixel-centers masked\n")
    loaded = pio.load_stokes_image(p)
    assert (~loaded.valid).sum() == 1680
    assert np.array_equal(loaded.valid, eq.valid)
    assert np.array_equal(loaded.data, eq.data.astype(np.float32))
    in_memory = s2l2.StokesImage(eq.view, eq.data.astype(np.float32), eq.valid)
    for method in ("s2l2", "component-bilinear"):
        back = s2l2.resample([loaded], pv, method)
        want = s2l2.resample([in_memory], pv, method)
        assert not back.valid.all()
        assert np.array_equal(back.valid, want.valid)
        assert np.array_equal(back.data, want.data)
    with pytest.raises(pio.FormatError, match="masked image"):
        pio.load_stokes_field(p)


def test_all_valid_image_files_carry_no_mask(tmp_path, rng):
    # byte for byte the header and float32 payload, as before masks existed
    for view in (ViewSpec("equirect", 3, 5), ViewSpec("perspective", 2, 3, geom.random_rotation(rng), 50.0)):
        img = render_image(pipeline.two_lobe_field_fn, view)
        p = tmp_path / "i.s4em"
        pio.save_stokes_image(p, img)
        raw = p.read_bytes()
        assert raw.endswith(img.data.astype("<f4").tobytes())
        assert b"masked" not in raw.split(b"\n", 1)[0]
        assert pio.load_stokes_image(p).valid.all()


def test_masked_image_size_and_padding_checked(tmp_path):
    # 3 x 5 pixels: 2 mask bytes, the last with one padding bit
    valid = np.ones((3, 5), dtype=bool)
    valid[1, 2] = False
    img = s2l2.StokesImage(ViewSpec("equirect", 3, 5), np.ones((3, 5, 4)), valid)
    p = tmp_path / "m.s4em"
    pio.save_stokes_image(p, img)
    good = p.read_bytes()
    assert len(good) == len(b"S4EM 3 5 uniform-pixel-centers masked\n") + 3 * 5 * 16 + 2
    assert np.array_equal(pio.load_stokes_image(p).valid, valid)
    for bad in (good[:-1], good + b"\0"):
        p.write_bytes(bad)
        with pytest.raises(pio.FormatError, match="S4EM 3x5 payload size mismatch"):
            pio.load_stokes_image(p)
    p.write_bytes(good[:-1] + bytes([good[-1] | 1]))
    with pytest.raises(pio.FormatError, match="padding bits"):
        pio.load_stokes_image(p)
    p.write_bytes(good.replace(b" masked", b" masks"))
    with pytest.raises(pio.FormatError, match="unknown token 'masks'"):
        pio.load_stokes_image(p)


def test_malformed_files(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    for loader in (pio.load_sh_coeffs, pio.load_psh_coeffs, pio.load_psh_matrix,
                   pio.load_kernel_coeffs):
        with pytest.raises(pio.FormatError):
            loader(bad)
    with pytest.raises(pio.FormatError):
        pio.load_stokes_field(bad)
    # truncated payload
    trunc = tmp_path / "t.psh4"
    trunc.write_bytes(b"PSH4" + (5).to_bytes(4, "little") + b"\x00" * 10)
    with pytest.raises(pio.FormatError):
        pio.load_psh_coeffs(trunc)
    # image/field confusion
    f = pipeline.synth_envmap("two-lobe-polarized", band=4)
    p = tmp_path / "f.s4em"
    pio.save_stokes_field(p, f)
    with pytest.raises(pio.FormatError):
        pio.load_stokes_image(p)


@pytest.mark.parametrize("fov_line", [b"FOV\n", b"FOV abc\n"])
def test_perspective_header_bad_fov(tmp_path, fov_line):
    view = ViewSpec("perspective", 2, 3, np.eye(3), 60.0)
    p = tmp_path / "i.s4em"
    pio.save_stokes_image(p, render_image(pipeline.two_lobe_field_fn, view))
    lines = p.read_bytes().split(b"\n", 2)
    p.write_bytes(lines[0] + b"\n" + fov_line + lines[2])
    with pytest.raises(pio.FormatError, match="FOV"):
        pio.load_stokes_image(p)


def test_perspective_header_bad_pose(tmp_path):
    view = ViewSpec("perspective", 2, 3, np.eye(3), 60.0)
    p = tmp_path / "i.s4em"
    pio.save_stokes_image(p, render_image(pipeline.two_lobe_field_fn, view))
    head, fov, rest = p.read_bytes().split(b"\n", 2)
    pose, payload = rest.split(b"\n", 1)
    p.write_bytes(b"\n".join([head, fov, pose.replace(b"0.0", b"x", 1), payload]))
    with pytest.raises(pio.FormatError, match="POSE"):
        pio.load_stokes_image(p)


@pytest.mark.parametrize("header", [b"S4EM -1 0 uniform-pixel-centers\n",
                                    b"S4EM 0 0 quadrature-nodes\n",
                                    b"S4EM 2 0 perspective\n"])
def test_s4em_dimensions_must_be_positive(tmp_path, header):
    # -1 x 0 used to fail in reshape, 0 x 0 quadrature in the grid builder
    p = tmp_path / "d.s4em"
    p.write_bytes(header)
    with pytest.raises(pio.FormatError, match="S4EM header line .* >= 1"):
        pio.load_stokes_field(p)


def _perspective_file(tmp_path):
    view = ViewSpec("perspective", 2, 3, np.eye(3), 60.0)
    p = tmp_path / "i.s4em"
    pio.save_stokes_image(p, render_image(pipeline.two_lobe_field_fn, view))
    head, fov, rest = p.read_bytes().split(b"\n", 2)
    pose, payload = rest.split(b"\n", 1)
    return p, head, fov, pose, payload


@pytest.mark.parametrize("fov", [b"FOV 0", b"FOV nan", b"FOV 180", b"FOV -30", b"FOV inf"])
def test_perspective_header_fov_out_of_range(tmp_path, fov):
    # these loaded silently and gave non-finite or mirrored pixel directions
    p, head, _, pose, payload = _perspective_file(tmp_path)
    p.write_bytes(b"\n".join([head, fov, pose, payload]))
    with pytest.raises(pio.FormatError, match=f"FOV line '{fov.decode()}'"):
        pio.load_stokes_image(p)


@pytest.mark.parametrize("pose", [b"POSE" + b" 0" * 9, b"POSE 2 0 0 0 2 0 0 0 2",
                                  b"POSE -1 0 0 0 1 0 0 0 1"])
def test_perspective_header_pose_not_rotation(tmp_path, pose):
    p, head, fov, _, payload = _perspective_file(tmp_path)
    p.write_bytes(b"\n".join([head, fov, pose, payload]))
    with pytest.raises(pio.FormatError, match="POSE line .* not a rotation"):
        pio.load_stokes_image(p)


@pytest.mark.parametrize("fmt", ["PSHC", "PSH4", "PSHM", "PSHK"])
def test_header_checked_against_file_size(tmp_path, fmt):
    save, load, obj, l_max_offset = {
        "PSHC": (pio.save_sh_coeffs, pio.load_sh_coeffs, sh.ShCoeffs(3, "real", np.ones(16)), 9),
        "PSH4": (pio.save_psh_coeffs, pio.load_psh_coeffs, pipeline.random_psh_coeffs(3, seed=1), 4),
        "PSHM": (pio.save_psh_matrix, pio.load_psh_matrix,
                 PshCoeffMatrix(3, np.eye(psh.psh_size(3))), 4),
        "PSHK": (pio.save_kernel_coeffs, pio.load_kernel_coeffs,
                 pconv.PolarConvKernelCoeffs.zeros(3), 4),
    }[fmt]
    p = tmp_path / "f.bin"
    save(p, obj)
    good = p.read_bytes()
    assert load(p).l_max == 3
    p.write_bytes(good[:-8])
    with pytest.raises(pio.FormatError, match="l_max=3"):
        load(p)
    # a huge header band is refused before anything is allocated or read
    p.write_bytes(good[:l_max_offset] + struct.pack("<I", 2 ** 31) + good[l_max_offset + 4:])
    with pytest.raises(pio.FormatError, match="l_max=2147483648"):
        load(p)


def _fuzz_cases():
    """(save, obj, load, the arrays of a loaded object) per format.  Values
    lie in [1, 2), so flipping the top exponent bit makes them non-finite."""
    n = psh.psh_size(2)
    kc = pconv.PolarConvKernelCoeffs.zeros(2)
    for name in pconv.KC_FAMILIES:
        getattr(kc, name)[:] = 1.25 + (0.5j if name in pconv.KC_FAMILIES[4:] else 0)
    field = pipeline.synth_envmap("two-lobe-polarized", band=2)
    field.data[:] = 1.5
    view = ViewSpec("perspective", 2, 3, geom.rotation_zyz(0.3, 1.1, -0.4), 60.0)
    img = render_image(pipeline.two_lobe_field_fn, view)
    img.data[:] = 1.5
    valid = np.ones((3, 5), dtype=bool)
    valid[::2, 1::2] = False
    masked = s2l2.StokesImage(ViewSpec("equirect", 3, 5), np.full((3, 5, 4), 1.5), valid)
    return {
        "PSHC": (pio.save_sh_coeffs, sh.ShCoeffs(2, "complex", np.full(9, 1.25 + 1.5j)),
                 pio.load_sh_coeffs, lambda c: [c.values]),
        "PSH4": (pio.save_psh_coeffs, psh.PshCoeffs.from_flat(2, np.full(n, 1.5)),
                 pio.load_psh_coeffs, lambda c: [c.flat()]),
        "PSHM": (pio.save_psh_matrix, PshCoeffMatrix(2, np.full((n, n), 1.5)),
                 pio.load_psh_matrix, lambda M: [M.matrix]),
        "PSHK": (pio.save_kernel_coeffs, kc, pio.load_kernel_coeffs,
                 lambda kc: [getattr(kc, n) for n in pconv.KC_FAMILIES]),
        "S4EM": (pio.save_stokes_field, field, pio.load_stokes_field, lambda f: [f.data]),
        "S4EM-perspective": (pio.save_stokes_image, img, pio.load_stokes_image,
                             lambda img: [img.data, img.view.pose]),
        "S4EM-masked": (pio.save_stokes_image, masked, pio.load_stokes_image,
                        lambda img: [img.data, img.valid]),
    }


@pytest.mark.parametrize("fmt", list(_fuzz_cases()))
def test_fuzzed_files_raise_format_error_or_load_finite_values(fmt):
    save, obj, load, values = _fuzz_cases()[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.bin")
        save(path, obj)
        with open(path, "rb") as f:
            good = f.read()

        @settings(derandomize=True, database=None, deadline=None, max_examples=150)
        @given(cut=st.one_of(st.just(len(good)), st.integers(0, len(good))),
               flips=st.lists(st.integers(0, 8 * len(good) - 1), max_size=3))
        def check(cut, flips):
            data = bytearray(good)
            for bit in flips:
                data[bit // 8] ^= 1 << (bit % 8)
            with open(path, "wb") as f:
                f.write(bytes(data[:cut]))
            try:
                loaded = load(path)
            except pio.FormatError:
                return
            assert all(np.all(np.isfinite(v)) for v in values(loaded))

        check()


def test_non_finite_payload_names_format_and_index(tmp_path):
    c = pipeline.random_psh_coeffs(2, seed=1)
    p = tmp_path / "c.psh4"
    pio.save_psh_coeffs(p, c)
    raw = bytearray(p.read_bytes())
    raw[8 + 8 * 5:8 + 8 * 6] = struct.pack("<d", float("nan"))
    p.write_bytes(bytes(raw))
    with pytest.raises(pio.FormatError, match="PSH4 l_max=2: non-finite value at payload index 5"):
        pio.load_psh_coeffs(p)


@pytest.mark.parametrize("fmt", ["PSHC", "PSH4", "PSHM", "PSHK"])
def test_payload_must_match_header_exactly(tmp_path, fmt):
    # one appended byte, or a header band of 1 over an l_max = 2 payload:
    # either way the sizes disagree and nothing is loaded
    save, load, obj, l_max_offset = {
        "PSHC": (pio.save_sh_coeffs, pio.load_sh_coeffs, sh.ShCoeffs(2, "real", np.ones(9)), 9),
        "PSH4": (pio.save_psh_coeffs, pio.load_psh_coeffs,
                 pipeline.random_psh_coeffs(2, seed=1), 4),
        "PSHM": (pio.save_psh_matrix, pio.load_psh_matrix,
                 PshCoeffMatrix(2, np.eye(psh.psh_size(2))), 4),
        "PSHK": (pio.save_kernel_coeffs, pio.load_kernel_coeffs,
                 pconv.PolarConvKernelCoeffs.zeros(2), 4),
    }[fmt]
    p = tmp_path / "f.bin"
    save(p, obj)
    good = p.read_bytes()
    assert load(p).l_max == 2
    p.write_bytes(good + b"\0")
    with pytest.raises(pio.FormatError, match="l_max=2 payload size mismatch"):
        load(p)
    p.write_bytes(good[:l_max_offset] + struct.pack("<I", 1) + good[l_max_offset + 4:])
    with pytest.raises(pio.FormatError, match="l_max=1 payload size mismatch"):
        load(p)
