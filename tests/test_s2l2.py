import numpy as np
import pytest

from polarsh import geom, pipeline, psh, s2l2
from polarsh.polar import GeometricStokes, stokes_rotate


def spin2_at(theta, phi, a, b, twist=0.0):
    F = geom.frame_theta_phi(theta, phi)
    if twist:
        F = F @ geom.rotation_z(twist)
    return GeometricStokes([0.0, a, b, 0.0], F)


def test_forms_are_the_scaled_spin2_basis(rng):
    # in theta-phi frames the quadratic forms are SCALE 2Y_2m, at the poles
    # and 1e-9 from them too
    d = geom.normalize(rng.normal(size=(4000, 3)))
    th, ph = geom.dir_to_sph(d)
    th = np.concatenate([th, [0.0, np.pi, 1e-9, np.pi - 1e-9, 0.0, np.pi]])
    ph = np.concatenate([ph, [0.0, 0.0, 0.7, 2.5, 4.0, 5.5]])
    F = geom.frame_theta_phi(th, ph)
    want = s2l2.SCALE * psh.s2sh_basis(2, th, ph)
    assert np.abs(s2l2._forms(F) - want).max() < 1e-14
    # turning the frame by t multiplies the forms by e^{-2it}, as s1 + i s2
    t = rng.uniform(0, 2 * np.pi, th.size)
    turned = s2l2._forms(F @ np.stack([geom.rotation_z(a) for a in t]))
    assert np.abs(turned - np.exp(-2j * t)[:, None] * want).max() < 1e-14


def test_encode_norm_and_zero(rng):
    s = spin2_at(1.0, 2.0, 0.6, -0.8)
    r = s2l2.s2l2(s)
    assert r.shape == (10,)
    assert abs(np.linalg.norm(r) - 1.0) < 1e-12
    assert np.abs(s2l2.s2l2(spin2_at(0.7, 0.1, 0.0, 0.0))).max() == 0.0
    # linearity over R for fixed direction
    s1 = spin2_at(1.0, 2.0, 0.3, 0.1)
    s2_ = spin2_at(1.0, 2.0, -0.5, 0.9)
    lin = 2.0 * s2l2.s2l2(s1) + 0.7 * s2l2.s2l2(s2_)
    comb = spin2_at(1.0, 2.0, 2 * 0.3 + 0.7 * -0.5, 2 * 0.1 + 0.7 * 0.9)
    assert np.abs(s2l2.s2l2(comb) - lin).max() < 1e-12


def test_encode_frame_independence(rng):
    for _ in range(50):
        th, ph = rng.uniform(0.01, np.pi - 0.01), rng.uniform(0, 2 * np.pi)
        a, b = rng.normal(), rng.normal()
        s = spin2_at(th, ph, a, b)
        twist = rng.uniform(0, 2 * np.pi)
        s_tw = GeometricStokes(s.in_frame(s.frame @ geom.rotation_z(twist)),
                               s.frame @ geom.rotation_z(twist))
        assert np.abs(s2l2.s2l2(s) - s2l2.s2l2(s_tw)).max() < 1e-13


def test_roundtrip_and_idempotence(rng):
    for _ in range(200):
        d = geom.normalize(rng.normal(size=3))
        th, ph = geom.dir_to_sph(d)
        s = spin2_at(th, ph, rng.normal(), rng.normal())
        r = s2l2.s2l2(s)
        back = s2l2.s2l2_inv(r, d)
        assert np.abs(back.in_frame(s.frame) - s.components).max() < 1e-12
    # out-of-range input: decode acts as a projection, so encode(decode) is
    # idempotent on R^10
    r = rng.normal(size=10)
    d = geom.normalize(rng.normal(size=3))
    r1 = s2l2.s2l2(s2l2.s2l2_inv(r, d))
    r2 = s2l2.s2l2(s2l2.s2l2_inv(r1, d))
    assert np.abs(r2 - r1).max() < 1e-12
    assert np.abs(s2l2.s2l2_inv(np.zeros(10), d).components).max() == 0.0
    with pytest.raises(ValueError):
        s2l2.s2l2_inv(np.zeros(9), d)


def test_decode_rejects_bad_directions():
    # zero, underflowing, non-finite and misshapen directions used to give NaN
    # components or an IndexError
    r = np.ones(10)
    for omega in ([0.0, 0.0, 0.0], [1e-200, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0],
                  [0.0, 1.0], np.eye(3)):
        with pytest.raises(ValueError, match="finite, nonzero 3-vector"):
            s2l2.s2l2_inv(r, omega)
    # the length is not part of the direction
    a, b = s2l2.s2l2_inv(r, [0.0, 3.0, 4.0]), s2l2.s2l2_inv(r, [0.0, 0.6, 0.8])
    assert np.abs(a.components - b.components).max() < 1e-15
    assert np.abs(a.frame - b.frame).max() < 1e-15


def test_distance_properties(rng):
    s = spin2_at(0.8, 1.0, 1.0, 0.2)
    assert s2l2.s2l2_distance(s, s) == 0.0
    t = spin2_at(2.4, 5.0, -0.2, 0.9)
    d0 = s2l2.s2l2_distance(s, t)
    for _ in range(30):
        R = geom.random_rotation(rng)
        d1 = s2l2.s2l2_distance(stokes_rotate(s, R), stokes_rotate(t, R))
        assert abs(d1 - d0) < 1e-12


def test_perturbation_continuity_bound(rng):
    # d(s, R_S s) <= C * eps with C = 2 + 1e-9, monotone in eps
    s = spin2_at(1.1, 0.7, 1.0, 0.0)
    axis = geom.normalize(rng.normal(size=3))
    prev = 0.0
    for eps in np.linspace(0.01, 0.2, 20):
        R = geom.rotation_about_axis(axis, eps)
        d = s2l2.s2l2_distance(s, stokes_rotate(s, R))
        assert d <= (2 + 1e-9) * eps
        assert d >= prev - 1e-12
        prev = d


def test_perturbation_protocol_small():
    # n large enough that a Fibonacci point sits within the perturbation
    # radius of a frame-field singularity
    res = s2l2.perturbation_protocol(n=200, eps=0.1)
    smax = res["s2l2_max"]
    # uniform at the analytic value 2 sin(eps)
    assert smax.max() - smax.min() < 1e-12
    assert abs(smax.max() - 2 * np.sin(0.1)) < 1e-12
    # theta-phi baseline has near-2 outliers around the singularities
    assert res["frame_max"].max() > 1.9
    with pytest.raises(ValueError, match="n >= 1"):
        s2l2.perturbation_protocol(n=0)


def test_rotation_invariance_sweep_small():
    assert s2l2.rotation_invariance_sweep(n=120, n_pairs=5) < 1e-11


def _protocol_oracle(n, eps):
    """The perturbation experiment one (direction, component, rotation) at a
    time through the public API: per-vector maxima and all-sample means."""
    dirs = geom.fibonacci_directions(n)
    rots = [geom.rotation_about_axis(u, eps) for u in dirs]
    max_s, max_f = [], []
    sum_s = sum_f = 0.0
    for d in dirs:
        F = geom.frame_theta_phi(*geom.dir_to_sph(d))
        for a, b in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
            s = GeometricStokes([0.0, a, b, 0.0], F)
            r0 = s2l2.s2l2(s)
            ds, df = [], []
            for R in rots:
                t = stokes_rotate(s, R)
                tp = t.in_frame(geom.frame_theta_phi(*geom.dir_to_sph(t.direction)))
                ds.append(np.linalg.norm(s2l2.s2l2(t) - r0))
                df.append(np.hypot(tp[1] - a, tp[2] - b))
            max_s.append(max(ds))
            max_f.append(max(df))
            sum_s += sum(ds)
            sum_f += sum(df)
    count = 4 * n * n
    return np.array(max_s), np.array(max_f), sum_s / count, sum_f / count


def test_perturbation_protocol_matches_oracle(monkeypatch):
    # n = 37 fits one block; the smaller pair budget splits it into blocks
    # of 7 directions (38 rotations with the identity), the last one partial
    want = _protocol_oracle(37, 0.1)
    for pairs in (s2l2._PAIRS, 7 * 38):
        monkeypatch.setattr(s2l2, "_PAIRS", pairs)
        res = s2l2.perturbation_protocol(37, 0.1)
        got = (res["s2l2_max"], res["frame_max"], res["s2l2_all_mean"], res["frame_all_mean"])
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.abs(g - w).max() < 1e-13, pairs


def test_rotation_invariance_sweep_matches_recorded_value():
    # recorded from the per-pair, per-angle sweep.  The value is a maximum of
    # rounding errors in distances up to about 3.6 (ulp 4.4e-16), so any
    # change in the order of float operations moves it by a few ulps:
    # agreement is to 8 ulps
    worst = s2l2.rotation_invariance_sweep(n=120, n_pairs=5)
    assert abs(worst - 4.218847493575595e-15) < 8 * np.spacing(3.6)
    assert s2l2.rotation_invariance_sweep(n=120, n_pairs=0) == 0.0
    assert s2l2.rotation_invariance_sweep(n=120, n_pairs=5, n_angles=1) == 0.0


def test_interpolate(rng):
    a = spin2_at(0.8, 1.0, 1.0, 0.2)
    b = spin2_at(1.2, 2.0, -0.5, 0.7)
    m0 = s2l2.s2l2_interpolate(a, b, 0.0)
    m1 = s2l2.s2l2_interpolate(a, b, 1.0)
    assert np.abs(m0.components - a.components).max() == 0.0
    assert np.abs(m1.components - b.components).max() == 0.0
    # same direction, s = t: constant in alpha
    c = spin2_at(0.8, 1.0, 1.0, 0.2)
    for alpha in (0.25, 0.5, 0.9):
        m = s2l2.s2l2_interpolate(a, c, alpha)
        assert np.abs(m.in_frame(a.frame) - a.components).max() < 1e-12
    # global-frame independence
    for _ in range(20):
        R = geom.random_rotation(rng)
        alpha = rng.uniform(0, 1)
        mid = s2l2.s2l2_interpolate(a, b, alpha)
        mid_rot = s2l2.s2l2_interpolate(stokes_rotate(a, R), stokes_rotate(b, R), alpha)
        lhs = stokes_rotate(mid, R)
        assert np.abs(mid_rot.in_frame(lhs.frame) - lhs.components).max() < 1e-11
    # antipodal rejection
    u = spin2_at(0.4, 0.0, 1.0, 0.0)
    v = spin2_at(np.pi - 0.4, np.pi, 1.0, 0.0)
    with pytest.raises(ValueError):
        s2l2.s2l2_interpolate(u, v, 0.5)


def test_views(rng):
    # equirect pixel coords invert pixel dirs
    view = s2l2.ViewSpec("equirect", 16, 32)
    dirs = view.pixel_dirs()
    row, col = view.pixel_coords(dirs)
    ri, ci = np.meshgrid(np.arange(16), np.arange(32), indexing="ij")
    assert np.abs(row - ri).max() < 1e-9
    assert np.abs(col - ci).max() < 1e-9
    # perspective round trip + containment
    pv = s2l2.ViewSpec("perspective", 8, 8, geom.random_rotation(rng), 75.0)
    dirs = pv.pixel_dirs()
    assert pv.contains(dirs).all()
    row, col = pv.pixel_coords(dirs)
    ri, ci = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    assert np.abs(row - ri).max() < 1e-9
    assert np.abs(col - ci).max() < 1e-9
    assert not pv.contains(-dirs[0, 0]).any()
    # frame field follows the camera-up convention [normalize(up x w), w x x, w]
    F = pv.frames(dirs[3, 4])
    d = dirs[3, 4]
    up = pv.up_axis
    x_expect = np.cross(up, d)
    x_expect /= np.linalg.norm(x_expect)
    assert np.abs(F[:, 0] - x_expect).max() < 1e-12
    assert np.abs(F[:, 1] - np.cross(d, x_expect)).max() < 1e-12
    assert np.abs(F[:, 2] - d).max() < 1e-12


def test_cubemap_covers_sphere(rng):
    views = s2l2.cubemap_views(16)
    d = geom.normalize(rng.normal(size=(500, 3)))
    covered = np.zeros(500, dtype=bool)
    for v in views:
        covered |= v.contains(d)
    assert covered.all()


def test_stokes_image_checks_shapes():
    view = s2l2.ViewSpec("equirect", 4, 8)
    with pytest.raises(ValueError, match=r"\(4, 8, 4\)"):
        s2l2.StokesImage(view, np.zeros((4, 8, 3)))
    with pytest.raises(ValueError, match=r"\(4, 8, 4\)"):
        s2l2.StokesImage(view, np.zeros((4, 8)))
    with pytest.raises(ValueError, match="valid mask"):
        s2l2.StokesImage(view, np.zeros((4, 8, 4)), np.ones((4, 7), dtype=bool))
    img = s2l2.StokesImage(view, np.zeros((4, 8, 4)))
    assert img.valid.shape == (4, 8) and img.valid.all()


def test_identity_resample_bit_exact():
    view = s2l2.ViewSpec("equirect", 24, 48)
    img = s2l2.render_image(pipeline.two_lobe_field_fn, view)
    out = s2l2.resample([img], view, "s2l2")
    assert np.array_equal(out.data, img.data)
    assert out.valid.all()


def test_resample_is_iterated_s2l2_interpolation(rng):
    # s2l2_interpolate over the footprint's top and bottom pairs, the two
    # results lerped in r and decoded at the destination pixel, measured in
    # the destination's frame field
    src = s2l2.render_image(pipeline.two_lobe_field_fn, s2l2.ViewSpec("equirect", 12, 24))
    dst = s2l2.ViewSpec("perspective", 5, 7, geom.random_rotation(rng), 70.0)
    out = s2l2.resample([src], dst, "s2l2").data.reshape(-1, 4)
    dirs = dst.pixel_dirs().reshape(-1, 3)
    rows, cols, w, fr, fc = s2l2._footprints(src.view, dirs)
    for i, d in enumerate(dirs):
        nb = [src.stokes_at(r, c) for r, c in zip(rows[i], cols[i])]
        top = s2l2.s2l2_interpolate(nb[0], nb[1], fc[i])
        bot = s2l2.s2l2_interpolate(nb[2], nb[3], fc[i])
        mid = s2l2.s2l2_inv((1 - fr[i]) * s2l2.s2l2(top) + fr[i] * s2l2.s2l2(bot), d)
        assert np.abs(out[i, 1:3] - mid.in_frame(dst.frames(d))[1:3]).max() < 1e-12
        assert np.abs(out[i, 0::3] - w[i] @ np.array([s.components[0::3] for s in nb])).max() < 1e-12


def test_resample_uncovered_flagged():
    pv = s2l2.ViewSpec("perspective", 8, 8, np.eye(3), 60.0)
    img = s2l2.render_image(pipeline.two_lobe_field_fn, pv)
    eq = s2l2.ViewSpec("equirect", 16, 32)
    out = s2l2.resample([img], eq, "s2l2")
    assert not out.valid.all() and out.valid.any()
    assert np.abs(out.data[~out.valid]).max() == 0.0


def test_resample_pole_row_ordering():
    views = s2l2.cubemap_views(48)
    cube = [s2l2.render_image(pipeline.two_lobe_field_fn, v) for v in views]
    dst = s2l2.ViewSpec("equirect", 96, 192)
    out_s = s2l2.resample(cube, dst, "s2l2")
    out_n = s2l2.resample(cube, dst, "component-bilinear")
    th_row = (dst.height - 0.5) * np.pi / dst.height
    ph_row = (np.arange(dst.width) + 0.5) * 2 * np.pi / dst.width
    truth = pipeline.two_lobe_field_fn(np.full(dst.width, th_row), ph_row)
    scale = np.abs(truth[:, 1:3]).max()
    dev_s = np.abs(out_s.data[-1][:, 1:3] - truth[:, 1:3]).max() / scale
    dev_n = np.abs(out_n.data[-1][:, 1:3] - truth[:, 1:3]).max() / scale
    assert dev_s < 0.05
    assert dev_n > dev_s


def test_resample_rejects_unknown_method():
    view = s2l2.ViewSpec("equirect", 4, 8)
    img = s2l2.render_image(pipeline.two_lobe_field_fn, view)
    with pytest.raises(ValueError):
        s2l2.resample([img], view, "nearest")


def test_s2l2_next_to_the_poles(rng):
    # a camera frame 5e-8 from +z used to fail the direction check against
    # the theta-phi frame built from the same direction
    up = np.array([0.0, 1.0, 0.0])
    for pole in (1.0, -1.0):
        at_pole = np.array([0.0, 0.0, pole])
        for eps in 10.0 ** -np.arange(3, 13):
            t = geom.normalize(np.cross(at_pole, rng.normal(size=3)))
            d = geom.normalize(at_pole + eps * t)
            comps = np.array([0.0, *rng.normal(size=2), 0.0])
            r = s2l2.s2l2(GeometricStokes(comps, geom.frame_perspective(d, up)))
            r0 = s2l2.s2l2(GeometricStokes(comps, geom.frame_perspective(at_pole, up)))
            assert abs(np.linalg.norm(r) - np.linalg.norm(comps)) < 1e-14
            # the camera frame is smooth through the pole, so is the encoding
            assert np.abs(r - r0).max() <= 10 * eps * np.linalg.norm(comps), (pole, eps)
