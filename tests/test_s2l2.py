import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarsh import geom, pipeline, psh, s2l2
from polarsh import polar
from polarsh.polar import GeometricStokes, stokes_reframe, stokes_rotate

# SCALE 2Y_2m(w) = m^T Q_m m for m = x + iy of any tangent frame (x, y, w),
# where Q_m = SCALE E_m / sqrt(6) and E_m is the symmetric trace-free tensor
# with Y_2m(n) = n^T E_m n (Thorne 1980, Rev. Mod. Phys. 52, 299); with
# u = e_x + i e_y and z = e_z, column m + 2 holds Q_m, row 3i + j entry ij.
_U, _Z = np.array([1.0, 1j, 0.0]), np.array([0.0, 0.0, 1.0])
_FORMS = np.stack([
    np.outer(_U.conj(), _U.conj()) / 4,
    (np.outer(_Z, _U.conj()) + np.outer(_U.conj(), _Z)) / 4,
    (3.0 * np.outer(_Z, _Z) - np.eye(3)) / math.sqrt(24.0),
    -(np.outer(_Z, _U) + np.outer(_U, _Z)) / 4,
    np.outer(_U, _U) / 4,
]).reshape(5, 9).T


def forms_table(frames):
    """The quadratic forms through the (9, 5) table: the oracle of s2l2._forms."""
    m = frames[..., :, 0] + 1j * frames[..., :, 1]
    return (m[..., :, None] * m[..., None, :]).reshape(m.shape[:-1] + (9,)) @ _FORMS


def _m(frames):
    return frames[..., :, 0] + 1j * frames[..., :, 1]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_forms_inner_product_is_the_transport_scalar(seed):
    # sum_m conj(F_m(a)) F_m(b) = (conj(m_a) . m_b)^2 / 4 for tangent frames
    # a, b at any two directions (bilinear dot, no conjugation on m_b); at a
    # shared direction it is the twist e^{-2it} from a to b
    rng = np.random.default_rng(seed)
    a = np.stack([geom.random_rotation(rng) for _ in range(16)])
    b = np.stack([geom.random_rotation(rng) for _ in range(16)])
    inner = np.sum(np.conj(forms_table(a)) * forms_table(b), axis=-1)
    dot = np.sum(np.conj(_m(a)) * _m(b), axis=-1)
    assert np.abs(inner - dot ** 2 / 4).max() < 1e-15
    twisted = a @ np.stack([geom.rotation_z(t) for t in rng.uniform(-np.pi, np.pi, 16)])
    inner = np.sum(np.conj(forms_table(a)) * forms_table(twisted), axis=-1)
    assert np.abs(inner - polar.frame_twist(a, twisted)).max() < 1e-15
    # through a third direction u: (conj(m_a) . m_u)(conj(m_u) . m_b), of
    # modulus up to 4, is conj(m_a) . v with v = (I - u u^T + i [u]x) m_b,
    # in any frame at u
    u = np.stack([geom.random_rotation(rng) for _ in range(16)])
    v = s2l2._transport(list(u[:, :, 2].T), list(_m(b).T))
    through = (np.sum(np.conj(_m(a)) * _m(u), axis=-1) * np.sum(np.conj(_m(u)) * _m(b), axis=-1))
    assert np.abs(np.sum(np.conj(_m(a)) * np.stack(v, axis=-1), axis=-1) - through).max() < 4e-15


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


def test_forms_match_the_quadratic_form_table(rng):
    # random orthonormal frames, theta-phi frames at and next to the poles,
    # and camera frames through the poles
    F = np.stack([geom.random_rotation(rng) for _ in range(2000)])
    th = np.array([0.0, np.pi, 1e-9, np.pi - 1e-9])
    ph = np.array([0.0, 2.5, 0.7, 4.0])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    F = np.concatenate([F, geom.frame_theta_phi(th, ph),
                        geom.frame_perspective(poles, np.array([0.0, 1.0, 0.0]))])
    assert np.abs(s2l2._forms(F) - forms_table(F)).max() <= 1e-15


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


def _blocked_protocol_oracle(n, eps):
    """The protocol through the frames G = R F of every rotated direction:
    S2L2 vectors from _forms(G) and the theta-phi baseline from frame_twist
    of each G to frame_for_dir at its direction, in blocks of about _PAIRS
    (direction, rotation) pairs with the identity."""
    dirs = geom.fibonacci_directions(n)
    rots = np.concatenate([np.eye(3)[None], geom.rotation_about_axis(dirs, eps)])
    max_s = np.empty(n)
    max_f = np.empty(n)
    sum_s = sum_f = 0.0
    block = max(1, s2l2._PAIRS // len(rots))
    for lo in range(0, n, block):
        blk = dirs[lo:lo + block]
        G = s2l2._rotated_frames(blk, rots)
        r = np.conj(s2l2._forms(G))                                       # u = 1
        c = polar.frame_twist(G, geom.frame_for_dir(G[..., 2]))           # (b, n + 1)
        ds = np.linalg.norm((r[:, 1:] - r[:, :1]).view(float), axis=-1)   # (b, n)
        df = np.abs(c[:, 1:] - c[:, :1])
        max_s[lo:lo + len(blk)] = ds.max(axis=1)
        max_f[lo:lo + len(blk)] = df.max(axis=1)
        sum_s += ds.sum()
        sum_f += df.sum()
    count = n * n
    return {
        "s2l2_max": np.repeat(max_s, 4),
        "frame_max": np.repeat(max_f, 4),
        "s2l2_all_mean": sum_s / count,
        "frame_all_mean": sum_f / count,
    }


@pytest.mark.parametrize("eps", [1e-3, 0.1, 2.0])
def test_perturbation_protocol_matches_rotated_frame_oracle(eps):
    want = _blocked_protocol_oracle(200, eps)
    got = s2l2.perturbation_protocol(200, eps)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert np.shape(got[key]) == np.shape(w)
        assert np.abs(got[key] - w).max() < 1e-14, key


def _twist_oracle(G):
    return polar.frame_twist(G, geom.frame_for_dir(G[..., 2]))


def _m_first(G):
    """m = x + iy of frames G (..., 3, 3), components first: (3, ...)."""
    return np.moveaxis(_m(G), -1, 0)


def test_theta_phi_twist_at_the_poles():
    # (1, 0, 0) with (e_theta, e_phi) = (-z, y), rotated by +-pi/2 about y,
    # lands exactly on -+z (m_z = 0), where frame_for_dir takes phi = 0;
    # turns about z keep it there
    F = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    turns = np.stack([geom.rotation_z(a) for a in np.linspace(0.0, 2 * np.pi, 13)])
    for side in (1.0, -1.0):
        Ry = np.array([[0.0, 0.0, side], [0.0, 1.0, 0.0], [-side, 0.0, 0.0]])
        G = turns @ Ry @ F
        assert (G[..., 2, :2] == 0.0).all() and (G[..., 2, 2] == -side).all()
        got = s2l2._theta_phi_twist(_m_first(G))
        assert np.abs(got - _twist_oracle(G)).max() < 1e-15


def test_theta_phi_twist_next_to_the_poles():
    # frames turned about their own direction 1e-9 from either pole
    turns = np.stack([geom.rotation_z(a) for a in np.linspace(0.0, 2 * np.pi, 13)])
    for theta in (1e-9, np.pi - 1e-9):
        G = geom.frame_theta_phi(theta, 0.7) @ turns
        got = s2l2._theta_phi_twist(_m_first(G))
        assert np.isfinite(got).all()
        assert np.abs(got - _twist_oracle(G)).max() < 1e-15
    # (1, 0, 0) rotated to 1e-9 from -z: m_z is rounding-sized but not 0
    R = geom.rotation_about_axis([0.0, 1.0, 0.0], np.pi / 2 - 1e-9)
    got = s2l2._theta_phi_twist(_m_first(R @ geom.frame_for_dir([[1.0, 0.0, 0.0]])))
    assert np.isfinite(got).all() and np.abs(np.abs(got) - 1.0).max() < 1e-15


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_perturbation_protocol_rejects_non_finite_eps(eps):
    with pytest.raises(ValueError, match="needs a finite eps"):
        s2l2.perturbation_protocol(n=10, eps=eps)


@pytest.mark.parametrize("bad, message", [
    ({"n": 0}, "needs n >= 1, got 0"),
    ({"n_pairs": -1}, "needs n_pairs >= 0, got -1"),
    ({"n_angles": 0}, "needs n_angles >= 1, got 0"),
])
def test_rotation_invariance_sweep_rejects_bad_counts(bad, message):
    with pytest.raises(ValueError, match=message):
        s2l2.rotation_invariance_sweep(**{"n": 12, "n_pairs": 2, **bad})


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


@pytest.mark.parametrize("fov", ["60", 60 + 0j, True, np.True_])
def test_view_spec_rejects_bad_fov(fov):
    # a string or a complex number used to raise a bare TypeError from the
    # range check, and True used to give a 1-degree view
    with pytest.raises(ValueError, match=r"view fov_deg must be an angle in \(0, 180\) degrees"):
        s2l2.ViewSpec("perspective", 4, 4, np.eye(3), fov)


def test_view_spec_takes_real_fovs_as_floats():
    for fov in (60, np.int64(60), np.float32(60.0), 60.0):
        view = s2l2.ViewSpec("perspective", 4, 4, np.eye(3), fov)
        assert type(view.fov_deg) is float and view.fov_deg == 60.0


def test_cubemap_covers_sphere(rng):
    views = s2l2.cubemap_views(16)
    d = geom.normalize(rng.normal(size=(500, 3)))
    covered = np.zeros(500, dtype=bool)
    for v in views:
        covered |= v.contains(d)
    assert covered.all()


def test_cubemap_covers_its_edges_and_corners():
    views = s2l2.cubemap_views(8)
    edges = geom.normalize(np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0],
                                     [-1.0, 1.0, -1.0], [0.0, -1.0, -1.0]]))
    for d in edges:
        assert sum(bool(v.contains(d)) for v in views) >= 2, d
    # a wide view over a coarse cubemap looks along the face diagonals
    cube = [s2l2.render_image(pipeline.two_lobe_field_fn, v) for v in s2l2.cubemap_views(5)]
    out = s2l2.resample(cube, s2l2.ViewSpec("perspective", 16, 16, np.eye(3), 120.0), "s2l2")
    assert out.valid.all()


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


def resample_per_neighbour(sources, dst, method):
    """resample with every footprint neighbour encoded or reframed on its own
    and the forms from the (9, 5) table: the oracle of s2l2.resample on
    all-valid sources."""
    dirs = dst.pixel_dirs()
    flat_dirs = dirs.reshape(-1, 3)
    out = np.zeros((flat_dirs.shape[0], 4))
    dst_frames = dst.frames(flat_dirs)
    chosen = np.full(flat_dirs.shape[0], -1, dtype=int)
    for k, src in enumerate(sources):
        chosen[src.view.contains(flat_dirs) & (chosen < 0)] = k
    for k, src in enumerate(sources):
        sel = np.nonzero(chosen == k)[0]
        if sel.size == 0:
            continue
        rows, cols, w, fr, fc = s2l2._footprints(src.view, flat_dirs[sel])
        pix = src.data[rows, cols]
        nb_dirs = src.view.pixel_dirs()[rows, cols]
        nb_frames = src.view.frames(nb_dirs)
        if method == "component-bilinear":
            # a neighbour where the destination frame field is undefined has
            # no reframed value: NaN wherever its weight is nonzero
            with np.errstate(invalid="ignore"):
                to = dst.frames(nb_dirs)
            ok = np.isfinite(to).all(axis=(-2, -1))
            nb = np.full(pix.shape, np.nan)
            nb[ok] = stokes_reframe(pix[ok], nb_frames[ok], to[ok])
            out[sel] = np.sum(np.where((w == 0.0)[..., None], 0.0, w[..., None] * nb), axis=1)
        else:
            r_nb = np.conj(forms_table(nb_frames)) * (pix[..., 1] + 1j * pix[..., 2])[..., None]
            fcn = fc[:, None, None]
            r_nb = r_nb.reshape(-1, 2, 2, 5)
            nb_rc = nb_dirs.reshape(-1, 2, 2, 3)
            f = forms_table(geom.frame_for_dir(geom.normalize((1 - fcn) * nb_rc[:, :, 0]
                                                              + fcn * nb_rc[:, :, 1])))
            r_row = (1 - fcn) * r_nb[:, :, 0] + fcn * r_nb[:, :, 1]
            r_row = np.conj(f) * np.sum(r_row * f, axis=-1, keepdims=True)
            frn = fr[:, None]
            r_fin = (1 - frn) * r_row[:, 0] + frn * r_row[:, 1]
            stilde = np.sum(r_fin * forms_table(dst_frames[sel]), axis=-1)
            out[sel] = np.stack([np.sum(w * pix[..., 0], axis=-1), stilde.real, stilde.imag,
                                 np.sum(w * pix[..., 3], axis=-1)], axis=-1)
        # both methods copy a footprint that snaps onto one pixel of the
        # destination pixel's own frame
        hit = (fr == 0.0) & (fc == 0.0) & np.all(nb_frames[:, 0] == dst_frames[sel], axis=(-2, -1))
        out[sel[hit]] = pix[hit, 0]
    return out.reshape(dirs.shape[:-1] + (4,))


def test_resample_matches_per_neighbour_oracle():
    cube = [s2l2.render_image(pipeline.two_lobe_field_fn, v) for v in s2l2.cubemap_views(16)]
    dst = s2l2.ViewSpec("equirect", 32, 64)
    got = s2l2.resample(cube, dst, "s2l2")
    want = resample_per_neighbour(cube, dst, "s2l2")
    assert got.valid.all()
    assert np.abs(got.data - want).max() <= 1e-15 * np.abs(want).max()
    got = s2l2.resample(cube, dst, "component-bilinear")
    assert np.array_equal(got.data, resample_per_neighbour(cube, dst, "component-bilinear"))


def _pose(forward, up):
    x = np.cross(up, forward)
    return np.stack([x, up, forward], axis=-1)


def _oracle_cases(case):
    """(sources, dst views) of the resample cases beyond the cubemap one."""
    if case == "poles":
        # equirect to views centred on each pole, where theta-phi frames turn fastest
        src = [s2l2.render_image(pipeline.two_lobe_field_fn, s2l2.ViewSpec("equirect", 24, 48))]
        views = [s2l2.ViewSpec("perspective", 9, 11, _pose(np.array([0.0, 0.0, z]),
                                                          np.array([0.0, 1.0, 0.0])), 70.0)
                 for z in (1.0, -1.0)]
        return src, views
    if case == "rolled":
        # perspective to perspective, each camera rolled about its own axis
        roll = geom.rotation_about_axis(np.array([[1.0, 0.0, 0.0]]), 0.7)[0]
        src_pose = roll @ _pose(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        src = [s2l2.render_image(pipeline.two_lobe_field_fn,
                                 s2l2.ViewSpec("perspective", 30, 40, src_pose, 100.0))]
        dst_pose = geom.rotation_zyz(0.2, 0.1, -0.4) @ src_pose
        return src, [s2l2.ViewSpec("perspective", 12, 16, dst_pose, 60.0)]
    # sources with invalid pixels: a 60-degree view resampled to an equirect
    # image (1,680 uncovered pixels), and back
    pv = s2l2.ViewSpec("perspective", 32, 32, np.eye(3), 60.0)
    eq = s2l2.resample([s2l2.render_image(pipeline.two_lobe_field_fn, pv)],
                       s2l2.ViewSpec("equirect", 32, 64), "s2l2")
    assert (~eq.valid).sum() == 1680
    return [eq], [pv]


@pytest.mark.parametrize("case", ["poles", "rolled", "invalid"])
def test_resample_matches_per_neighbour_oracle_on_more_views(case):
    sources, views = _oracle_cases(case)
    for dst in views:
        for method in ("s2l2", "component-bilinear"):
            got = s2l2.resample(sources, dst, method)
            # the oracle writes every footprint; resample zeroes the invalid ones
            assert got.valid.any() and (case == "invalid") != got.valid.all()
            assert np.abs(got.data[~got.valid]).max(initial=0.0) == 0.0
            want = resample_per_neighbour(sources, dst, method)[got.valid]
            if method == "s2l2":
                assert np.abs(got.data[got.valid] - want).max() <= 1e-15 * np.abs(want).max()
            else:
                assert np.array_equal(got.data[got.valid], want)


def test_resample_frames_only_touched_source_pixels():
    # the +z face centre of an odd cubemap is exactly the z axis, where a
    # z-up camera's frame field is undefined; a 120-degree z-up view takes
    # pixels from the +z face, but no footprint reaches that centre pixel
    cube = [s2l2.render_image(pipeline.two_lobe_field_fn, v) for v in s2l2.cubemap_views(5)]
    assert np.array_equal(cube[4].view.pixel_dirs()[2, 2], [0.0, 0.0, 1.0])
    pose = np.stack([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], axis=-1)
    dst = s2l2.ViewSpec("perspective", 16, 16, pose, 120.0)
    assert cube[4].view.contains(dst.pixel_dirs()[0]).any()
    for method in ("s2l2", "component-bilinear"):
        got = s2l2.resample(cube, dst, method)
        assert np.isfinite(got.data).all()
        assert np.abs(got.data - resample_per_neighbour(cube, dst, method)).max() <= 1e-15 * 2.0


def test_resample_s2l2_evaluates_no_destination_frame_at_source_pixels(monkeypatch):
    # the +z face centre of an odd cubemap is exactly the up axis of a
    # 170-degree z-up camera looking along +x, whose frame field is
    # undefined there; the top rows' footprints reach that centre pixel.
    # Only component-bilinear's twists need the destination frame field at
    # source pixels, so s2l2 neither warns (an error here) nor computes them
    cube = [s2l2.render_image(pipeline.two_lobe_field_fn, v) for v in s2l2.cubemap_views(5)]
    pose = np.stack([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], axis=-1)
    dst = s2l2.ViewSpec("perspective", 8, 32, pose, 170.0)
    s2l2._last_plans.clear()

    def no_twists(*args):
        raise AssertionError("an s2l2 resample computed frame twists")

    monkeypatch.setattr(s2l2, "frame_twist", no_twists)
    got = s2l2.resample(cube, dst, "s2l2")
    plan = s2l2._last_plans["s2l2"][1]
    centre = np.flatnonzero(cube[4].view.pixel_dirs().reshape(-1, 3)[:, 2] == 1.0)
    assert np.isin(centre, plan.touched[4]).all()
    assert list(s2l2._last_plans) == ["s2l2"]
    assert got.valid.all() and np.isfinite(got.data).all()
    want = resample_per_neighbour(cube, dst, "s2l2")
    assert np.abs(got.data - want).max() <= 1e-15 * np.abs(want).max()


def test_resample_component_bilinear_invalidates_footprints_on_an_undefined_frame():
    # the same cubemap and camera: component-bilinear's twist of the +z face
    # centre to the destination frame field, undefined on its up axis, used
    # to raise "frame pair (6,) has |z|^2 = nan"; now that slot is flagged
    # bad, as a non-finite source pixel is, and only the footprints that
    # weigh it become invalid
    cube = [s2l2.render_image(pipeline.two_lobe_field_fn, v) for v in s2l2.cubemap_views(5)]
    pose = np.stack([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], axis=-1)
    dst = s2l2.ViewSpec("perspective", 8, 32, pose, 170.0)
    s2l2._last_plans.clear()
    got = s2l2.resample(cube, dst, "component-bilinear")
    # the flagged slots are the touched pixels on the up axis's line: +-z
    plan = s2l2._last_plans["component-bilinear"][1]
    dirs = np.concatenate([img.view.pixel_dirs().reshape(-1, 3)[t]
                           for img, t in zip(cube, plan.touched)])
    assert plan.frameless.any() and not plan.frameless[-1]
    assert np.array_equal(plan.frameless[:-1], np.abs(dirs[:, 2]) == 1.0)
    want = resample_per_neighbour(cube, dst, "component-bilinear").reshape(-1, 4)
    affected = ~np.isfinite(want).all(axis=-1)
    data = got.data.reshape(-1, 4)
    assert affected.any() and np.isfinite(data).all()
    assert np.array_equal(~got.valid.reshape(-1), affected)
    assert np.abs(data[affected]).max() == 0.0
    assert np.array_equal(data[~affected], want[~affected])


def test_resample_invalid_source_pixels_invalidate_footprints():
    # a 60-degree view to an equirect image (uncovered pixels are zeros) and
    # back: footprints that reach an uncovered pixel used to blend its zeros
    # into pixels flagged valid, up to 1.19 off in s0 on a scale of 1.57
    pv = s2l2.ViewSpec("perspective", 32, 32, np.eye(3), 60.0)
    img = s2l2.render_image(pipeline.two_lobe_field_fn, pv)
    eq = s2l2.resample([img], s2l2.ViewSpec("equirect", 32, 64), "s2l2")
    assert (~eq.valid).sum() == 1680
    scale = np.abs(img.data[..., 0]).max()
    for method in ("s2l2", "component-bilinear"):
        back = s2l2.resample([eq], pv, method)
        assert back.valid.any() and not back.valid.all()
        assert np.abs(back.data[~back.valid]).max() == 0.0
        assert np.abs(back.data - img.data)[back.valid].max() < 0.02 * scale
        # exactly the footprints with weight on an uncovered pixel are dropped
        rows, cols, w, _, _ = s2l2._footprints(eq.view, pv.pixel_dirs().reshape(-1, 3))
        reach = np.any(~eq.valid[rows, cols] & (w != 0.0), axis=-1)
        assert np.array_equal(back.valid.ravel(), ~reach)


def test_resample_non_finite_source_pixels_are_invalid():
    # one NaN pixel used to give 16 NaN pixels flagged valid in the
    # upsampled image (a zero weight still gives 0 * nan = nan), and the
    # identity resample copied it as a NaN pixel flagged valid
    img = s2l2.render_image(pipeline.two_lobe_field_fn, s2l2.ViewSpec("equirect", 8, 16))
    img.data[3, 5, 2] = np.nan
    up = s2l2.ViewSpec("equirect", 16, 32)
    rows, cols, w, _, _ = s2l2._footprints(img.view, up.pixel_dirs().reshape(-1, 3))
    reach = np.any((rows == 3) & (cols == 5) & (w != 0.0), axis=-1)
    assert reach.sum() == 16
    clean = img.data.copy()
    clean[3, 5] = 0.0
    for method in ("s2l2", "component-bilinear"):
        for dst, want_invalid in ((up, reach), (img.view, (np.arange(128) == 3 * 16 + 5))):
            got = s2l2.resample([img], dst, method)
            assert np.isfinite(got.data).all()
            assert np.array_equal(~got.valid.ravel(), want_invalid)
            assert np.abs(got.data[~got.valid]).max() == 0.0
            want = s2l2.resample([s2l2.StokesImage(img.view, clean)], dst, method)
            assert np.array_equal(got.data[got.valid], want.data[got.valid])


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


def _fresh_resample(sources, dst, method):
    """resample through a plan built for this call from copies of the views."""
    copy = lambda v: s2l2.ViewSpec(v.kind, v.height, v.width, v.pose.copy(), v.fov_deg)
    s2l2._last_plans.clear()
    return s2l2.resample([s2l2.StokesImage(copy(s.view), s.data, s.valid) for s in sources],
                         copy(dst), method)


def test_resample_plan_follows_views_changed_in_place():
    # plans are cached by the views' values, not by the view objects
    src = s2l2.render_image(pipeline.two_lobe_field_fn,
                            s2l2.ViewSpec("perspective", 16, 16, np.eye(3), 150.0))
    dst = s2l2.ViewSpec("perspective", 8, 10, np.eye(3), 70.0)

    def changed(before, method):
        got = s2l2.resample([src], dst, method)
        assert not np.array_equal(got.data, before.data)
        want = _fresh_resample([src], dst, method)
        assert np.array_equal(got.data, want.data) and np.array_equal(got.valid, want.valid)
        return got

    for method in ("s2l2", "component-bilinear"):
        got = s2l2.resample([src], dst, method)
        dst.pose[...] = geom.rotation_zyz(0.3, 0.5, -0.2)
        got = changed(got, method)
        dst.height = 6
        got = changed(got, method)
        src.view.pose[...] = geom.rotation_zyz(0.0, 0.2, 0.0)
        changed(got, method)
        dst.pose[...], dst.height, src.view.pose[...] = np.eye(3), 8, np.eye(3)


def test_resample_plan_keeps_its_own_copies_of_the_views():
    # a view changed in place after one method's call does not reach the
    # other method's plan, which is built from the views of its own call
    src = s2l2.render_image(pipeline.two_lobe_field_fn,
                            s2l2.ViewSpec("perspective", 16, 16, np.eye(3), 150.0))
    dst = s2l2.ViewSpec("perspective", 8, 10, geom.rotation_zyz(0.3, 0.5, -0.2), 70.0)
    same = s2l2.ViewSpec("perspective", 8, 10, dst.pose.copy(), 70.0)
    want = _fresh_resample([src], same, "component-bilinear")
    s2l2._last_plans.clear()
    s2l2.resample([src], dst, "s2l2")
    dst.pose[...] = np.eye(3)
    got = s2l2.resample([src], same, "component-bilinear")
    assert np.array_equal(got.data, want.data) and np.array_equal(got.valid, want.valid)


def test_resample_revalidates_views_changed_in_place():
    view = s2l2.ViewSpec("perspective", 6, 6, np.eye(3), 60.0)
    img = s2l2.render_image(pipeline.two_lobe_field_fn, view)
    dst = s2l2.ViewSpec("equirect", 8, 16)
    s2l2.resample([img], dst)
    dst.pose[0, 0] = 2.0
    with pytest.raises(ValueError, match="pose"):
        s2l2.resample([img], dst)
    dst.pose[0, 0] = 1.0
    view.pose[...] = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="pose"):
        s2l2.resample([img], dst)


def test_resample_plan_cache_under_threads():
    # threads alternate three destinations and both methods over the one
    # cached plan, so that lookups, rebuilds and first builds of a method's
    # arrays interleave
    img = s2l2.render_image(pipeline.two_lobe_field_fn, s2l2.ViewSpec("equirect", 6, 12))
    dsts = [s2l2.ViewSpec("perspective", 5, 5, geom.rotation_zyz(0.4 * i, 0.3, 0.0), 60.0)
            for i in range(3)]
    methods = ("s2l2", "component-bilinear")
    want = [[s2l2.resample([img], d, m).data for m in methods] for d in dsts]
    errors = []

    def work(i):
        try:
            for k in range(30):
                d, m = (i + k) % 3, (i + k // 3) % 2
                if not np.array_equal(s2l2.resample([img], dsts[d], methods[m]).data, want[d][m]):
                    errors.append((d, m))
        except Exception as e:      # reported by the assertion below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_resample_builds_each_method_plan_once(monkeypatch):
    # alternating the two methods on the same views, as the cubemap to
    # equirect benchmark does, reuses each method's own plan
    cube = [s2l2.render_image(pipeline.two_lobe_field_fn, v) for v in s2l2.cubemap_views(4)]
    dst = s2l2.ViewSpec("equirect", 8, 16)
    built = []
    init = s2l2._ResamplePlan.__init__

    def counted(self, src_views, dst, method):
        built.append(method)
        init(self, src_views, dst, method)

    monkeypatch.setattr(s2l2._ResamplePlan, "__init__", counted)
    s2l2._last_plans.clear()
    for _ in range(4):
        for method in ("s2l2", "component-bilinear"):
            s2l2.resample(cube, dst, method)
    assert built == ["s2l2", "component-bilinear"]


def test_resample_retains_no_plan_over_the_memory_bound():
    # a narrow source keeps the build small, but the destination's plan
    # holds all of its 440 x 880 pixels: over the 32 MB the cache keeps
    src = s2l2.render_image(pipeline.two_lobe_field_fn,
                            s2l2.ViewSpec("perspective", 4, 4, np.eye(3), 10.0))
    dst = s2l2.ViewSpec("equirect", 440, 880)
    assert s2l2._ResamplePlan([src.view], dst, "s2l2").nbytes > s2l2._PLAN_BYTES
    s2l2.resample([src], s2l2.ViewSpec("equirect", 4, 8))
    assert "s2l2" in s2l2._last_plans
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = s2l2.resample([src], dst)
        del out
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert abs(retained) < 2 ** 20
    assert "s2l2" not in s2l2._last_plans


def test_resample_warm_peak_is_a_few_outputs():
    # the benchmark's cubemap to equirect case: a warm call holds the
    # touched pixels, the output and one component's gathers, but no
    # (H * W, 4, 4) array of neighbour values
    cube = [s2l2.render_image(pipeline.two_lobe_field_fn, v) for v in s2l2.cubemap_views(64)]
    dst = s2l2.ViewSpec("equirect", 128, 256)
    for method in ("s2l2", "component-bilinear"):
        out = s2l2.resample(cube, dst, method)
        tracemalloc.start()
        try:
            s2l2.resample(cube, dst, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * out.data.nbytes, (method, peak)


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
