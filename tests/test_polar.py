import numpy as np
import pytest

from polarsh import geom, operators, polar, psh, pipeline


def frame_at(theta, phi, twist=0.0):
    F = geom.frame_theta_phi(theta, phi)
    if twist:
        F = F @ geom.rotation_z(twist)
    return F


def test_stokes_reframe_examples():
    F = frame_at(0.9, 0.4)
    s = np.array([1.0, 1.0, 0.0, 0.0])
    assert np.abs(polar.stokes_reframe(s, F, F) - s).max() < 1e-15
    # quarter-turn frame rotation flips s1
    G = frame_at(0.9, 0.4, np.pi / 2)
    assert np.abs(polar.stokes_reframe(s, F, G) - [1, -1, 0, 0]).max() < 1e-14
    # half-turn is the identity (double angle)
    H = frame_at(0.9, 0.4, np.pi)
    assert np.abs(polar.stokes_reframe(s, F, H) - s).max() < 1e-14


def test_stokes_reframe_direction_mismatch():
    with pytest.raises(ValueError):
        polar.stokes_reframe(np.ones(4), frame_at(0.3, 0.1), frame_at(0.4, 0.1))


def test_stokes_rotate_and_inner(rng):
    F = frame_at(1.2, 0.3)
    s = polar.GeometricStokes([1.0, 0.5, -0.2, 0.1], F)
    t = polar.GeometricStokes([0.7, 0.1, 0.4, -0.3], frame_at(1.2, 0.3, 0.8))
    ip = polar.stokes_inner(s, t)
    for _ in range(20):
        R = geom.random_rotation(rng)
        sr, tr = polar.stokes_rotate(s, R), polar.stokes_rotate(t, R)
        assert np.abs(sr.components - s.components).max() == 0.0
        assert abs(polar.stokes_inner(sr, tr) - ip) < 1e-12
    same = polar.stokes_rotate(s, np.eye(3))
    assert np.abs(same.direction - s.direction).max() == 0.0
    assert np.abs(same.components - s.in_frame(same.frame)).max() <= 1e-12
    # rotation about own axis by t equals reframing components by -2t
    axis = s.direction
    R = geom.rotation_about_axis(axis, 0.37)
    sr = polar.stokes_rotate(s, R)
    back = sr.in_frame(F)
    c, si = np.cos(2 * 0.37), np.sin(2 * 0.37)
    expect = np.array([s.components[0],
                       c * s.components[1] - si * s.components[2],
                       si * s.components[1] + c * s.components[2],
                       s.components[3]])
    assert np.abs(back - expect).max() < 1e-13


def test_stokes_inner_direction_mismatch():
    s = polar.GeometricStokes(np.ones(4), frame_at(0.3, 0.1))
    t = polar.GeometricStokes(np.ones(4), frame_at(0.5, 0.1))
    with pytest.raises(ValueError):
        polar.stokes_inner(s, t)


def test_reframe_refuses_a_bad_frame_by_its_pair():
    # a zero x axis used to give the twist 1 (atan2(0, 0) = 0), a scaled one
    # a twist of the wrong size and a NaN one a NaN
    F = frame_at(0.9, 0.4) @ np.stack([geom.rotation_z(a) for a in (0.0, 0.7, -2.1)])
    s = np.array([1.0, 0.3, -0.2, 0.1])
    for broken in (0.0, 1.1, np.nan):
        G = F.copy()
        G[1, :, 0] *= broken
        with pytest.raises(ValueError, match=r"frame pair \(1,\) has \|z\|\^2"):
            polar.stokes_reframe(s, F, G)
        with pytest.raises(ValueError, match=r"frame pair \(\) has \|z\|\^2"):
            polar.GeometricStokes(s, G[1]).in_frame(F[1])
    # a y axis scaled by 1.5, or skewed towards z, with x and z kept: the x
    # axes alone read z = 1 and gave the twist 1 + 1.1e-16j
    for y in (1.5 * F[1, :, 1], np.cos(0.1) * F[1, :, 1] + np.sin(0.1) * F[1, :, 2]):
        G = F.copy()
        G[1, :, 1] = y
        with pytest.raises(ValueError, match=r"frame pair \(1,\) has \|z\|\^2 = .*, not 1, "
                                             r"or \|y \. to - i z\| = 0\.[0-9]"):
            polar.stokes_reframe(s, F, G)
    # the shared z axis is checked as before
    with pytest.raises(ValueError, match="different propagation directions"):
        polar.stokes_reframe(s, F[0], frame_at(1.0, 0.4))


def test_mueller_reframe(rng):
    Fi, Fo = frame_at(0.5, 1.0), frame_at(2.0, 0.2)
    M = polar.MuellerMatrix(rng.normal(size=(4, 4)), Fi, Fo)
    same = polar.mueller_reframe(M, Fi, Fo)
    assert np.abs(same.matrix - M.matrix).max() < 1e-14
    # action equivalence
    Gi, Go = frame_at(0.5, 1.0, 0.7), frame_at(2.0, 0.2, -0.4)
    N = polar.mueller_reframe(M, Gi, Go)
    s = polar.GeometricStokes(rng.normal(size=4), Fi)
    out1 = M.apply(s)
    out2 = N.apply(s)
    assert np.abs(out2.in_frame(out1.frame) - out1.components).max() < 1e-12
    # round trip
    back = polar.mueller_reframe(N, Fi, Fo)
    assert np.abs(back.matrix - M.matrix).max() < 1e-12


def spin22(K):
    """The (iso, conj) pair of operators._spin_parts, by name."""
    return {group: g for group, key, g, *_ in operators._spin_parts(K) if key is None}


def test_mueller_spin22_phase(rng):
    # the iso part picks up opposite-sign double angles from the two frame
    # twists, the conj part same-sign ones (the frame-independence argument
    # behind the complex pair separation)
    Fi, Fo = frame_at(0.5, 1.0), frame_at(2.0, 0.2)
    M = polar.MuellerMatrix(rng.normal(size=(4, 4)), Fi, Fo)
    a, b = 0.31, -0.83
    N = polar.mueller_reframe(M, Fi @ geom.rotation_z(a), Fo @ geom.rotation_z(b))
    p0, p1 = spin22(M.matrix), spin22(N.matrix)
    assert abs(p1["iso"] - p0["iso"] * np.exp(2j * (a - b))) < 1e-12
    assert abs(p1["conj"] - p0["conj"] * np.exp(-2j * (a + b))) < 1e-12


def test_clamp_valid_range():
    s = np.array([1.0, 0.3, 0.2, -0.1])
    assert np.abs(polar.clamp_valid_range(s) - s).max() == 0.0
    out = polar.clamp_valid_range(np.array([1.0, 2.0, 0.0, 0.0]))
    assert np.abs(out - [1, 1, 0, 0]).max() < 1e-14
    out = polar.clamp_valid_range(np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.abs(out - [0, 0, 0, 0]).max() == 0.0
    # a negative s0 clips to 0 too, so that s0 >= |(s1, s2, s3)| holds
    out = polar.clamp_valid_range(np.array([[-1.0, 0.5, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]))
    assert np.array_equal(out, np.zeros((2, 4)))
    # AoLP preserved
    out = polar.clamp_valid_range(np.array([1.0, 3.0, 4.0, 0.0]))
    assert abs(out[1] / out[2] - 3.0 / 4.0) < 1e-14
    assert abs(np.linalg.norm(out[1:]) - 1.0) < 1e-14


def test_synthetic_pbrdf_physics(rng):
    pb = polar.synthetic_pbrdf(roughness=0.8, ior=1.5)
    wo = geom.sph_to_dir(0.4, 1.2)
    M = pb(np.array([0.0, 0, 1]), wo)
    # normal incidence: no polarizing coupling out of s0
    assert abs(M[0, 1]) < 1e-14 and abs(M[0, 2]) < 1e-14
    assert abs(M[1, 0]) < 1e-14 and abs(M[2, 0]) < 1e-14
    # dielectric: no circular from unpolarized
    wi = geom.sph_to_dir(0.8, 0.3)
    assert abs(pb(wi, wo)[3, 0]) == 0.0
    # isotropy under theta-phi components: z-rotating both directions
    for _ in range(10):
        a = rng.uniform(0, 2 * np.pi)
        Rz = geom.rotation_z(a)
        assert np.abs(pb(wi, wo) - pb(Rz @ wi, Rz @ wo)).max() < 1e-10


def sp_frame_pbrdf(pb, w_i, w_o):
    """The pBRDF built in per-ray s-p frames and reframed to theta-phi frames
    on both sides: the oracle of SyntheticPbrdf's closed form."""
    w_i, w_o = np.broadcast_arrays(np.asarray(w_i, dtype=float), np.asarray(w_o, dtype=float))
    n = pb.normal
    ci, co = w_i @ n, w_o @ n
    mirror = 2.0 * ci[..., None] * n - w_i
    lobe = np.exp((np.einsum("...i,...i->...", mirror, w_o) - 1.0) / pb.roughness ** 2)
    if pb.horizon_sharpness is not None:
        k = pb.horizon_sharpness
        lobe = lobe / (1.0 + np.exp(-ci / k)) / (1.0 + np.exp(-co / k))
    lobe = lobe * ci
    rs, rp = polar._fresnel_rs_rp(0.5 * (1.0 + ci), pb.ior)
    a, b, cc = 0.5 * (rs ** 2 + rp ** 2), 0.5 * (rs ** 2 - rp ** 2), rs * rp
    gi, go = 1.0 - ci ** 2, 1.0 - co ** 2
    z = np.zeros_like(a)
    block = np.stack([np.stack([a, b * gi, z, z], axis=-1),
                      np.stack([b * go, a * gi * go, z, z], axis=-1),
                      np.stack([z, z, cc * gi * go, z], axis=-1),
                      np.stack([z, z, z, cc], axis=-1)], axis=-2) * lobe[..., None, None]

    def sp_frame(w):
        # s = unit n x w, with a fallback where w || +-n: the cross with the
        # world axis least aligned with w, which is never parallel to it
        s_dir = np.cross(np.broadcast_to(n, w.shape), w)
        nrm = np.linalg.norm(s_dir, axis=-1, keepdims=True)
        fallback = np.cross(np.eye(3)[np.argmin(np.abs(w), axis=-1)], w)
        fb_n = np.linalg.norm(fallback, axis=-1, keepdims=True)
        s_dir = np.where(nrm > 1e-9, s_dir / np.where(nrm > 0, nrm, 1.0),
                         fallback / np.where(fb_n > 0, fb_n, 1.0))
        return np.stack([s_dir, np.cross(w, s_dir), w], axis=-1)

    M = polar.MuellerMatrix(block, sp_frame(w_i), sp_frame(w_o))
    return polar.mueller_reframe(M, geom.frame_for_dir(w_i), geom.frame_for_dir(w_o)).matrix


@pytest.mark.parametrize("normal", [(0, 0, 1), (0, 0, -1), (0.3, -0.2, 0.9), (1, 0, 0)])
@pytest.mark.parametrize("horizon", [None, 0.15])
def test_synthetic_pbrdf_matches_sp_frame_oracle(rng, normal, horizon):
    pb = polar.SyntheticPbrdf(normal, horizon_sharpness=horizon)
    n = pb.normal
    t = geom.normalize(np.cross(n, [0.3, 0.5, -0.1]))
    # random rays, the theta-phi poles, +-n, and 1e-9 from +-n
    w = np.concatenate([geom.normalize(rng.normal(size=(60, 3))),
                        [[0, 0, 1], [0, 0, -1], n, -n],
                        geom.normalize([n + 1e-9 * t, -n + 1e-9 * t])])
    K = pb(w[:, None], w[None])
    ref = sp_frame_pbrdf(pb, w[:, None], w[None])
    assert np.abs(K - ref).max() <= 1e-14 * np.abs(ref).max()


def test_synthetic_pbrdf_broadcasting_is_bitwise(rng):
    w_i = geom.normalize(rng.normal(size=(5, 7, 3)))
    w_o = geom.normalize(rng.normal(size=(4, 1, 1, 3)))
    for normal in ((0, 0, 1), (0.3, -0.2, 0.9)):
        pb = polar.SyntheticPbrdf(normal, horizon_sharpness=0.15)
        K = pb(w_i, w_o)
        assert K.shape == (4, 5, 7, 4, 4)
        assert np.array_equal(K, pb(*np.broadcast_arrays(w_i, w_o)))


def test_synthetic_pbrdf_validation():
    with pytest.raises(ValueError):
        polar.synthetic_pbrdf(roughness=0.0)
    with pytest.raises(ValueError):
        polar.synthetic_pbrdf(ior=0.9)
    # NaN or infinite parameters used to give NaN Mueller matrices, or none at all
    bad = [("roughness", v) for v in (np.nan, np.inf, -1.0)]
    bad += [("ior", v) for v in (np.nan, np.inf, 1.0)]
    bad += [("horizon_sharpness", v) for v in (np.nan, np.inf, 0.0, -0.1)]
    bad += [("normal", v) for v in ((0, 0, 0), (0, np.nan, 1), (0, np.inf, 1), (0, 1))]
    for name, value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            polar.synthetic_pbrdf(**{name: value})
    pb = polar.synthetic_pbrdf(normal=(0, 0, 2), roughness=np.float64(0.3), ior=1.2,
                               horizon_sharpness=0.15)
    assert np.isfinite(pb(np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.0, 1.0]))).all()


def test_stokes_field_pole_continuity(rng):
    # any finite PSH reconstruction satisfies the double-rotation pole rule
    c = pipeline.random_psh_coeffs(6, seed=7)
    phis = rng.uniform(0, 2 * np.pi, 12)
    vals = psh.psh_reconstruct(c, np.zeros_like(phis), phis)
    ref = psh.psh_reconstruct(c, 0.0, 0.0)
    for p2, v in zip(phis, vals):
        rot = 2.0 * p2
        cr, sr = np.cos(rot), np.sin(rot)
        expect = np.array([ref[0],
                           cr * ref[1] - sr * ref[2],
                           sr * ref[1] + cr * ref[2],
                           ref[3]])
        # f(0, phi2) = R2(-2 (phi2 - phi1)) f(0, phi1), phi1 = 0
        expect[1] = cr * ref[1] + sr * ref[2]
        expect[2] = -sr * ref[1] + cr * ref[2]
        assert np.abs(v - expect).max() < 1e-10


def test_stokes_field_grid_shapes(rng):
    g = geom.gauss_legendre_grid(4)
    data = rng.normal(size=(g.theta_nodes.size, g.n_phi, 4))
    f = polar.StokesField(data, g)
    assert f.n_theta == 5 and f.n_phi == 10
    assert f.spin2_complex().shape == (5, 10)
    with pytest.raises(ValueError):
        polar.StokesField(data[..., :3], g)
    with pytest.raises(ValueError):
        polar.StokesField(data, None)
    # band 9 has 10 x 20 nodes: with a 21st phi column, a constant s0 = 1
    # would project to s0_00 = 3.722, not sqrt(4 pi)
    const = np.zeros((10, 21, 4))
    const[..., 0] = 1.0
    with pytest.raises(ValueError, match=r"\(10, 21, 4\).*\(10, 20, 4\)"):
        polar.StokesField(const, geom.gauss_legendre_grid(9))
