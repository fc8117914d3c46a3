import numpy as np
import pytest

from polarsh import geom, operators


def test_sph_to_dir_known_values():
    assert np.allclose(geom.sph_to_dir(0.0, 2.3), [0, 0, 1], atol=1e-15)
    assert np.allclose(geom.sph_to_dir(np.pi / 2, 0.0), [1, 0, 0], atol=1e-15)
    s3, s2 = np.sqrt(3) / 2, np.sqrt(2) / 2
    assert np.allclose(geom.sph_to_dir(np.pi / 3, np.pi / 4),
                       [s3 * s2, s3 * s2, 0.5], atol=1e-15)


def test_dir_to_sph_conventions_and_roundtrip(rng):
    assert geom.dir_to_sph(np.array([0.0, 0, 1])) == (0.0, 0.0)
    th, ph = geom.dir_to_sph(np.array([0.0, 1, 0]))
    assert abs(th - np.pi / 2) < 1e-15 and abs(ph - np.pi / 2) < 1e-15
    d = geom.normalize(rng.normal(size=(1000, 3)))
    th, ph = geom.dir_to_sph(d)
    assert np.all(th >= 0) and np.all(th <= np.pi)
    assert np.all(ph >= 0) and np.all(ph < 2 * np.pi)
    assert np.abs(geom.sph_to_dir(th, ph) - d).max() < 1e-12


def test_dir_to_sph_phi_stays_below_two_pi():
    # -1e-20 + 2 pi rounds to 2 pi; the wrap must give the angle 0 instead
    for y in (-1e-20, -1e-300, -5e-324, -0.0):
        th, ph = geom.dir_to_sph(np.array([1.0, y, 0.0]))
        assert 0.0 <= ph < 2 * np.pi and ph == 0.0, y
    th, ph = geom.dir_to_sph(np.array([[1.0, -1e-20, 0.0], [1.0, -1e-15, 0.0]]))
    assert ph[0] == 0.0 and 2 * np.pi - 2e-15 < ph[1] < 2 * np.pi


def _near_pole(pole, eps, n, rng):
    """n unit directions eps radians (to first order) from (0, 0, pole)."""
    t = rng.normal(size=(n, 3))
    t[:, 2] = 0.0
    return geom.normalize(np.array([0.0, 0.0, pole]) + eps * geom.normalize(t))


def test_dir_to_sph_round_trip_next_to_the_poles(rng):
    # theta from arccos(z) and phi forced to 0 where |z| rounds to 1 lost
    # up to 9e-8 of the direction here
    for pole in (1.0, -1.0):
        for eps in 10.0 ** -np.arange(3, 13):
            d = _near_pole(pole, eps, 200, rng)
            assert np.abs(geom.sph_to_dir(*geom.dir_to_sph(d)) - d).max() <= 1e-15, (pole, eps)
    # phi is 0 by convention only where x = y = 0
    assert geom.dir_to_sph(np.array([0.0, 1e-20, 1.0]))[1] == np.pi / 2
    assert geom.dir_to_sph(np.array([0.0, 0.0, -1.0])) == (np.pi, 0.0)


def test_frame_theta_phi_values():
    F = geom.frame_theta_phi(np.pi / 2, 0.0)
    assert np.allclose(F[:, 0], [0, 0, -1], atol=1e-15)
    assert np.allclose(F[:, 1], [0, 1, 0], atol=1e-15)
    assert np.allclose(F[:, 2], [1, 0, 0], atol=1e-15)
    # pole values by direct substitution
    assert np.allclose(geom.frame_theta_phi(0.0, 0.0), np.eye(3), atol=1e-15)
    F = geom.frame_theta_phi(0.0, np.pi / 2)
    assert np.allclose(F[:, 0], [0, 1, 0], atol=1e-15)
    assert np.allclose(F[:, 1], [-1, 0, 0], atol=1e-15)
    assert np.allclose(F[:, 2], [0, 0, 1], atol=1e-15)


def test_frames_orthonormal(rng):
    th = rng.uniform(0, np.pi, 50)
    ph = rng.uniform(0, 2 * np.pi, 50)
    F = geom.frame_theta_phi(th, ph)
    eye = np.eye(3)
    for f in F:
        assert np.abs(f.T @ f - eye).max() < 1e-14
        assert abs(np.linalg.det(f) - 1.0) < 1e-14
    assert np.abs(F[..., 2] - geom.sph_to_dir(th, ph)).max() == 0.0


def test_rotation_zyz():
    assert np.allclose(geom.rotation_zyz(0, 0, 0), np.eye(3))
    th, ph = 0.8, 2.1
    R = geom.rotation_zyz(ph, th, 0.0)
    assert np.abs(R @ [0, 0, 1] - geom.sph_to_dir(th, ph)).max() < 1e-15
    a, b, c = 0.3, 1.9, -0.7
    lhs = geom.rotation_zyz(a, b, c)
    rhs = geom.rotation_zyz(a, 0, 0) @ geom.rotation_zyz(0, b, 0) @ geom.rotation_zyz(0, 0, c)
    assert np.abs(lhs - rhs).max() < 1e-15
    # frame relation: Rzyz(phi, theta, 0) columns are the theta-phi frame
    assert np.abs(R - geom.frame_theta_phi(th, ph)).max() < 1e-14


def test_zyz_from_rotation_roundtrip(rng):
    for _ in range(100):
        R = geom.random_rotation(rng)
        a, b, c = geom.zyz_from_rotation(R)
        assert np.abs(geom.rotation_zyz(a, b, c) - R).max() < 1e-12
    # gimbal cases
    for R in (np.eye(3), geom.rotation_z(1.1), geom.rotation_zyz(0.2, np.pi, 0.0)):
        a, b, c = geom.zyz_from_rotation(R)
        assert np.abs(geom.rotation_zyz(a, b, c) - R).max() < 1e-12


def test_rotation_preserves_inner_products(rng):
    for _ in range(50):
        R = geom.random_rotation(rng)
        assert geom.is_rotation(R)
        a = geom.normalize(rng.normal(size=3))
        b = geom.normalize(rng.normal(size=3))
        assert abs((R @ a) @ (R @ b) - a @ b) < 1e-12


def test_rotation_align(rng):
    for _ in range(50):
        a = geom.normalize(rng.normal(size=3))
        b = geom.normalize(rng.normal(size=3))
        R = geom.rotation_align(a, b)
        assert geom.is_rotation(R, tol=1e-12)
        assert np.abs(R @ a - b).max() < 1e-12
    # antipodal
    R = geom.rotation_align([0, 0, 1.0], [0, 0, -1.0])
    assert np.abs(R @ [0, 0, 1.0] - [0, 0, -1.0]).max() < 1e-12


def test_rotation_about_axis_single_and_batched(rng):
    # one axis: Rodrigues about the normalized axis, shape (3, 3)
    R = geom.rotation_about_axis([0.0, 0.0, 2.5], 0.4)
    assert R.shape == (3, 3)
    assert np.abs(R - geom.rotation_z(0.4)).max() < 1e-15
    axis = rng.normal(size=3)
    R = geom.rotation_about_axis(axis, 1.1)
    assert geom.is_rotation(R)
    assert np.abs(R @ axis - axis).max() < 1e-14
    # a stack of axes gives the stack of single-axis rotations
    axes = rng.normal(size=(40, 3))
    Rs = geom.rotation_about_axis(axes, 0.7)
    assert Rs.shape == (40, 3, 3)
    for u, Ru in zip(axes, Rs):
        assert np.abs(Ru - geom.rotation_about_axis(u, 0.7)).max() < 1e-15


def test_complex_pair_separation(rng):
    # the spin 2-to-2 split of operators._spin_parts into (iso, conj)
    def pair(K):
        parts = {group: g for group, key, g, *_ in operators._spin_parts(K) if key is None}
        return parts["iso"], parts["conj"]
    assert pair(np.eye(4)) == (1, 0)
    assert pair(np.diag([1.0, 1.0, -1.0, 1.0])) == (0, 1)
    for _ in range(100):
        K = rng.normal(size=(4, 4))
        iso, conj = pair(K)
        # action property: M [Re z, Im z] = [Re, Im] of (iso z + conj z*)
        z = rng.normal() + 1j * rng.normal()
        w = iso * z + conj * np.conj(z)
        assert np.abs(K[1:3, 1:3] @ [z.real, z.imag] - [w.real, w.imag]).max() < 1e-13


def test_gauss_legendre_grid():
    g = geom.gauss_legendre_grid(0)
    assert g.theta_nodes.shape == (1,) and g.n_phi == 2
    assert abs(g.weights().sum() - 4 * np.pi) < 1e-14
    with pytest.raises(ValueError):
        geom.gauss_legendre_grid(-1)


def test_gauss_legendre_grid_is_cached_read_only():
    g = geom.gauss_legendre_grid(13)
    assert geom.gauss_legendre_grid(13) is g
    for a in (g.theta_nodes, g.theta_weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_gauss_legendre_rule_is_cached_read_only():
    x, w = geom.gauss_legendre(17)
    assert geom.gauss_legendre(17)[0] is x and geom.gauss_legendre(17)[1] is w
    assert np.all(np.diff(x) > 0) and abs(w.sum() - 2.0) < 1e-14
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # the grid of band 16 reads the same rule
    g = geom.gauss_legendre_grid(16)
    assert np.array_equal(g.theta_nodes, np.arccos(x[::-1]))
    assert np.array_equal(g.theta_weights, w[::-1] * (2 * np.pi / g.n_phi))


def test_grid_integrates_y00():
    from polarsh import shscalar as sh
    g = geom.gauss_legendre_grid(4)
    th, ph = g.angles()
    vals = sh.sh_basis_complex(0, th.ravel(), ph.ravel())[:, 0]
    integral = np.sum(g.weights().ravel() * vals.real)
    assert abs(integral - np.sqrt(4 * np.pi)) < 1e-12


def test_grid_orthonormality_l8():
    from polarsh import shscalar as sh
    g = geom.gauss_legendre_grid(8)
    th, ph = g.angles()
    w = g.weights().ravel()
    B = sh.sh_basis_complex(8, th.ravel(), ph.ravel())
    gram = B.conj().T @ (w[:, None] * B)
    assert np.abs(gram - np.eye(81)).max() < 1e-12


def test_fibonacci_directions():
    d = geom.fibonacci_directions(500)
    assert d.shape == (500, 3)
    assert np.abs(np.linalg.norm(d, axis=1) - 1).max() < 1e-12
    # roughly uniform: mean close to zero
    assert np.abs(d.mean(axis=0)).max() < 0.01
