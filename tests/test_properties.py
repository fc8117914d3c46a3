"""Seeded property tests (hypothesis, derandomized)."""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from polarsh import geom, operators, pconv, pipeline, polar, psh, s2l2
from polarsh import shscalar as sh
from test_s2l2 import resample_per_neighbour

REAL_FAMILIES = ("k00", "k03", "k30", "k33")
COMPLEX_FAMILIES = ("k0p", "k3p", "kp0", "kp3", "kiso", "kconj")


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(L=st.integers(0, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_conv_project_inverts_conv_expand(L, seed):
    rng = np.random.default_rng(seed)
    kc = pconv.PolarConvKernelCoeffs.zeros(L)
    for name in REAL_FAMILIES:
        getattr(kc, name)[:] = rng.normal(size=L + 1)
    n2 = max(L - 1, 0)
    for name in COMPLEX_FAMILIES:
        getattr(kc, name)[2:] = rng.normal(size=n2) + 1j * rng.normal(size=n2)
    kc2, rms, _ = pconv.conv_project_operator(pconv.conv_expand_to_matrix(kc, L))
    assert rms < 1e-12
    for name in REAL_FAMILIES + COMPLEX_FAMILIES:
        assert np.abs(getattr(kc2, name) - getattr(kc, name)).max() < 1e-12, name


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(L=st.integers(0, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_conv_project_residual_meets_normal_equations(L, seed):
    # the fit is least squares: its residual R = M - expand(kc) is orthogonal
    # to Re(w) and Im(w) over the theorem-table entries of each family and band
    rng = np.random.default_rng(seed)
    M = operators.PshCoeffMatrix(L, rng.normal(size=(psh.psh_size(L),) * 2))
    kc, _, _ = pconv.conv_project_operator(M)
    R = M.matrix - pconv.conv_expand_to_matrix(kc, L).matrix
    t = pconv._conv_tables(L)
    r = R[t.row, t.col]
    bound = 1e-12 * np.abs(M.matrix).max()
    for fam in range(len(pconv.KC_FAMILIES)):
        for l in range(L + 1):
            sel = (t.fam == fam) & (t.l == l)
            assert abs(np.sum(t.w.real[sel] * r[sel])) <= bound, (fam, l)
            assert abs(np.sum(t.w.imag[sel] * r[sel])) <= bound, (fam, l)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(l_max=st.integers(0, 32), seed=st.integers(0, 2 ** 32 - 1))
def test_wigner_d_composition(l_max, seed):
    rng = np.random.default_rng(seed)
    R1, R2 = geom.random_rotation(rng), geom.random_rotation(rng)
    pairs = zip(sh.wigner_d_stack(l_max, R1), sh.wigner_d_stack(l_max, R2),
                sh.wigner_d_stack(l_max, R1 @ R2))
    for l, (D1, D2, D12) in enumerate(pairs):
        assert np.abs(D1 @ D2 - D12).max() < 1e-12, l


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(l_max=st.integers(0, 10), n=st.integers(1, 5), poles=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_psh_rotate_equals_per_rotation(l_max, n, poles, seed):
    rng = np.random.default_rng(seed)
    Rs = [geom.random_rotation(rng) for _ in range(n)]
    if poles:   # beta = 0 and pi inside the batch
        Rs += [geom.rotation_zyz(0.4, 0.0, -1.1), geom.rotation_zyz(-0.2, np.pi, 0.7)]
    c = pipeline.random_psh_coeffs(l_max, seed=int(rng.integers(2 ** 31)))
    batch = psh.psh_rotate_coeffs(c, np.stack(Rs)).flat()
    assert batch.shape == (len(Rs), psh.psh_size(l_max))
    for i, R in enumerate(Rs):
        assert np.abs(batch[i] - psh.psh_rotate_coeffs(c, R).flat()).max() < 1e-14


# a Haar-random pose, or one tilted at most 1e-9 from either pole
POSE = st.sampled_from([None, 0.0, 1e-12, 1e-9, np.pi - 1e-9, np.pi])


def _pose(rng, beta):
    if beta is None:
        return geom.random_rotation(rng)
    return geom.rotation_zyz(rng.uniform(-np.pi, np.pi), beta, rng.uniform(-np.pi, np.pi))


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(L=st.integers(0, 6), Lv=st.integers(0, 12), beta=POSE, seed=st.integers(0, 2 ** 32 - 1))
@example(L=3, Lv=9, beta=1e-9, seed=1)             # odd L_v above 2 L, next to a pole
@example(L=6, Lv=11, beta=np.pi - 1e-9, seed=2)
def test_shadow_expand_commutes_with_rotation(L, Lv, beta, seed):
    # multiplying by a rotated visibility is the rotated multiplication:
    # S(R v) = D S(v) D^T with D the PSH rotation matrix of R
    rng = np.random.default_rng(seed)
    R = _pose(rng, beta)
    v = sh.ShCoeffs(Lv, "real", rng.normal(size=sh.sh_size(Lv)))
    S, D = operators.shadow_expand(v, L).matrix, psh.psh_rotation_matrix(L, R)
    got = operators.shadow_expand(sh.sh_rotate_coeffs(v, R), L).matrix
    assert np.abs(got - D @ S @ D.T).max() <= 1e-12


def _band_norms(c):
    l = sh.sh_lm_arrays(c.l_max)[0]
    spin2 = np.pad(c.spin2, (l.size - c.spin2.size, 0))
    return np.sqrt(np.bincount(l, c.s0 ** 2 + c.s3 ** 2 + np.abs(spin2) ** 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(l_max=st.integers(0, 64), beta=POSE, seed=st.integers(0, 2 ** 32 - 1))
def test_psh_rotate_keeps_every_band_norm(l_max, beta, seed):
    rng = np.random.default_rng(seed)
    c = pipeline.random_psh_coeffs(l_max, seed=int(rng.integers(2 ** 31)))
    before, after = _band_norms(c), _band_norms(psh.psh_rotate_coeffs(c, _pose(rng, beta)))
    assert np.all(np.abs(after - before) <= 1e-14 * before)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(l_max=st.integers(0, 64), beta1=POSE, beta2=POSE, seed=st.integers(0, 2 ** 32 - 1))
def test_psh_rotate_composes(l_max, beta1, beta2, seed):
    # unit-variance coefficients: rotating by R2 then R1 is rotating by R1 R2
    rng = np.random.default_rng(seed)
    R1, R2 = _pose(rng, beta1), _pose(rng, beta2)
    c = pipeline.random_psh_coeffs(l_max, seed=int(rng.integers(2 ** 31)))
    twice = psh.psh_rotate_coeffs(psh.psh_rotate_coeffs(c, R2), R1).flat()
    assert np.abs(twice - psh.psh_rotate_coeffs(c, R1 @ R2).flat()).max() <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(l_max=st.integers(0, 16), beta=POSE, seed=st.integers(0, 2 ** 32 - 1))
def test_psh_rotate_equals_real_block_rotation_matrix(l_max, beta, seed):
    # psh_rotation_matrix turns s0 and s3 by real Wigner blocks, an
    # independent route from the complex-basis rotation
    rng = np.random.default_rng(seed)
    R = _pose(rng, beta)
    c = pipeline.random_psh_coeffs(l_max, seed=int(rng.integers(2 ** 31)))
    want = psh.psh_rotation_matrix(l_max, R) @ c.flat()
    assert np.abs(psh.psh_rotate_coeffs(c, R).flat() - want).max() <= 1e-14


def _unit_columns(rng, l_max, lead=()):
    """Two columns of unit-variance complex coefficients over sh_index order."""
    shape = lead + (sh.sh_size(l_max), 2)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)


def _block_rotate(x, R):
    """rotate_bands through wigner_d_stack's blocks: D^l x_l per band."""
    stack = sh.wigner_d_stack(round(x.shape[-2] ** 0.5) - 1, R)
    return np.concatenate([D @ x[..., l * l:(l + 1) ** 2, :] for l, D in enumerate(stack)], axis=-2)


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(l_max=st.integers(0, 128), beta=POSE, seed=st.integers(0, 2 ** 32 - 1))
@example(l_max=128, beta=None, seed=3)
def test_rotate_bands_equals_wigner_blocks(l_max, beta, seed):
    # the vector path through the d(pi/2) factors against wigner_d_stack's
    # blocks, its independent oracle
    rng = np.random.default_rng(seed)
    R = _pose(rng, beta)
    x = _unit_columns(rng, l_max)
    assert np.abs(sh.rotate_bands(x, R) - _block_rotate(x, R)).max() <= 1e-14


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(l_max=st.integers(0, 16), n=st.integers(1, 5), shared=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_rotate_bands_equals_wigner_blocks(l_max, n, shared, seed):
    # a batch of 1-5 poses with beta = 0 and pi inside it, against one set of
    # coefficients (shared) or one per pose
    rng = np.random.default_rng(seed)
    Rs = [geom.random_rotation(rng) for _ in range(n)]
    for beta in (0.0, np.pi):
        Rs.insert(int(rng.integers(len(Rs) + 1)), _pose(rng, beta))
    Rs = np.stack(Rs)
    x = _unit_columns(rng, l_max, () if shared else (len(Rs),))
    got = sh.rotate_bands(x, Rs)
    assert got.shape == (len(Rs), sh.sh_size(l_max), 2)
    assert np.abs(got - _block_rotate(x, Rs)).max() <= 1e-14


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(l_max=st.integers(0, 32), seed=st.integers(0, 2 ** 32 - 1))
def test_rotate_bands_at_the_poles_is_the_identity_and_the_flip(l_max, seed):
    # beta = 0 and pi take the exact identity and flip, (d y)_m = y_m and
    # (-1)^(l+m) y_{-m}, as wigner_d_stack's blocks do
    rng = np.random.default_rng(seed)
    x = _unit_columns(rng, l_max)
    for beta in (0.0, np.pi):
        R = _pose(rng, beta)
        assert geom.zyz_from_rotation(R)[1] == beta
        assert np.abs(sh.rotate_bands(x, R) - _block_rotate(x, R)).max() <= 1e-15


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(L=st.integers(0, 8), n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_operators_equal_per_item(L, n, seed):
    # pconv_apply over stacked kernel families, operator_apply over stacked matrices
    rng = np.random.default_rng(seed)
    kcs = [pconv.PolarConvKernelCoeffs.zeros(L) for _ in range(n)]
    for kc in kcs:
        for name in REAL_FAMILIES:
            getattr(kc, name)[:] = rng.normal(size=L + 1)
        for name in COMPLEX_FAMILIES:
            getattr(kc, name)[:] = rng.normal(size=L + 1) + 1j * rng.normal(size=L + 1)
    stacked = pconv.PolarConvKernelCoeffs(L, *(np.stack([getattr(kc, name) for kc in kcs])
                                               for name in pconv.KC_FAMILIES))
    fs = [pipeline.random_psh_coeffs(L, seed=int(rng.integers(2 ** 31))) for _ in range(n)]
    out = pconv.pconv_apply(stacked, psh.PshCoeffs.from_flat(L, np.stack([f.flat() for f in fs])))
    shared = pconv.pconv_apply(stacked, fs[0])    # one field against every kernel
    for i, (kc, f) in enumerate(zip(kcs, fs)):
        assert np.abs(out.flat()[i] - pconv.pconv_apply(kc, f).flat()).max() < 1e-14
        assert np.abs(shared.flat()[i] - pconv.pconv_apply(kc, fs[0]).flat()).max() < 1e-14
    mats = rng.normal(size=(n,) + (psh.psh_size(L),) * 2)
    out = operators.operator_apply(operators.PshCoeffMatrix(L, mats),
                                   psh.PshCoeffs.from_flat(L, np.stack([f.flat() for f in fs])))
    for i, f in enumerate(fs):
        one = operators.operator_apply(operators.PshCoeffMatrix(L, mats[i]), f).flat()
        assert np.abs(out.flat()[i] - one).max() < 1e-14


def _haar(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_zyz_round_trip_next_to_the_poles(seed):
    rng = np.random.default_rng(seed)
    for tilt in (0.0, 1e-14, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3):
        for beta in (tilt, np.pi - tilt):
            a, g = rng.uniform(-np.pi, np.pi, size=2)
            R = geom.rotation_zyz(a, beta, g)
            Q = _haar(rng)
            # Euler-built, the same with rounding in every entry, and Haar-random
            for M in (R, Q @ (Q.T @ R), _haar(rng)):
                back = geom.rotation_zyz(*geom.zyz_from_rotation(M))
                assert np.abs(back - M).max() <= 2e-15


def _rz(a):
    """Rotations about z by angles a, a.shape + (3, 3)."""
    c, s, z = np.cos(a), np.sin(a), np.zeros_like(a)
    return np.stack([np.stack([c, -s, z], -1), np.stack([s, c, z], -1),
                     np.stack([z, z, z + 1.0], -1)], -2)


def _twisted_frames(rng, shape, pole_eps, count=3):
    """count stacks of frames (shape + (3, 3)) sharing their z axes: the
    theta-phi frame at random directions, each twisted about that direction
    by a random angle.  pole_eps puts the directions that far from a pole."""
    d = rng.normal(size=shape + (3,))
    if pole_eps is not None:
        d[..., :2] *= pole_eps / np.linalg.norm(d[..., :2], axis=-1, keepdims=True)
        d[..., 2] = np.where(d[..., 2] < 0, -1.0, 1.0)
    F = geom.frame_for_dir(geom.normalize(d))
    return [F @ _rz(a) for a in rng.uniform(-np.pi, np.pi, size=(count,) + shape)]


POLE_EPS = st.sampled_from([None, 1e-3, 1e-8, 1e-12])


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), pole_eps=POLE_EPS)
def test_frame_twist_is_the_known_angle(seed, pole_eps):
    # the twist from F to F Rz(t) is e^{-2it}: Haar frames (pole_eps None)
    # and frames next to either pole, against an angle known by construction
    rng = np.random.default_rng(seed)
    F, = _twisted_frames(rng, (16,), pole_eps, count=1)
    t = rng.uniform(-np.pi, np.pi, size=16)
    assert np.abs(polar.frame_twist(F, F @ _rz(t)) - np.exp(-2j * t)).max() <= 1e-15


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), pole_eps=POLE_EPS)
def test_reframe_identity_inverse_composition(seed, pole_eps):
    rng = np.random.default_rng(seed)
    F, G, H = _twisted_frames(rng, (8,), pole_eps)
    s = rng.normal(size=(8, 4))
    assert np.abs(polar.stokes_reframe(s, F, F) - s).max() < 1e-15
    to_g = polar.stokes_reframe(s, F, G)
    assert np.array_equal(to_g[:, [0, 3]], s[:, [0, 3]])
    assert np.abs(polar.stokes_reframe(to_g, G, F) - s).max() < 1e-14
    assert np.abs(polar.stokes_reframe(to_g, G, H) - polar.stokes_reframe(s, F, H)).max() < 1e-14
    # Mueller matrices: same laws, frames on both sides
    Fo, Go, Ho = _twisted_frames(rng, (8,), pole_eps)
    M = polar.MuellerMatrix(rng.normal(size=(8, 4, 4)), F, Fo)
    assert np.abs(polar.mueller_reframe(M, F, Fo).matrix - M.matrix).max() < 1e-15
    N = polar.mueller_reframe(M, G, Go)
    assert np.abs(polar.mueller_reframe(N, F, Fo).matrix - M.matrix).max() < 1e-14
    assert np.abs(polar.mueller_reframe(N, H, Ho).matrix
                  - polar.mueller_reframe(M, H, Ho).matrix).max() < 1e-14
    # and the reframed matrix acts the same on reframed vectors
    assert np.abs(np.einsum("...ij,...j->...i", N.matrix, to_g)
                  - polar.stokes_reframe(np.einsum("...ij,...j->...i", M.matrix, s), Fo, Go)
                  ).max() < 1e-13


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(seed=st.integers(0, 2 ** 32 - 1), pole_eps=POLE_EPS)
def test_batched_reframe_equals_per_element(seed, pole_eps):
    rng = np.random.default_rng(seed)
    F, G, Fo, Go = _twisted_frames(rng, (3, 4), pole_eps, count=4)
    s = rng.normal(size=(3, 4, 4))
    M = polar.MuellerMatrix(rng.normal(size=(3, 4, 4, 4)), F, Fo)
    batched_s = polar.stokes_reframe(s, F, G)
    batched_m = polar.mueller_reframe(M, G, Go).matrix
    for i, j in np.ndindex(3, 4):
        one = polar.stokes_reframe(s[i, j], F[i, j], G[i, j])
        assert np.abs(batched_s[i, j] - one).max() <= 1e-15
        one = polar.mueller_reframe(polar.MuellerMatrix(M.matrix[i, j], F[i, j], Fo[i, j]),
                                    G[i, j], Go[i, j]).matrix
        assert np.abs(batched_m[i, j] - one).max() <= 1e-15
    # one vector against a stack of frames broadcasts
    assert np.abs(polar.stokes_reframe(s[0, 0], F, G)[0, 0] - batched_s[0, 0]).max() <= 1e-15


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1), horizon=st.sampled_from([None, 0.15]))
def test_synthetic_pbrdf_rotates_with_its_normal(seed, horizon):
    # rotating the normal and both rays by R rotates the field: the components
    # change only by the twist from R @ frame_for_dir(w) to frame_for_dir(R w)
    rng = np.random.default_rng(seed)
    R = _haar(rng)
    n = geom.normalize(rng.normal(size=3))
    w_i = geom.normalize(np.concatenate([rng.normal(size=(5, 1, 3)), [[n], [-n]]]))
    w_o = geom.normalize(np.concatenate([rng.normal(size=(1, 5, 3)), [[n, [0.0, 0.0, 1.0]]]], 1))
    K = polar.SyntheticPbrdf(n, horizon_sharpness=horizon)(w_i, w_o)
    w_i, w_o = np.broadcast_arrays(w_i, w_o)
    M = polar.MuellerMatrix(K, R @ geom.frame_for_dir(w_i), R @ geom.frame_for_dir(w_o))
    rw_i, rw_o = w_i @ R.T, w_o @ R.T
    expect = polar.mueller_reframe(M, geom.frame_for_dir(rw_i), geom.frame_for_dir(rw_o)).matrix
    rotated = polar.SyntheticPbrdf(R @ n, horizon_sharpness=horizon)(rw_i, rw_o)
    assert np.abs(rotated - expect).max() <= 1e-13


_NUMBER = st.one_of(st.integers(-3, 3).map(str),
                    st.floats(allow_nan=True, allow_infinity=True, width=32).map(repr))
_FACE_TOKEN = st.builds(lambda i, n, form: form.format(i=i, n=n), st.integers(-7, 7),
                        st.integers(-7, 7), st.sampled_from(["{i}", "{i}//{n}", "{i}/{n}",
                                                             "{i}/{n}/{n}", "{i}/"]))
_OBJ_LINE = st.one_of(
    st.lists(_NUMBER, max_size=4).map(lambda xs: " ".join(["v"] + xs)),
    st.lists(_NUMBER, max_size=4).map(lambda xs: " ".join(["vn"] + xs)),
    st.lists(_FACE_TOKEN, max_size=5).map(lambda ts: " ".join(["f"] + ts)),
    st.text(st.characters(codec="utf-8"), max_size=10))


def _tetrahedron_obj(normals):
    lines = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "v 0 0 1"]
    if normals:
        lines += ["vn 1 1 1", "vn -1 0 0", "vn 0 -1 0", "vn 0 0 -1"]
    tris = ["1 3 2", "1 2 4", "1 4 3", "2 3 4"]
    return lines + ["f " + (" ".join(f"{i}//{i}" for i in t.split()) if normals else t)
                    for t in tris]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(lines=st.one_of(
    st.lists(_OBJ_LINE, max_size=12),
    st.builds(lambda normals, junk, at, cut: (_tetrahedron_obj(normals)[:cut]
                                             + junk + _tetrahedron_obj(normals)[cut:])[at:],
              st.booleans(), st.lists(_OBJ_LINE, max_size=3), st.integers(0, 3),
              st.integers(0, 12))))
def test_load_obj_raises_or_returns_a_valid_mesh(lines):
    # random and corrupted OBJ text: a clean error, or a mesh whose triangles
    # index its vertices and whose normals are finite unit vectors
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.obj")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        try:
            mesh = pipeline.load_obj(path)
        except ValueError:          # FormatError and UnicodeDecodeError included
            return
    n = mesh.vertices.shape[0]
    assert mesh.vertices.shape == mesh.normals.shape == (n, 3)
    assert mesh.triangles.ndim == 2 and mesh.triangles.shape[1] == 3
    assert ((mesh.triangles >= 0) & (mesh.triangles < n)).all()
    assert np.isfinite(mesh.vertices).all() and np.isfinite(mesh.normals).all()
    assert np.abs(np.linalg.norm(mesh.normals, axis=-1) - 1.0).max() < 1e-12


def _random_view(rng, equirect, height, width, fov):
    if equirect:
        return s2l2.ViewSpec("equirect", height, width)
    return s2l2.ViewSpec("perspective", height, width, geom.random_rotation(rng), fov)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(equirect=st.booleans(), height=st.integers(1, 12), width=st.integers(1, 24),
       fov=st.floats(1.0, 170.0), seed=st.integers(0, 2 ** 32 - 1))
def test_resample_into_its_own_view_is_bit_exact(equirect, height, width, fov, seed):
    # every footprint snaps onto its own pixel, whose frame is the
    # destination's: both methods copy it
    rng = np.random.default_rng(seed)
    view = _random_view(rng, equirect, height, width, fov)
    img = s2l2.StokesImage(view, rng.normal(size=(height, width, 4)))
    for method in ("s2l2", "component-bilinear"):
        out = s2l2.resample([img], view, method)
        assert out.valid.all()
        assert np.array_equal(out.data, img.data)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(size=st.integers(1, 6), equirect=st.booleans(), height=st.integers(1, 10),
       width=st.integers(1, 16), fov=st.floats(1.0, 170.0), seed=st.integers(0, 2 ** 32 - 1))
def test_resample_warm_plan_equals_fresh_plan(size, equirect, height, width, fov, seed):
    # a cached plan gives the same bits as one built for the call, on pixel
    # values and validity masks it has not seen
    rng = np.random.default_rng(seed)
    views = s2l2.cubemap_views(size)
    dst = _random_view(rng, equirect, height, width, fov)

    def images():
        return [s2l2.StokesImage(v, rng.normal(size=(size, size, 4)), rng.random((size, size)) > 0.2)
                for v in views]

    for method in ("s2l2", "component-bilinear"):
        s2l2.resample(images(), dst, method)
        sources = images()
        warm = s2l2.resample(sources, dst, method)
        s2l2._last_plans.clear()
        cold = s2l2.resample(sources, dst, method)
        assert np.array_equal(warm.data, cold.data)
        assert np.array_equal(warm.valid, cold.valid)


def _expected_invalid(sources, dst, method):
    """Uncovered destination pixels, and those whose footprint gives nonzero
    weight to an invalid or non-finite source pixel or, for
    component-bilinear, to one where the destination frame field is
    undefined."""
    dirs = dst.pixel_dirs().reshape(-1, 3)
    chosen = np.full(dirs.shape[0], -1)
    for k, src in enumerate(sources):
        chosen[src.view.contains(dirs) & (chosen < 0)] = k
    invalid = chosen < 0
    for k, src in enumerate(sources):
        sel = np.flatnonzero(chosen == k)
        rows, cols, w, _, _ = s2l2._footprints(src.view, dirs[sel])
        bad = ~src.valid[rows, cols] | ~np.isfinite(src.data[rows, cols]).all(axis=-1)
        if method == "component-bilinear":
            with np.errstate(invalid="ignore", divide="ignore"):
                to = dst.frames(src.view.pixel_dirs()[rows, cols])
            bad |= ~np.isfinite(to).all(axis=(-2, -1))
        invalid[sel] = np.any(bad & (w != 0.0), axis=-1)
    return invalid.reshape(dst.height, dst.width)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(cube=st.booleans(), size=st.integers(3, 9), equirect=st.booleans(),
       height=st.integers(1, 12), width=st.integers(1, 24), fov=st.floats(1.0, 170.0),
       beta=POSE, seed=st.integers(0, 2 ** 32 - 1))
def test_resample_matches_the_per_neighbour_oracle_on_masked_sources(
        cube, size, equirect, height, width, fov, beta, seed):
    # valid pixels are the oracle's on the sources with their non-finite
    # pixels zeroed (it reads masked pixels too, at zero weight); invalid
    # ones are exactly the expected set, written as zeros
    rng = np.random.default_rng(seed)
    views = (s2l2.cubemap_views(size) if cube
             else [s2l2.ViewSpec("equirect", size, 2 * size)])
    if equirect:
        dst = s2l2.ViewSpec("equirect", height, width)
    else:
        dst = s2l2.ViewSpec("perspective", height, width, _pose(rng, beta), fov)
    sources, finite = [], []
    for v in views:
        data = rng.normal(size=(v.height, v.width, 4))
        for _ in range(int(rng.integers(0, 3))):
            r, c, i = (int(rng.integers(n)) for n in (v.height, v.width, 4))
            data[r, c, i] = rng.choice([np.inf, -np.inf, np.nan])
        sources.append(s2l2.StokesImage(v, data, rng.random((v.height, v.width)) > 0.15))
        finite.append(s2l2.StokesImage(v, np.where(np.isfinite(data).all(axis=-1, keepdims=True),
                                                   data, 0.0)))
    for method in ("s2l2", "component-bilinear"):
        got = s2l2.resample(sources, dst, method)
        assert np.array_equal(~got.valid, _expected_invalid(sources, dst, method))
        assert np.abs(got.data[~got.valid]).max(initial=0.0) == 0.0
        want = resample_per_neighbour(finite, dst, method)[got.valid]
        if method == "s2l2":
            assert np.abs(got.data[got.valid] - want).max(initial=0.0) <= \
                1e-15 * np.abs(want).max(initial=0.0)
        else:
            assert np.array_equal(got.data[got.valid], want)
