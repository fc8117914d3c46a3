"""The one slot rule (polar.SPIN_BLOCKS) against the hand-written writers and
readers it replaced, kept here as oracles and compared bit for bit."""

import itertools

import numpy as np
import pytest

from polarsh import geom, operators as op, pconv, polar, psh
from polarsh import shscalar as sh


def _assemble_oracle(l_max, blocks):
    lay = psh.psh_layout(l_max)
    pos1, pos_scalar = lay.pos1, {0: lay.pos0, 3: lay.pos3}
    n = psh.psh_size(l_max)
    out = np.zeros((n, n))
    for (a, b), mat in blocks.get("scalar", {}).items():
        out[np.ix_(pos_scalar[a], pos_scalar[b])] = mat
    for b, c in blocks.get("to_spin2", {}).items():
        out[np.ix_(pos1, pos_scalar[b])] = c.real
        out[np.ix_(pos1 + 1, pos_scalar[b])] = c.imag
    for a, c in blocks.get("from_spin2", {}).items():
        out[np.ix_(pos_scalar[a], pos1)] = c.real
        out[np.ix_(pos_scalar[a], pos1 + 1)] = -c.imag
    iso = blocks.get("iso")
    conj = blocks.get("conj")
    if iso is not None:
        out[np.ix_(pos1, pos1)] += iso.real
        out[np.ix_(pos1, pos1 + 1)] += -iso.imag
        out[np.ix_(pos1 + 1, pos1)] += iso.imag
        out[np.ix_(pos1 + 1, pos1 + 1)] += iso.real
    if conj is not None:
        out[np.ix_(pos1, pos1)] += conj.real
        out[np.ix_(pos1, pos1 + 1)] += conj.imag
        out[np.ix_(pos1 + 1, pos1)] += conj.imag
        out[np.ix_(pos1 + 1, pos1 + 1)] += -conj.real
    return out


def _split_oracle(M):
    lay = psh.psh_layout(M.l_max)
    pos1, pos_scalar = lay.pos1, {0: lay.pos0, 3: lay.pos3}
    blocks = {"scalar": {}, "to_spin2": {}, "from_spin2": {}}
    for a in (0, 3):
        for b in (0, 3):
            blocks["scalar"][(a, b)] = M.matrix[np.ix_(pos_scalar[a], pos_scalar[b])]
        blocks["from_spin2"][a] = (M.matrix[np.ix_(pos_scalar[a], pos1)]
                                   - 1j * M.matrix[np.ix_(pos_scalar[a], pos1 + 1)])
        blocks["to_spin2"][a] = (M.matrix[np.ix_(pos1, pos_scalar[a])]
                                 + 1j * M.matrix[np.ix_(pos1 + 1, pos_scalar[a])])
    A = M.matrix[np.ix_(pos1, pos1)]
    B = M.matrix[np.ix_(pos1, pos1 + 1)]
    C = M.matrix[np.ix_(pos1 + 1, pos1)]
    D = M.matrix[np.ix_(pos1 + 1, pos1 + 1)]
    blocks["iso"] = 0.5 * (A + D) + 0.5j * (C - B)
    blocks["conj"] = 0.5 * (A - D) + 0.5j * (C + B)
    return blocks


def _spin_parts_oracle(K):
    for a in (0, 3):
        for b in (0, 3):
            yield "scalar", (a, b), K[..., a, b], 0, 0, 1
        yield "to_spin2", a, K[..., 1, a] + 1j * K[..., 2, a], 2, 0, 1
        yield "from_spin2", a, K[..., a, 1] - 1j * K[..., a, 2], 0, 2, 1
    blk = K[..., 1:3, 1:3]
    yield "iso", None, (0.5 * (blk[..., 0, 0] + blk[..., 1, 1])
                        + 0.5j * (blk[..., 1, 0] - blk[..., 0, 1])), 2, 2, 1
    yield "conj", None, (0.5 * (blk[..., 0, 0] - blk[..., 1, 1])
                         + 0.5j * (blk[..., 1, 0] + blk[..., 0, 1])), 2, 2, -1


def _nest_oracle(flat):
    blocks = {}
    for (group, key), value in flat.items():
        if key is None:
            blocks[group] = value
        else:
            blocks.setdefault(group, {})[key] = value
    return blocks


class _PbrdfOracle(polar.SyntheticPbrdf):
    """SyntheticPbrdf with its hand-written K writes."""

    def __call__(self, w_i, w_o):
        w_i = np.asarray(w_i, dtype=float)
        w_o = np.asarray(w_o, dtype=float)
        ci, zi2 = self._side(w_i)
        co, zo2 = self._side(w_o)
        mirror = 2.0 * ci[..., None] * self.normal - w_i
        t = np.einsum("...i,...i->...", mirror, w_o)
        lobe = np.exp((t - 1.0) / self.roughness ** 2)
        if self.horizon_sharpness is not None:
            k = self.horizon_sharpness
            lobe = lobe / (1.0 + np.exp(-ci / k)) / (1.0 + np.exp(-co / k))
        lobe = lobe * ci
        rs, rp = polar._fresnel_rs_rp(0.5 * (1.0 + ci), self.ior)
        a = 0.5 * (rs ** 2 + rp ** 2) * lobe
        b = 0.5 * (rs ** 2 - rp ** 2) * lobe
        cc = rs * rp * lobe
        to_spin2 = b * zo2
        from_spin2 = b * zi2
        iso = 0.5 * (a + cc) * (zo2 * zi2.conj())
        conj = 0.5 * (a - cc) * (zo2 * zi2)
        K = np.zeros(lobe.shape + (4, 4))
        K[..., 0, 0] = a
        K[..., 3, 3] = cc
        K[..., 1, 0], K[..., 2, 0] = to_spin2.real, to_spin2.imag
        K[..., 0, 1], K[..., 0, 2] = from_spin2.real, from_spin2.imag
        K[..., 1, 1] = iso.real + conj.real
        K[..., 1, 2] = conj.imag - iso.imag
        K[..., 2, 1] = iso.imag + conj.imag
        K[..., 2, 2] = iso.real - conj.real
        return K


def _pointwise_product_oracle(l_max, bases, wv):
    br, b2, brT, b2H = bases
    lay = psh.psh_layout(l_max)
    n = psh.psh_size(l_max)
    scalar = np.stack([pos[:, None] * n + pos for pos in (lay.pos0, lay.pos3)])
    pair = np.stack([lay.pos1, lay.pos1 + 1], axis=-1)
    spin22 = pair[:, :, None, None] * n + pair
    out = np.zeros(n * n)
    out[scalar] = brT @ (wv[:, None] * br)
    C2 = b2H @ (wv[:, None] * b2)
    pair = np.empty(spin22.shape)
    pair[:, 0, :, 0] = pair[:, 1, :, 1] = C2.real
    pair[:, 1, :, 0] = C2.imag
    pair[:, 0, :, 1] = -C2.imag
    out[spin22] = pair
    return out.reshape(n, n)


_REAL = ((0, 1.0),)
_OUT = ((0, 1.0), (1, -1j))
_IN = ((0, 1.0), (1, 1j))
_IN_CONJ = ((0, 1.0), (1, -1j))


def _conv_tables_oracle(l_max):
    lay = psh.psh_layout(l_max)
    parts = []

    def add(fam, rows, row_slots, cols, col_slots, l, w):
        for (dr, a), (dc, b) in itertools.product(row_slots, col_slots):
            parts.append((rows + dr, cols + dc, np.full(l.size, fam), l, a * b * w))

    p0, p3 = lay.pos0, lay.pos3
    for fam, (rows, cols) in enumerate(((p0, p0), (p0, p3), (p3, p0), (p3, p3))):
        add(fam, rows, _REAL, cols, _REAL, lay.l, np.ones(lay.l.size))
    j = np.arange(lay.pos1.size)
    m2 = lay.m[4:]
    jo = np.concatenate([j, j[m2 != 0]])
    ji = np.concatenate([j, (j - 2 * m2)[m2 != 0]])
    l2, mo, mi = lay.l[4:][jo], m2[jo], m2[ji]
    u_from = np.conj(pconv._u_to(mi, mo))
    add(4, p0[jo + 4], _REAL, lay.pos1[ji], _IN, l2, u_from)
    add(5, p3[jo + 4], _REAL, lay.pos1[ji], _IN, l2, u_from)
    add(6, lay.pos1[jo], _OUT, p0[ji + 4], _REAL, l2, pconv._u_to(mo, mi))
    add(7, lay.pos1[jo], _OUT, p3[ji + 4], _REAL, l2, pconv._u_to(mo, mi))
    add(8, lay.pos1, _OUT, lay.pos1, _IN, lay.l[4:], np.ones(j.size))
    add(9, lay.pos1, _OUT, lay.pos1[j - 2 * m2], _IN_CONJ, lay.l[4:],
        np.where(m2 % 2, -1.0, 1.0))
    return pconv._ConvTable(*(np.concatenate(a) for a in zip(*parts)))


def _rotation_block_oracle(l, dc):
    dr = sh.wigner_d_real_from_complex(dc)
    n_p = 2 if l < 2 else 4
    out = np.zeros(dc.shape[:-2] + ((2 * l + 1) * n_p,) * 2)
    out[..., 0::n_p, 0::n_p] = out[..., n_p - 1::n_p, n_p - 1::n_p] = dr
    if l >= 2:
        out[..., 1::4, 1::4] = out[..., 2::4, 2::4] = dc.real
        out[..., 1::4, 2::4] = -dc.imag
        out[..., 2::4, 1::4] = dc.imag
    return out


# the benchmark's material
_MATERIAL = dict(roughness=0.5, ior=1.5, horizon_sharpness=0.15)


def _project_oracle(l_max, grid, monkeypatch, **material):
    monkeypatch.setattr(op, "_spin_parts", _spin_parts_oracle)
    oracle = _PbrdfOracle(**material)
    project = op._ring_blocks if oracle.azimuthal else op._dense_blocks
    flat = project(oracle, l_max, grid)
    monkeypatch.undo()
    return _assemble_oracle(l_max, _nest_oracle(flat))


def test_operator_project_matches_hand_written_bodies(monkeypatch):
    # the benchmark material at (9, grid 18) on its ring path, and tilted
    # onto the dense path
    grid = geom.gauss_legendre_grid(18)
    for material in (_MATERIAL, dict(_MATERIAL, normal=(0.3, 0.0, 1.0))):
        got = op.operator_project(polar.synthetic_pbrdf(**material), 9, grid).matrix
        assert np.array_equal(got, _project_oracle(9, grid, monkeypatch, **material))


def test_pbrdf_and_spin_parts_match_hand_written_bodies(rng):
    w_i = geom.normalize(rng.normal(size=(5, 1, 3)))
    w_o = geom.normalize(rng.normal(size=(7, 3)))
    for material in (_MATERIAL, dict(_MATERIAL, normal=(0.3, 0.0, 1.0))):
        got = polar.synthetic_pbrdf(**material)(w_i, w_o)
        assert np.array_equal(got, _PbrdfOracle(**material)(w_i, w_o))
    K = rng.normal(size=(3, 5, 4, 4))
    for got, want in itertools.zip_longest(op._spin_parts(K), _spin_parts_oracle(K)):
        assert got[:2] == want[:2] and got[3:] == want[3:]
        assert got[2].shape == want[2].shape and np.array_equal(got[2], want[2])


def test_split_and_shadow_expand_match_hand_written_bodies(rng):
    def c(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    # L = 0 and 1 have no run of four slots, L = 16 has many runs
    for L in (0, 1, 2, 5, 16):
        n, S, S2 = psh.psh_size(L), sh.sh_size(L), psh.spin2_size(L)
        B = {**{("scalar", (a, b)): rng.normal(size=(S, S)) for a in (0, 3) for b in (0, 3)},
             **{("to_spin2", a): c(S2, S) for a in (0, 3)},
             **{("from_spin2", a): c(S, S2) for a in (0, 3)},
             ("iso", None): c(S2, S2), ("conj", None): c(S2, S2)}
        assert np.array_equal(op.assemble_psh_matrix(L, B), _assemble_oracle(L, _nest_oracle(B)))
        M = op.PshCoeffMatrix(L, rng.normal(size=(n, n)))
        got, want = _nest_oracle(op.split_psh_matrix(M)), _split_oracle(M)
        for group in ("scalar", "to_spin2", "from_spin2"):
            assert got[group].keys() == want[group].keys()
            for key in want[group]:
                assert np.array_equal(got[group][key], want[group][key])
        for group in ("iso", "conj"):
            assert np.array_equal(got[group], want[group])
    occ = ((np.array([0.8, 0.15, 0.58]), 0.7), (np.array([-0.4, 0.7, -0.59]), 0.5))
    v = op.visibility_project(lambda d: op.visibility_from_spheres(occ, d), 18,
                              geom.gauss_legendre_grid(18))
    grid = geom.gauss_legendre_grid(9 + v.l_max // 2)
    vals = sh.ring_synthesis(sh.r2c_values(v.values), grid, 0).real
    th, ph = (a.ravel() for a in grid.angles())
    br, b2 = sh.sh_basis_real(9, th, ph), psh.s2sh_basis(9, th, ph)
    want = _pointwise_product_oracle(9, (br, b2, br.T, b2.conj().T),
                                     grid.weights().ravel() * vals.ravel())
    # the ring form sums in another order than this point quadrature
    assert np.abs(op.shadow_expand(v, 9).matrix - want).max() <= 1e-14


@pytest.mark.parametrize("L", [0, 1, 2, 9, 32])
def test_conv_tables_match_hand_written_body(L):
    got, want = pconv._conv_tables(L), _conv_tables_oracle(L)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_rotation_block_matches_hand_written_body(rng):
    Rs = np.array([geom.random_rotation(rng) for _ in range(4)])
    for l, dc in enumerate(sh.wigner_d_stack(6, Rs)):
        assert np.array_equal(psh.psh_rotation_block(l, None, dc=dc),
                              _rotation_block_oracle(l, dc))
