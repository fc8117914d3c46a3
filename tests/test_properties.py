"""Seeded property tests (hypothesis, derandomized)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from polarsh import geom, pconv
from polarsh import shscalar as sh

REAL_FAMILIES = ("k00", "k03", "k30", "k33")
COMPLEX_FAMILIES = ("k0p", "k3p", "kp0", "kp3", "kiso", "kconj")


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(L=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_conv_project_inverts_conv_expand(L, seed):
    rng = np.random.default_rng(seed)
    kc = pconv.PolarConvKernelCoeffs.zeros(L)
    for name in REAL_FAMILIES:
        getattr(kc, name)[:] = rng.normal(size=L + 1)
    for name in COMPLEX_FAMILIES:
        getattr(kc, name)[2:] = rng.normal(size=L - 1) + 1j * rng.normal(size=L - 1)
    kc2, rms, _ = pconv.conv_project_operator(pconv.conv_expand_to_matrix(kc, L))
    assert rms < 1e-12
    for name in REAL_FAMILIES + COMPLEX_FAMILIES:
        assert np.abs(getattr(kc2, name) - getattr(kc, name)).max() < 1e-12, name


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(l_max=st.integers(0, 32), seed=st.integers(0, 2 ** 32 - 1))
def test_wigner_d_composition(l_max, seed):
    rng = np.random.default_rng(seed)
    R1, R2 = geom.random_rotation(rng), geom.random_rotation(rng)
    pairs = zip(sh.wigner_d_stack(l_max, R1), sh.wigner_d_stack(l_max, R2),
                sh.wigner_d_stack(l_max, R1 @ R2))
    for l, (D1, D2, D12) in enumerate(pairs):
        assert np.abs(D1 @ D2 - D12).max() < 1e-12, l
