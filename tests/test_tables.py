import dataclasses
import functools
import importlib
import pkgutil
from typing import NamedTuple

import numpy as np
import pytest

import polarsh
from polarsh import _tables


def _functools_caches():
    """(module, name, function) of every functools cache defined at the top
    level of a polarsh module."""
    for info in pkgutil.iter_modules(polarsh.__path__):
        module = importlib.import_module(f"polarsh.{info.name}")
        for name, f in vars(module).items():
            if (isinstance(f, functools._lru_cache_wrapper)
                    and getattr(f, "__module__", None) == module.__name__):
                yield module.__name__, name, f


def test_every_shared_table_cache_is_a_table_cache():
    # a table cache wraps the _tables builder that freezes each result
    found = {(module, name): f.__wrapped__.__code__.co_filename == _tables.__file__
             for module, name, f in _functools_caches()}
    exempt = {("polarsh.cli", "build_parser")}      # caches a parser, not a table
    assert exempt <= found.keys()
    assert {key for key, ok in found.items() if not ok} == exempt
    tables = {"geom": ["gauss_legendre", "_gauss_legendre_grid"],
              "shscalar": ["sh_lm_arrays", "_log_factorials", "_half_pi_factors",
                           "_theta_fourier_rows", "_ring_table", "wigner3j"],
              "psh": ["psh_layout"],
              "operators": ["_ring_gram_tables", "reflection_permutation_psh"],
              "pconv": ["_conv_tables", "_residual_labels"]}
    assert {(f"polarsh.{m}", name) for m, names in tables.items() for name in names} <= found.keys()


class _Pair(NamedTuple):
    a: np.ndarray
    b: tuple


@dataclasses.dataclass(frozen=True)
class _Box:
    n: int
    x: np.ndarray
    pair: _Pair


def test_table_cache_freezes_nested_arrays_once_per_key():
    builds = []

    @_tables.table_cache(maxsize=2)
    def build(n, *, scale=1.0):
        builds.append(n)
        pair = _Pair(np.arange(n) * scale, (np.ones(n), 3.0))
        return np.zeros(n), (np.ones(n), pair), _Box(n, np.full(n, scale), pair)

    first = build(3, scale=2.0)
    assert build(3, scale=2.0) is first and builds == [3]
    flat, (ones, pair), box = first
    arrays = [flat, ones, pair.a, pair.b[0], box.x, box.pair.a]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert box.x.tolist() == [2.0, 2.0, 2.0] and pair.a.tolist() == [0.0, 2.0, 4.0]
    build(4)
    build(5)            # evicts (3, scale=2.0): the entry bound holds
    assert build(3, scale=2.0) is not first and builds == [3, 4, 5, 3]
    assert build.cache_info().maxsize == 2 and build.__name__ == "build"


def test_read_only_passes_other_values_through():
    assert _tables.read_only(2.5) == 2.5
    assert _tables.read_only(None) is None
    x = [np.zeros(2)]
    assert _tables.read_only(x) is x and x[0].flags.writeable      # a list is no table
