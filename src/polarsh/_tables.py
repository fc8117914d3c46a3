"""Shared precomputed tables: cached per key with a per-table entry bound, read-only."""

import dataclasses
import functools

import numpy as np


def read_only(value):
    """value, with every ndarray in it, in tuples and dataclass fields too, made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple) or dataclasses.is_dataclass(value):
        for item in value if isinstance(value, tuple) else vars(value).values():
            read_only(item)
    return value


def table_cache(maxsize):
    """functools.lru_cache(maxsize) over a table builder whose result is made
    read_only once, on a miss; a hit runs no Python code of its own."""
    def decorate(build):
        return functools.lru_cache(maxsize)(
            functools.wraps(build)(lambda *args, **kwargs: read_only(build(*args, **kwargs))))
    return decorate
