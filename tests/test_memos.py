"""Every memo in src/ is an lru_cache with a stated bound, and it keeps what
it is asked for: after cache_clear the first call misses and a repeat hits."""
import functools
import importlib
import pkgutil

import pytest

import bdstirling

MODULES = sorted(
    f"bdstirling.{info.name}" for info in pkgutil.iter_modules(bdstirling.__path__)
    if info.name != "__main__"
)
# Every lru_cache defined in a module of the package, by qualified name.
MEMOS = {
    f"{module}.{name}": obj
    for module in MODULES
    for name, obj in vars(importlib.import_module(module)).items()
    if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module
}
# One call per memo, repeated by the test below.
CALLS = {
    "bdstirling.bijections._cut": ((1, -2, 3), frozenset({1})),
    "bdstirling.geometry._reading": (2, 1),
    "bdstirling.groups._signed_descents": ((-2, -1, 3), "D"),
    "bdstirling.groups._spots": (3,),
    "bdstirling.identities._descent_histogram": ("B", 3, 2),
    "bdstirling.identities._standard_tally": (4,),
    "bdstirling.partitions._triangle": (2, 1),
}


def test_every_memo_has_a_call():
    assert sorted(MEMOS) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_memo_is_bounded_and_keeps_a_repeated_call(name):
    memo = MEMOS[name]
    maxsize = memo.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0, f"{name} has maxsize {maxsize}"
    memo.cache_clear()
    first = memo(*CALLS[name])
    assert memo.cache_info()[:2] == (0, 1)  # hits, misses
    assert memo(*CALLS[name]) is first
    assert memo.cache_info()[:2] == (1, 1)
