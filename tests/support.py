"""Machinery the test modules share.

This module holds tools, not routes: the unit-vector table, the readers
of the elimination's rows and of the incidence plan's bits, the kernel's
tagged-row adapter and its call spy, source
mutants, cache clearing, check runs with a mutated catalog, seeded random
matrices and a wall-clock deadline.  The reference routes that the tests
compare the package against live in `refs.py`.  No test module imports
another test module; both of these are plain modules the tests import.
"""

import __future__
import inspect
import signal
import sys
import textwrap
from contextlib import contextmanager

import pytest

from segre_pg72.checks import REGISTRY, Result, Run
from segre_pg72.gf2 import Flat, GFMatrix, _echelon

E = [0] + [1 << i for i in range(8)]  # E[i] = e_i, 1-indexed

PACKAGE = "segre_pg72."


def mask_of(points) -> int:
    """The mask with bit p set for every p of points."""
    m = 0
    for p in points:
        m |= 1 << p
    return m


def mirror(v, width):
    """v with its lowest width bits in reverse order: bit i moves to width - 1 - i."""
    return int(f"{v:0{width}b}"[::-1], 2)


def echelon_rows(vectors, width: int) -> dict[int, int]:
    """gf2._echelon's rows as {pivot: row}, after checking the list's shape:
    one entry per pivot 0..width, each 0 or a row of that bit length."""
    rows = _echelon(vectors, width)
    assert len(rows) == width + 1
    assert all(r == 0 or r.bit_length() == p for p, r in enumerate(rows))
    return {p: r for p, r in enumerate(rows) if r}


def tagged(columns: dict[int, int], nvars: int) -> tuple[list[int], int, int]:
    """gf2._kernel's arguments for a {variable: column} system: each
    column above nvars tag bits plus its variable's tag, in the dict's
    order, then nvars and the width of the widest row."""
    width = nvars + max(columns.values(), default=0).bit_length()
    return [c << nvars | 1 << j for j, c in columns.items()], nvars, width


def untagged(rows, nvars: int) -> dict[int, int]:
    """The {variable: column} system of gf2._kernel's tagged rows, after
    checking that each row carries exactly one tag and no two the same."""
    columns = {}
    for r in rows:
        tag = r & (1 << nvars) - 1
        assert tag and tag & tag - 1 == 0, f"{tag:b}"
        assert tag.bit_length() - 1 not in columns
        columns[tag.bit_length() - 1] = r >> nvars
    return columns


def kernel_calls(fn, *args) -> list[tuple[list[int], int, int]]:
    """The (tagged rows, nvars, width) of each gf2._kernel call that
    fn(*args) makes, read by a spy in fn's own namespace."""
    namespace = fn.__globals__
    real = namespace["_kernel"]
    seen = []

    def spy(rows, nvars, width):
        seen.append((list(rows), nvars, width))
        return real(*seen[-1])

    namespace["_kernel"] = spy
    try:
        fn(*args)
    finally:
        namespace["_kernel"] = real
    return seen


def plan_flat(entry, bit: int) -> Flat:
    """The flat that bit `bit` of anf._even_bits names for one
    anf._quotient_plan entry, as that plan's docstring reads it: row 0 is
    perm[bit % quot], and each row of H is perm[step ^ the flip of each
    doubling whose shift is a bit of `bit`]."""
    perm, rows, quot, _, _ = entry
    others = []
    for step, _, doublings in rows:  # the highest pivot first
        for shift, flip, _ in doublings:
            if bit & shift:
                step ^= flip
        others.append(perm[step])
    return Flat._from_rref((perm[bit % quot], *reversed(others)))


def source_mutant(fn, *edits: tuple[str, str]):
    """fn recompiled in a copy of its module's namespace, with each edit's
    old text (found exactly once) replaced by its new text.  It compiles
    under `from __future__ import annotations`, as every package module
    does, so an annotation naming a type imported only for type checking
    is never evaluated."""
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(source, "<mutant>", "exec", __future__.annotations.compiler_flag), namespace)
    return namespace[fn.__name__]


def clear_caches() -> None:
    """Clear every functools.cache in the loaded package modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith(PACKAGE):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def check_with(builder, table: dict, name: str, value, cid: str) -> Result:
    """The result of the check cid with table[name] set to value.

    The cached builder that reads the table is rebuilt from the mutant,
    which it must return without raising.  Its cache is cleared before and
    after, and the entry is restored, so the mutant is seen by this call
    alone.
    """
    saved = table[name]
    builder.cache_clear()
    table[name] = value
    try:
        builder()
        return Run().check(REGISTRY[cid])
    finally:
        table[name] = saved
        builder.cache_clear()


def random_invertible(rng):
    """A seeded invertible matrix: random columns until one is invertible."""
    while True:
        mat = GFMatrix([rng.randrange(256) for _ in range(8)])
        if mat.is_invertible():
            return mat


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so no except Exception hides it."""


def _hang(signum, frame):
    raise Hang


@contextmanager
def deadline(seconds: int, what: str):
    """Fail the test if the block runs longer than seconds (a SIGALRM)."""
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(seconds)
    try:
        yield
    except Hang:
        pytest.fail(f"{what} did not return within {seconds} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
