"""Bitmask helpers for index subsets.

A subset of hypotheses {0..m-1} is packed into an int: bit j set means
hypothesis j belongs to the set. Enumeration in increasing mask order is
the canonical ordering used by every report in the package.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from numbers import Integral

import numpy as np

from .exceptions import InputError

MAX_HYPOTHESES = 20


def check_m(m: int) -> int:
    m = int(m)
    if not 1 <= m <= MAX_HYPOTHESES:
        raise InputError(f"number of hypotheses must be in 1..{MAX_HYPOTHESES}, got {m}")
    return m


def as_indices(indices: Iterable[int]) -> tuple[int, ...]:
    """The members of an index iterable as Python ints. Python and NumPy
    integers pass; a bool, a float or a value that is not iterable, as
    the iterable or as a member, is an InputError."""
    try:
        out = tuple(indices)
    except TypeError:
        raise InputError(f"a subset must be an iterable of indices, got {indices!r}") from None
    for i in out:
        # a plain int passes at once; bool is a subclass of int, not an index
        if type(i) is not int and (not isinstance(i, Integral) or isinstance(i, bool)):
            raise InputError(f"hypothesis indices must be integers, got {i!r}")
    return tuple(map(int, out))


def mask_of(indices: Iterable[int], m: int) -> int:
    """Pack 0-based indices into a bitmask, rejecting duplicates."""
    mask = 0
    for i in as_indices(indices):
        if not 0 <= i < m:
            raise InputError(f"hypothesis index {i} out of range for m={m}")
        bit = 1 << i
        if mask & bit:
            raise InputError(f"duplicate hypothesis index {i}")
        mask |= bit
    return mask


def members(mask: int) -> tuple[int, ...]:
    """0-based indices in ascending order."""
    out = []
    j = 0
    rest = mask
    while rest:
        if rest & 1:
            out.append(j)
        rest >>= 1
        j += 1
    return tuple(out)


def iter_masks(m: int) -> Iterator[int]:
    """All nonempty subsets of {0..m-1} in canonical order."""
    return iter(range(1, 1 << m))


def member_table(m: int, masks: np.ndarray | None = None) -> np.ndarray:
    """(n, m) bools: row i holds, at column j, whether j is a member of
    masks[i]; by default every mask 0 .. 2^m - 1, so row 0 is the empty set."""
    masks = np.arange(1 << m, dtype="<u4") if masks is None else masks
    packed = np.ascontiguousarray(masks, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(packed, axis=1, count=m, bitorder="little").view(bool)


def _member_sums(full: np.ndarray, inside: np.ndarray | None = None) -> np.ndarray:
    """Per row of a weight array, the float w.sum() gives on its member
    vector, the entries where ``inside`` is set (by default each row of a
    (2^m, m) array is a subset's row of ``member_table``): the rows of k
    members are summed as one C-contiguous (n, k) array, whose row sums
    NumPy takes as it takes a 1-D sum; 0.0 for a row with none."""
    if inside is None:
        inside = member_table(full.shape[1])
    sizes = inside.sum(axis=1)
    total = np.zeros(len(full))
    for k in range(1, full.shape[1] + 1):
        pick = np.flatnonzero(sizes == k)
        total[pick] = full[pick][inside[pick]].reshape(-1, k).sum(axis=1)
    return total
