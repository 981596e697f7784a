"""Read-only sequence views over column-stored IRs.

The limb IR keeps one list per field and the ISA streams one typed numpy
array per field, instead of one object per op (docs/compiler.md, sections
6-7).  :class:`ColumnView` is the list-like face both present to code
that wants values: ``len``, iteration, ``view[i]``, ``view[a:b]``,
``==``, ``index``/``count``/``in``.  :class:`CodeNames`,
:class:`OptionalIds` and :class:`Rows` are the faces of the typed
columns; they yield plain Python ``str`` / ``int`` / ``None`` /
tuple-of-``int`` values, never numpy scalars, whose ``repr`` differs
(``np.int32(5)``) and which ``json`` refuses — repr-based stream digests
and the JSON artifact digest read these values.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Tuple

import numpy as np


class ColumnView(Sequence):
    """Subclasses provide ``__len__`` and ``_at(index)`` (``0 <= index``
    ``< len``), which builds the value at one position."""

    __slots__ = ()

    def _at(self, index: int):
        raise NotImplementedError

    def __getitem__(self, index):
        positions = range(len(self))[index]  # bounds, negatives, slices
        if isinstance(index, slice):
            return [self._at(i) for i in positions]
        return self._at(positions)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None


class CodeNames(ColumnView):
    """An int code column read as names: position ``i`` is
    ``names[codes[i]]``."""

    __slots__ = ("_codes", "_names")

    def __init__(self, codes: np.ndarray, names: Tuple[str, ...]):
        self._codes = codes
        self._names = names

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        return map(self._names.__getitem__, self._codes.tolist())

    def _at(self, index: int) -> str:
        return self._names[int(self._codes[index])]

    def count(self, name) -> int:
        if name not in self._names:
            return 0
        return int(np.count_nonzero(self._codes == self._names.index(name)))


class OptionalIds(ColumnView):
    """An int column in which -1 means None."""

    __slots__ = ("_ids",)

    def __init__(self, ids: np.ndarray):
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self):
        return iter([None if v < 0 else v for v in self._ids.tolist()])

    def _at(self, index: int):
        value = int(self._ids[index])
        return None if value < 0 else value


class Rows(ColumnView):
    """A CSR column read as tuples: row ``i`` is
    ``tuple(flat[start[i]:start[i + 1]])``."""

    __slots__ = ("_start", "_flat")

    def __init__(self, start: np.ndarray, flat: np.ndarray):
        self._start = start
        self._flat = flat

    def __len__(self) -> int:
        return len(self._start) - 1

    def __iter__(self):
        flat, bounds = self._flat.tolist(), self._start.tolist()
        return map(tuple, map(flat.__getitem__,
                              map(slice, bounds, bounds[1:])))

    def _at(self, index: int) -> tuple:
        return tuple(self._flat[
            self._start[index]:self._start[index + 1]].tolist())


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    return (np.repeat(starts - (ends - lengths), lengths)
            + np.arange(ends[-1] if len(ends) else 0))


def row_starts(counts: np.ndarray) -> np.ndarray:
    """The int64 CSR ``start`` column (one longer) of rows of ``counts``."""
    start = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    return start


def splice_positions(count: int, before: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Where ``count`` rows and the rows inserted among them land: row
    ``j`` of the inserted goes just before old row ``before[j]``
    (``before`` ascending; equal entries keep their order).  Returns
    ``(old_at, inserted_at)``, each row's position in the spliced
    column."""
    before = np.asarray(before, dtype=np.int64)
    old_at = np.cumsum(np.bincount(before, minlength=count + 1)[:count])
    old_at += np.arange(count, dtype=np.int64)
    return old_at, before + np.arange(len(before), dtype=np.int64)
