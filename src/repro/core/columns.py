"""Read-only sequence views over column-stored IRs.

The limb IR and the ISA streams keep one list per field instead of one
object per op (docs/compiler.md, sections 6-7).  :class:`ColumnView` is
the list-like face both present to code that wants values: ``len``,
iteration, ``view[i]``, ``view[a:b]``, ``==``, ``index``/``count``/``in``.
"""

from __future__ import annotations

from collections.abc import Sequence


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
