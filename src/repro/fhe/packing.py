"""Slot packing for the :mod:`repro.nn` layout.

CKKS programs live or die by their packing discipline: rotations only make
sense relative to how data was laid out in the slots.  The layout here is
the **lane frame**: ``lanes`` independent vectors (a minibatch of HELR
samples, the tokens of a BERT sequence, or the single lane of a CNN
image or a database column), each zero-padded into a power-of-two
``block``, concatenated into one frame that is tiled across the slots,
so a global rotation is a per-frame roll.  A single lane whose frame is
the whole vector is the tiled layout :func:`repro.fhe.linear.bsgs_matvec`
expects.

Capacity violations raise the typed :class:`SlotCapacityError` (a
``ValueError`` subclass) so callers — the :mod:`repro.nn` lowering pass
in particular — can distinguish "this layer does not fit the ring" from
generic misuse, instead of silently wrapping or truncating data.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class SlotCapacityError(ValueError):
    """A packed layout does not fit the available plaintext slots.

    Raised by :func:`pack_lanes` (and the :mod:`repro.nn` packing
    selection) whenever the requested width exceeds the slot count (the
    failure mode that would otherwise show up as silent wraparound of
    rotated data).  Carries the offending
    ``needed``/``available`` counts for diagnostics.
    """

    def __init__(self, message: str, *, needed: int = None,
                 available: int = None):
        super().__init__(message)
        self.needed = needed
        self.available = available


def pack_lanes(vectors: Sequence[Sequence[float]], block: int,
               slot_count: int) -> np.ndarray:
    """Pack ``lanes`` vectors into padded blocks and tile the frame.

    Each vector (length <= ``block``) occupies the leading slots of its
    lane; the concatenated frame must divide the slot count so rotations
    wrap frame-periodically.
    """
    vectors = [np.asarray(v) for v in vectors]
    if not vectors:
        raise ValueError("no lane vectors given")
    if block & (block - 1):
        raise ValueError(f"lane block {block} must be a power of two")
    widest = max(len(v) for v in vectors)
    if widest > block:
        raise SlotCapacityError(
            f"lane vector of width {widest} exceeds the lane block "
            f"{block}", needed=widest, available=block)
    frame = block * len(vectors)
    if frame > slot_count:
        raise SlotCapacityError(
            f"frame of {len(vectors)} x {block} lanes needs {frame} slots "
            f"but the ring provides {slot_count}",
            needed=frame, available=slot_count)
    if slot_count % frame:
        raise ValueError(f"frame {frame} must divide {slot_count} slots")
    out = np.zeros(frame)
    for lane, vec in enumerate(vectors):
        out[lane * block:lane * block + len(vec)] = vec
    return np.tile(out, slot_count // frame)


def unpack_lane(slots: np.ndarray, lane: int, block: int,
                width: int = None) -> np.ndarray:
    """Read one lane's (first ``width``) values back out of the frame."""
    width = block if width is None else width
    start = lane * block
    return np.asarray(slots)[start:start + width]
