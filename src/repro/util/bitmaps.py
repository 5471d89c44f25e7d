"""Sharing-bitmap helpers, scalar and width-parametric.

A *sharing bitmap* is the paper's fundamental datum: one bit per node, set
when that node is (or is predicted to be) a reader of a cache block.  We
represent bitmaps as plain Python ints (and ``numpy`` unsigned arrays in the
vectorized evaluator), with bit *i* standing for node *i*.

The module has two layers:

* the original scalar helpers (:func:`bitmap_mask`, :func:`popcount`, ...)
  operate on Python ints of any width;
* :class:`BitmapLayout` decides how a *column* of per-event bitmaps is
  stored as numpy arrays for one machine width, and defines every array
  operation (popcount, mask, writer bit, overlap, union/select) exactly
  once.  Machines of up to 32 nodes keep the historical 1-D ``uint32``
  representation (bit-identical with the pre-layout code, which is what the
  golden fixtures pin), 33-64 nodes use 1-D ``uint64``, and wider machines
  pack each bitmap into a 2-D ``(events, n_words)`` row of 64-bit words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Union

import numpy as np

def bitmap_mask(num_nodes: int) -> int:
    """Return the bitmap with the low ``num_nodes`` bits set.

    >>> bin(bitmap_mask(4))
    '0b1111'
    """
    if num_nodes < 0:
        raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
    return (1 << num_nodes) - 1


def bitmap_from_nodes(nodes: Iterable[int]) -> int:
    """Build a bitmap from an iterable of node ids.

    >>> bin(bitmap_from_nodes([0, 3]))
    '0b1001'
    """
    bitmap = 0
    for node in nodes:
        if node < 0:
            raise ValueError(f"node ids must be non-negative, got {node}")
        bitmap |= 1 << node
    return bitmap


def iter_set_bits(bitmap: int) -> Iterator[int]:
    """Yield the node ids whose bits are set, in increasing order.

    >>> list(iter_set_bits(0b1001))
    [0, 3]
    """
    if bitmap < 0:
        raise ValueError(f"bitmap must be non-negative, got {bitmap}")
    position = 0
    while bitmap:
        if bitmap & 1:
            yield position
        bitmap >>= 1
        position += 1


def popcount(bitmap: int) -> int:
    """Count set bits in a non-negative int bitmap.

    >>> popcount(0b1011)
    3
    """
    if bitmap < 0:
        raise ValueError(f"bitmap must be non-negative, got {bitmap}")
    return bin(bitmap).count("1")


def format_bitmap(bitmap: int, num_nodes: int) -> str:
    """Render a bitmap as a fixed-width string, node 0 leftmost.

    This matches the way the paper draws sharing bitmaps (one column per
    node), which makes traces and test failures easy to eyeball.

    >>> format_bitmap(0b101, 4)
    '1010'
    """
    bits: List[str] = []
    for node in range(num_nodes):
        bits.append("1" if bitmap & (1 << node) else "0")
    return "".join(bits)


# ----------------------------------------------------------------------
# Width-parametric array layouts
# ----------------------------------------------------------------------

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


class BitmapLayout:
    """How a column of per-event sharing bitmaps is stored at one width.

    ``num_nodes <= 32``: 1-D ``uint32`` (the historical layout -- every
    operation on this path is expression-identical to the pre-layout code,
    so the 16-node golden fixtures cannot move).  ``num_nodes <= 64``:
    1-D ``uint64``.  Above that, ``packed`` is true and a column is a 2-D
    ``(events, n_words)`` array of ``uint64`` words, word *w* of an event
    holding nodes ``[64w, 64w+64)``.

    All consumers (trace container, vectorized evaluator, sweep planner,
    stats, forwarding simulator) go through these methods, so the packing
    scheme is defined in exactly one place.
    """

    __slots__ = ("num_nodes", "n_words", "packed", "dtype", "word_bits")

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        if num_nodes <= 32:
            self.dtype = np.uint32
            self.word_bits = 32
            self.n_words = 1
            self.packed = False
        elif num_nodes <= _WORD_BITS:
            self.dtype = np.uint64
            self.word_bits = _WORD_BITS
            self.n_words = 1
            self.packed = False
        else:
            self.dtype = np.uint64
            self.word_bits = _WORD_BITS
            self.n_words = (num_nodes + _WORD_BITS - 1) // _WORD_BITS
            self.packed = True

    def __repr__(self) -> str:
        kind = "packed" if self.packed else np.dtype(self.dtype).name
        return f"BitmapLayout(num_nodes={self.num_nodes}, {kind}x{self.n_words})"

    # -- construction ---------------------------------------------------

    def zeros(self, length: int) -> np.ndarray:
        """An all-zero bitmap column of ``length`` events."""
        if self.packed:
            return np.zeros((length, self.n_words), dtype=self.dtype)
        return np.zeros(length, dtype=self.dtype)

    def gather_zeros(self, window: int, length: int) -> np.ndarray:
        """The zero-filled history gather for a shared bitmap pass."""
        if self.packed:
            return np.zeros((window, length, self.n_words), dtype=self.dtype)
        return np.zeros((window, length), dtype=self.dtype)

    def full(self, length: int) -> np.ndarray:
        """A column of ``length`` all-nodes-set bitmaps."""
        if self.packed:
            return np.broadcast_to(self.mask_words, (length, self.n_words)).copy()
        return np.full(length, self.mask_value, dtype=self.dtype)

    @property
    def mask_value(self):
        """The low-``num_nodes`` mask as a numpy scalar (scalar layouts)."""
        if self.packed:
            raise ValueError("packed layouts have per-word masks; use mask_words")
        return self.dtype(bitmap_mask(self.num_nodes))

    @property
    def mask_words(self) -> np.ndarray:
        """The low-``num_nodes`` mask as an ``(n_words,)`` word row."""
        mask = bitmap_mask(self.num_nodes)
        return np.array(
            [(mask >> (_WORD_BITS * w)) & _WORD_MASK for w in range(self.n_words)],
            dtype=np.uint64,
        )

    @property
    def mask(self):
        """The full-machine mask, broadcastable against a bitmap column."""
        return self.mask_words if self.packed else self.mask_value

    def pack(self, bitmaps: Sequence[int]) -> np.ndarray:
        """Pack a sequence of Python-int bitmaps into a column array."""
        values = list(bitmaps)
        if not self.packed:
            return np.asarray(values, dtype=self.dtype)
        out = np.zeros((len(values), self.n_words), dtype=self.dtype)
        for index, bitmap in enumerate(values):
            value = int(bitmap)
            for word in range(self.n_words):
                out[index, word] = (value >> (_WORD_BITS * word)) & _WORD_MASK
        return out

    def asarray(self, data: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
        """Canonicalize ``data`` into this layout's column representation.

        Same-dtype arrays pass through without a copy (the shared-memory
        transport relies on that for its zero-copy views).
        """
        if not self.packed:
            return np.asarray(data, dtype=self.dtype)
        if isinstance(data, np.ndarray) and data.ndim == 2:
            array = np.asarray(data, dtype=self.dtype)
            if array.shape[1] != self.n_words:
                raise ValueError(
                    f"packed bitmap column has {array.shape[1]} words, "
                    f"expected {self.n_words}"
                )
            return array
        return self.pack(list(data))

    # -- conversion back to Python ints ---------------------------------

    def to_int(self, row) -> int:
        """One event's bitmap (a scalar or word row) as a Python int."""
        if not self.packed:
            return int(row)
        value = 0
        for word, bits in enumerate(np.asarray(row).tolist()):
            value |= int(bits) << (_WORD_BITS * word)
        return value

    def to_int_list(self, column: np.ndarray) -> List[int]:
        """A whole column as Python ints (the sequential evaluators' view)."""
        if not self.packed:
            return column.tolist()
        return [self.to_int(row) for row in column]

    def from_int_iter(self, values: Iterable[int], count: int) -> np.ndarray:
        """Build a column from an iterator of Python-int bitmaps."""
        if not self.packed:
            return np.fromiter(values, dtype=self.dtype, count=count)
        return self.pack(list(values))

    # -- per-event operations -------------------------------------------

    def writer_bits(self, writers: np.ndarray) -> np.ndarray:
        """A column with only each event's writer bit set."""
        if not self.packed:
            return (self.dtype(1) << writers.astype(self.dtype)).astype(self.dtype)
        length = len(writers)
        out = np.zeros((length, self.n_words), dtype=self.dtype)
        word = writers // _WORD_BITS
        bit = (writers % _WORD_BITS).astype(np.uint64)
        out[np.arange(length), word] = np.uint64(1) << bit
        return out

    def test_bit(self, column: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Whether each event's bitmap has its per-event ``nodes`` bit set."""
        if not self.packed:
            return (column >> nodes.astype(self.dtype)) & 1
        word = nodes // _WORD_BITS
        bit = (nodes % _WORD_BITS).astype(np.uint64)
        rows = column[np.arange(len(nodes)), word]
        return (rows >> bit) & np.uint64(1)

    def any_set(self, column: np.ndarray) -> np.ndarray:
        """Per-event boolean: is any bit of the bitmap set?"""
        if not self.packed:
            return column != 0
        return (column != 0).any(axis=-1)

    def popcount(self, column: np.ndarray) -> np.ndarray:
        """Per-event set-bit counts, as ``int64`` (``np.bitwise_count``;
        packed layouts sum their word rows)."""
        counts = np.bitwise_count(column).astype(np.int64)
        if self.packed:
            return counts.sum(axis=-1)
        return counts

    def select(
        self, condition: np.ndarray, when_true: np.ndarray, when_false: np.ndarray
    ) -> np.ndarray:
        """Per-event ``np.where`` that broadcasts over packed word rows."""
        if self.packed:
            condition = condition[:, None]
        return np.where(condition, when_true, when_false).astype(self.dtype)

    def has_excess_bits(self, column: np.ndarray) -> bool:
        """True when any event carries bits beyond ``num_nodes``."""
        if len(column) == 0:
            return False
        return bool((column & ~self.mask).any())


@lru_cache(maxsize=None)
def bitmap_layout(num_nodes: int) -> BitmapLayout:
    """The (cached) :class:`BitmapLayout` for one machine width."""
    return BitmapLayout(num_nodes)
