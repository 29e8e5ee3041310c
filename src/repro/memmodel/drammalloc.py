"""DRAMmalloc: the shared global memory manager (paper §2.4).

``DRAMmalloc(size, first_node, nr_nodes, block_size)`` returns a region of
contiguous virtual address space laid out block-cyclically across the
distributed node memories, encoded as a single hardware translation
descriptor.  Changing *one number* in the call changes the physical layout
(the Figure 12 experiment does exactly this).

In this functional simulation each region is backed by a NumPy array of
64-bit *words* (all of the paper's data structures are 8-byte fields):
``int64``, ``uint64`` or ``float64``.
The data lives host-side; the descriptor only decides **which node's memory
channel pays** for each access — that is what produces placement-dependent
performance.
"""

from __future__ import annotations

import bisect
import functools
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.machine.config import MachineConfig

from .translation import SwizzleDescriptor

WORD_BYTES = 8

#: ``struct`` format of ``%d`` words, by the ``dtype.str`` of each
#: 8-byte word a region may hold, in either byte order.
_WORD_FORMATS = {
    f"{order}{kind}8": f"{order}%d{code}"
    for order in "<>"
    for kind, code in (("i", "q"), ("u", "Q"), ("f", "d"))
}


@functools.lru_cache(maxsize=None)
def _unpacker(word_format: str, nwords: int):
    """``unpack(buffer, offset)`` → the ``nwords`` words at byte
    ``offset`` of a copy of a region's data, as the Python ints or
    floats ``ndarray.tolist()`` gives."""
    return struct.Struct(word_format % nwords).unpack_from


class MemoryError_(RuntimeError):
    """Allocation / access failure in the global memory manager."""


class Region:
    """One ``DRAMmalloc`` allocation: a descriptor plus backing words."""

    def __init__(
        self,
        descriptor: SwizzleDescriptor,
        dtype: np.dtype,
        name: str,
    ) -> None:
        self.descriptor = descriptor
        self.name = name
        self.dtype = np.dtype(dtype)
        self.word_format = _WORD_FORMATS.get(self.dtype.str)
        if self.word_format is None:
            raise MemoryError_(
                f"region {name!r}: DRAM words are int64, uint64 or float64, "
                f"not {self.dtype}"
            )
        self.freed = False
        # Address arithmetic, fixed at allocation: every DRAM transaction
        # reads these.  Block size and node count are powers of two (the
        # descriptor checks), so translation is shifts and masks.
        self.base = descriptor.base_va
        self.size = descriptor.size
        self.end = self.base + self.size
        self.nwords = self.size // WORD_BYTES
        self.first_node = descriptor.first_node
        self.machine_nodes = descriptor.machine_nodes
        self.block_shift = descriptor.block_size.bit_length() - 1
        self.block_mask = descriptor.block_size - 1
        self.node_shift = descriptor.nr_nodes.bit_length() - 1
        self.node_mask = descriptor.nr_nodes - 1
        self.data = np.zeros(self.nwords, dtype=self.dtype)

    # -- address arithmetic -------------------------------------------------

    def addr(self, word_index: int) -> int:
        """Byte VA of word ``word_index`` (what you pass to DRAM intrinsics)."""
        if not (0 <= word_index < self.nwords):
            raise MemoryError_(
                f"word index {word_index} out of range for region {self.name!r}"
            )
        return self.base + word_index * WORD_BYTES

    def index_of(self, va: int) -> int:
        """Word index of byte VA ``va`` within this region."""
        off = va - self.base
        if off < 0 or off >= self.size or off % WORD_BYTES:
            raise MemoryError_(
                f"VA {va:#x} is not a word address in region {self.name!r}"
            )
        return off // WORD_BYTES

    # -- host-side (zero-cost) access for setup & verification --------------

    def __getitem__(self, idx):
        self._check_live()
        return self.data[idx]

    def __setitem__(self, idx, value) -> None:
        self._check_live()
        self.data[idx] = value

    def _check_live(self) -> None:
        if self.freed:
            raise MemoryError_(f"use after free of region {self.name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.descriptor
        return (
            f"<Region {self.name!r} base={self.base:#x} size={self.size} "
            f"nodes={d.first_node}+{d.nr_nodes} bs={d.block_size}>"
        )


class GlobalMemory:
    """The machine's global address space: allocator + translation + data."""

    #: Allocations start above zero so a zero VA is always invalid (null).
    _BASE_VA = 1 << 20

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self._next_va = self._BASE_VA
        self._bases: List[int] = []
        self._regions: List[Region] = []
        self._by_name: Dict[str, Region] = {}
        #: the region the last lookup hit (programs hold 2-4 descriptors
        #: and read them in runs); :meth:`free` clears it.
        self._last_hit: Optional[Region] = None

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def dram_malloc(
        self,
        size: int,
        first_node: int = 0,
        nr_nodes: Optional[int] = None,
        block_size: int = 4096,
        dtype=np.int64,
        name: Optional[str] = None,
    ) -> Region:
        """``DRAMmalloc(size, 1stNode, NRNodes, BS)`` (paper §2.4).

        ``nr_nodes`` defaults to the largest power of two not exceeding the
        machine's node count.  ``size`` is rounded up to a whole number of
        words.
        """
        if size <= 0:
            raise MemoryError_("allocation size must be positive")
        if nr_nodes is None:
            nr_nodes = 1 << (self.config.nodes.bit_length() - 1)
        size = -(-size // WORD_BYTES) * WORD_BYTES
        base = _align_up(self._next_va, block_size)
        descriptor = SwizzleDescriptor(
            base_va=base,
            size=size,
            first_node=first_node,
            nr_nodes=nr_nodes,
            block_size=block_size,
            machine_nodes=self.config.nodes,
            min_block_size=self.config.min_dram_block_bytes,
        )
        if name is None:
            name = f"region{len(self._regions)}"
        if name in self._by_name:
            raise MemoryError_(f"region name {name!r} already in use")
        region = Region(descriptor, dtype, name)
        self._next_va = base + size
        idx = bisect.bisect_right(self._bases, base)
        self._bases.insert(idx, base)
        self._regions.insert(idx, region)
        self._by_name[name] = region
        return region

    def free(self, region: Region) -> None:
        """Release a region.  The VA range is retired, never reused, so
        dangling pointers fault deterministically."""
        region.freed = True
        region.nwords = 0
        region.data = np.zeros(0, dtype=region.dtype)
        self._last_hit = None

    # ------------------------------------------------------------------
    # Lookup & translation
    # ------------------------------------------------------------------

    def region_of(self, va: int) -> Region:
        # Descriptor.contains and Region._check_live are open-coded:
        # every DRAM transaction funnels through here, and the two
        # guard calls cost more than the comparisons they wrap.
        region = self._last_hit
        if region is not None and region.base <= va < region.end:
            return region
        idx = bisect.bisect_right(self._bases, va) - 1
        if idx >= 0:
            region = self._regions[idx]
            if region.base <= va < region.end:
                if region.freed:
                    raise MemoryError_(
                        f"use after free of region {region.name!r}"
                    )
                self._last_hit = region
                return region
        raise MemoryError_(f"VA {va:#x} is unmapped")

    def region_named(self, name: str) -> Region:
        try:
            return self._by_name[name]
        except KeyError:
            raise MemoryError_(f"no region named {name!r}") from None

    def translate(self, va: int) -> Tuple[int, int]:
        """VA -> (physical node, node-local offset) via the descriptor."""
        return self.region_of(va).descriptor.translate(va)

    def node_of(self, va: int) -> int:
        return self.translate(va)[0]

    @property
    def num_descriptors(self) -> int:
        """Live translation descriptors (paper: 2-4 for typical programs)."""
        return sum(1 for r in self._regions if not r.freed)

    # ------------------------------------------------------------------
    # Word access (functional payload; timing handled by the simulator)
    # ------------------------------------------------------------------

    def read_words(self, va: int, nwords: int) -> tuple:
        """Read ``nwords`` consecutive words starting at byte VA ``va``.

        The whole access must fall inside one region (hardware requests do
        not straddle descriptors).
        """
        region = self.region_of(va)
        start = region.index_of(va)
        if start + nwords > region.nwords:
            raise MemoryError_(
                f"read of {nwords} words at {va:#x} overruns region "
                f"{region.name!r}"
            )
        return tuple(region.data[start : start + nwords].tolist())

    def read_words_translated(
        self, va: int, nwords: int
    ) -> Tuple[int, int, tuple]:
        """Fused ``translate`` + ``read_words`` for ``nwords`` >= 1 words:
        :meth:`read_chunks_translated`'s one-chunk case, decoded.

        Returns ``(memory_node, node_local_offset, values)``.
        """
        data, chunks = self.read_chunks_translated(va, nwords, nwords)
        node, local_offset, _n, unpack = chunks[0]
        return node, local_offset, unpack(data, 0)

    def read_chunks_translated(
        self, va: int, nwords: int, width: int
    ) -> Tuple[bytes, list]:
        """Fused ``translate`` + ``read_words``: ``nwords`` words at
        ``va`` as consecutive ``width``-word chunks.

        Returns ``(data, chunks)``.  ``data`` is a copy of the words,
        taken now, as bytes.  Chunk *j* covers the ``n`` words from
        ``width * j`` on and is ``(memory_node, node_local_offset, n,
        unpack)``, placed by its own first word — a chunk that straddles
        a swizzle block goes whole to one node — with
        ``unpack(data, 8 * width * j)`` decoding its words.  Every
        split-phase DRAM read needs both the
        placement and the payload, and the region lookup (bisect +
        bounds guard) costs as much as either, so one lookup, one
        alignment and overrun check and one copy serve the whole list;
        an overrun raises before any chunk is returned.  The translation
        is ``SwizzleDescriptor.translate`` in shifts and masks.
        """
        region = self.region_of(va)
        off = va - region.base
        if off % WORD_BYTES:
            raise MemoryError_(
                f"VA {va:#x} is not a word address in region {region.name!r}"
            )
        start = off // WORD_BYTES
        if start + nwords > region.nwords:
            raise MemoryError_(
                f"read of {nwords} words at {va:#x} overruns region "
                f"{region.name!r}"
            )
        data = region.data[start : start + nwords].tobytes()
        shift = region.block_shift
        node_mask = region.node_mask
        node_shift = region.node_shift
        block_mask = region.block_mask
        first_node = region.first_node
        machine_nodes = region.machine_nodes
        word_format = region.word_format
        full = _unpacker(word_format, width)
        chunks = []
        for i in range(0, nwords, width):
            o = off + i * WORD_BYTES
            block = o >> shift
            n = nwords - i
            if n >= width:
                n, unpack = width, full
            else:
                unpack = _unpacker(word_format, n)
            chunks.append((
                (first_node + (block & node_mask)) % machine_nodes,
                ((block >> node_shift) << shift) + (o & block_mask),
                n,
                unpack,
            ))
        return data, chunks

    def write_words_translated(self, va: int, values) -> Tuple[int, int]:
        """Fused ``translate`` + ``write_words`` (see read_words_translated)."""
        region = self.region_of(va)
        start = region.index_of(va)
        n = len(values)
        if start + n > region.nwords:
            raise MemoryError_(
                f"write of {n} words at {va:#x} overruns region {region.name!r}"
            )
        region.data[start : start + n] = values
        return region.descriptor.translate(va)

    def write_words(self, va: int, values) -> None:
        region = self.region_of(va)
        start = region.index_of(va)
        n = len(values)
        if start + n > region.nwords:
            raise MemoryError_(
                f"write of {n} words at {va:#x} overruns region {region.name!r}"
            )
        region.data[start : start + n] = values


def _align_up(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment
