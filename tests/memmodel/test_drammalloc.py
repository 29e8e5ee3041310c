"""GlobalMemory: allocation, lookup, word access, free semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import bench_machine
from repro.memmodel import GlobalMemory, MemoryError_


@pytest.fixture
def gm():
    return GlobalMemory(bench_machine(nodes=4))


class TestAllocation:
    def test_regions_never_overlap(self, gm):
        regions = [gm.dram_malloc(1000 * 8) for _ in range(10)]
        spans = sorted((r.base, r.base + r.size) for r in regions)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_zero_va_is_never_mapped(self, gm):
        gm.dram_malloc(4096)
        with pytest.raises(MemoryError_):
            gm.region_of(0)

    def test_size_rounds_up_to_words(self, gm):
        r = gm.dram_malloc(9)  # 9 bytes -> 2 words
        assert r.size == 16
        assert r.nwords == 2

    def test_default_nr_nodes_is_machine_pow2(self, gm):
        r = gm.dram_malloc(4096)
        assert r.descriptor.nr_nodes == 4

    def test_name_collision_rejected(self, gm):
        gm.dram_malloc(64, name="x")
        with pytest.raises(MemoryError_):
            gm.dram_malloc(64, name="x")

    def test_nonpositive_size_rejected(self, gm):
        with pytest.raises(MemoryError_):
            gm.dram_malloc(0)

    def test_descriptor_count_matches_paper_scale(self, gm):
        """Paper §2.4: typical programs need 2-4 descriptors."""
        gm.dram_malloc(4096, name="gv")
        gm.dram_malloc(4096, name="nl")
        gm.dram_malloc(4096, name="pr")
        assert gm.num_descriptors == 3


class TestAccess:
    def test_read_write_words(self, gm):
        r = gm.dram_malloc(8 * 16, name="a")
        gm.write_words(r.addr(4), [10, 20, 30])
        assert gm.read_words(r.addr(4), 3) == (10, 20, 30)

    def test_read_cannot_straddle_regions(self, gm):
        r = gm.dram_malloc(8 * 4, name="a", block_size=4096)
        with pytest.raises(MemoryError_):
            gm.read_words(r.addr(2), 4)

    def test_misaligned_va_rejected(self, gm):
        r = gm.dram_malloc(8 * 4, name="a")
        with pytest.raises(MemoryError_):
            gm.read_words(r.base + 3, 1)

    def test_unmapped_va_rejected(self, gm):
        with pytest.raises(MemoryError_, match="unmapped"):
            gm.read_words(1 << 50, 1)

    def test_float_region_preserves_dtype(self, gm):
        r = gm.dram_malloc(8 * 4, dtype=np.float64, name="f")
        gm.write_words(r.addr(0), [0.25, 0.5])
        assert gm.read_words(r.addr(0), 2) == (0.25, 0.5)

    @pytest.mark.parametrize(
        "dtype", [np.int32, np.float32, np.bool_, object, np.complex128]
    )
    def test_words_are_eight_byte_numbers(self, gm, dtype):
        """A read's words are decoded from bytes with ``struct``, which
        knows only the 8-byte int, uint and float words."""
        with pytest.raises(MemoryError_, match="int64, uint64 or float64"):
            gm.dram_malloc(64, dtype=dtype, name="odd")
        for ok in (np.int64, np.uint64, np.float64, ">f8"):
            r = gm.dram_malloc(8 * 4, dtype=ok)
            r[:] = [1, 2, 3, 250]
            assert gm.read_words_translated(r.addr(1), 3)[2] == (2, 3, 250)

    def test_region_named_lookup(self, gm):
        r = gm.dram_malloc(64, name="findme")
        assert gm.region_named("findme") is r
        with pytest.raises(MemoryError_):
            gm.region_named("nope")


class TestFree:
    def test_use_after_free_faults(self, gm):
        r = gm.dram_malloc(8 * 8, name="a")
        gm.free(r)
        with pytest.raises(MemoryError_):
            gm.read_words(r.addr(0) if False else r.base, 1)
        with pytest.raises(MemoryError_):
            r[0]

    def test_free_reduces_descriptor_count(self, gm):
        r = gm.dram_malloc(64)
        assert gm.num_descriptors == 1
        gm.free(r)
        assert gm.num_descriptors == 0


class TestTranslatedReads:
    """``read_words_translated``: shift/mask translation behind a
    last-hit region, every check of the two-step path kept."""

    def test_alternating_regions_replace_the_last_hit(self, gm):
        a = gm.dram_malloc(8 * 64, 0, 2, 512, name="a")
        b = gm.dram_malloc(8 * 64, 1, 4, 512, name="b")
        a[:] = np.arange(64)
        b[:] = np.arange(64) + 1000
        for i in (0, 7, 63, 8, 1):
            for region, bias in ((a, 0), (b, 1000), (b, 1000), (a, 0)):
                va = region.addr(i)
                node, off, values = gm.read_words_translated(va, 1)
                assert values == (i + bias,)
                assert (node, off) == region.descriptor.translate(va)
                assert gm.region_of(va) is region

    def test_read_after_free_raises_through_a_warm_last_hit(self, gm):
        keep = gm.dram_malloc(8 * 8, name="keep")
        r = gm.dram_malloc(8 * 8, name="gone")
        va = r.addr(3)
        assert gm.read_words_translated(va, 2)[2] == (0, 0)  # warm
        gm.free(r)
        for read in (gm.read_words_translated, gm.read_words):
            with pytest.raises(MemoryError_, match="use after free.*'gone'"):
                read(va, 1)
        with pytest.raises(MemoryError_, match="out of range"):
            r.addr(3)
        assert gm.read_words_translated(keep.addr(0), 1)[2] == (0,)

    def test_bad_addresses_raise_the_same_messages(self, gm):
        a = gm.dram_malloc(8 * 4, name="a")
        gm.read_words_translated(a.addr(0), 1)  # warm
        with pytest.raises(
            MemoryError_, match="is not a word address in region 'a'"
        ):
            gm.read_words_translated(a.base + 3, 1)
        with pytest.raises(
            MemoryError_, match="read of 4 words at .* overruns region 'a'"
        ):
            gm.read_words_translated(a.addr(2), 4)
        for va in (0, a.base - 8, a.base + a.size, 1 << 50):
            with pytest.raises(MemoryError_, match="is unmapped"):
                gm.read_words_translated(va, 1)


@settings(max_examples=100)
@given(
    machine_nodes=st.integers(1, 12),
    nr_pow=st.integers(0, 3),
    first=st.integers(0, 11),
    block_pow=st.integers(9, 14),
    nblocks=st.integers(1, 40),
    data=st.data(),
)
def test_shift_mask_translation_equals_the_descriptor(
    machine_nodes, nr_pow, first, block_pow, nblocks, data
):
    """Across block sizes, node counts and ``first_node`` wraparound."""
    nr_nodes = min(1 << nr_pow, 1 << (machine_nodes.bit_length() - 1))
    gm = GlobalMemory(bench_machine(nodes=machine_nodes))
    gm.dram_malloc(64, name="pad")  # the region is not first in the map
    r = gm.dram_malloc(
        nblocks << block_pow, first % machine_nodes, nr_nodes,
        1 << block_pow,
    )
    r[:] = np.arange(r.nwords)
    words = st.integers(0, r.nwords - 1)
    for i in data.draw(st.lists(words, min_size=1, max_size=20)):
        va = r.addr(i)
        node, off, values = gm.read_words_translated(va, 1)
        assert (node, off) == r.descriptor.translate(va)
        assert values == (i,)


class TestRegionHelpers:
    def test_addr_index_roundtrip(self, gm):
        r = gm.dram_malloc(8 * 100, name="a")
        for i in (0, 1, 50, 99):
            assert r.index_of(r.addr(i)) == i

    def test_addr_out_of_range(self, gm):
        r = gm.dram_malloc(8 * 4, name="a")
        with pytest.raises(MemoryError_):
            r.addr(4)
        with pytest.raises(MemoryError_):
            r.addr(-1)

    def test_host_indexing(self, gm):
        r = gm.dram_malloc(8 * 4, name="a")
        r[:] = [1, 2, 3, 4]
        assert list(r[1:3]) == [2, 3]


@settings(max_examples=50)
@given(
    sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=20),
    block_pow=st.integers(12, 15),
)
def test_allocation_properties(sizes, block_pow):
    """Every allocation is disjoint, block-aligned, and fully translatable."""
    gm = GlobalMemory(bench_machine(nodes=4))
    bs = 1 << block_pow
    regions = [gm.dram_malloc(s, block_size=bs) for s in sizes]
    prev_end = 0
    for r in regions:
        assert r.base % bs == 0
        assert r.base >= prev_end
        prev_end = r.base + r.size
        # spot-translate the first and last word
        gm.translate(r.addr(0))
        gm.translate(r.addr(r.nwords - 1))


class TestScaledBlockFloor:
    def test_paper_machine_enforces_4kb(self):
        from repro.machine import MachineConfig

        gm = GlobalMemory(MachineConfig(nodes=4))
        with pytest.raises(Exception, match="block size"):
            gm.dram_malloc(4096, block_size=512)

    def test_bench_machine_allows_scaled_blocks(self):
        gm = GlobalMemory(bench_machine(nodes=4))
        r = gm.dram_malloc(4096, 0, 4, 512, name="scaled")
        # 512B blocks now stripe a 4KB region over 4 nodes
        nodes = {r.descriptor.node_of(r.base + i * 512) for i in range(8)}
        assert nodes == {0, 1, 2, 3}

    def test_bench_machine_still_rejects_tiny_blocks(self):
        gm = GlobalMemory(bench_machine(nodes=1))
        with pytest.raises(Exception, match="block size"):
            gm.dram_malloc(4096, block_size=256)
