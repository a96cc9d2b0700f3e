"""Block-discovery tests: structural traversal and Definition 6 dedup."""

import random
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import pytest

from repro.coding.oracles import BlockSource, CodeBlock
from repro.storage import (
    collect_blocks,
    distinct_source_bits,
    distinct_source_bits_many,
    sources_present,
    total_bits,
)


def block(op_uid: int, index: int, size_bits: int = 64) -> CodeBlock:
    return CodeBlock(
        payload=bytes(size_bits // 8),
        index=index,
        source=BlockSource(op_uid, index),
        size_bits=size_bits,
    )


@dataclass(frozen=True)
class Holder:
    name: str
    inner: object


class TestCollectBlocks:
    def test_bare_block(self):
        b = block(1, 0)
        assert list(collect_blocks(b)) == [b]

    def test_none_and_scalars_are_empty(self):
        for leaf in (None, 5, 2.5, True, "text", b"bytes", bytearray(b"x")):
            assert list(collect_blocks(leaf)) == []

    def test_list_and_tuple(self):
        blocks = [block(1, 0), block(1, 1)]
        assert list(collect_blocks(blocks)) == blocks
        assert list(collect_blocks(tuple(blocks))) == blocks

    def test_dict_values_only(self):
        b = block(2, 3)
        found = list(collect_blocks({"key": b, "other": 7}))
        assert found == [b]

    def test_nested_dataclass(self):
        b = block(4, 1)
        holder = Holder("outer", Holder("inner", [b, None]))
        assert list(collect_blocks(holder)) == [b]

    def test_set_traversal(self):
        b = block(5, 2)
        assert list(collect_blocks({b})) == [b]

    def test_deep_mixed_structure(self):
        b1, b2, b3 = block(1, 0), block(1, 1), block(2, 0)
        structure = {"a": [b1, (b2,)], "b": Holder("x", {"c": b3})}
        found = set(collect_blocks(structure))
        assert found == {b1, b2, b3}

    def test_opaque_object_is_leaf(self):
        class Opaque:
            pass

        assert list(collect_blocks(Opaque())) == []


class TestAccounting:
    def test_total_bits_sums_sizes(self):
        blocks = [block(1, 0, 64), block(1, 1, 128)]
        assert total_bits(blocks) == 192

    def test_distinct_source_bits_dedupes_indices(self):
        # Two instances of block (op=1, i=0) pin the same information.
        blocks = [block(1, 0), block(1, 0), block(1, 1)]
        assert distinct_source_bits(blocks, op_uid=1) == 128

    def test_distinct_source_bits_filters_by_op(self):
        blocks = [block(1, 0), block(2, 0), block(2, 1)]
        assert distinct_source_bits(blocks, op_uid=2) == 128
        assert distinct_source_bits(blocks, op_uid=1) == 64
        assert distinct_source_bits(blocks, op_uid=3) == 0

    def test_sources_present(self):
        blocks = [block(1, 0), block(2, 5)]
        assert sources_present(blocks) == {
            BlockSource(1, 0),
            BlockSource(2, 5),
        }

    def test_distinct_source_bits_many_matches_per_op_calls(self):
        blocks = [block(1, 0), block(1, 0), block(2, 0), block(2, 1),
                  block(3, 4, 32)]
        uids = [1, 2, 3, 4]
        batched = distinct_source_bits_many(blocks, uids)
        assert batched == {
            uid: distinct_source_bits(blocks, uid) for uid in uids
        }

    def test_distinct_source_bits_many_empty_uid_set(self):
        assert distinct_source_bits_many([block(1, 0)], []) == {}


class TestIterativeWalk:
    def test_deep_nesting_does_not_hit_recursion_limit(self):
        """A GC-free register accreting one wrapper per write must still be
        meterable: the walk is an explicit stack, not recursion."""
        leaf = block(7, 0)
        nested: object = leaf
        for _ in range(10_000):
            nested = [nested]
        assert [b.source.op_uid for b in collect_blocks(nested)] == [7]
        assert total_bits(nested) == leaf.size_bits

    def test_preorder_matches_construction_order(self):
        """The iterative walk preserves the recursive DFS pre-order."""
        first, second, third = block(1, 0), block(1, 1), block(1, 2)
        structure = {
            "a": [first, (second,)],
            "b": Holder("h", third),
        }
        assert list(collect_blocks(structure)) == [first, second, third]

    def test_dataclass_field_cache_survives_many_instances(self):
        holders = [Holder(str(i), block(i, 0)) for i in range(50)]
        assert len(list(collect_blocks(holders))) == 50


@dataclass(frozen=True)
class Derived(Holder):
    extra: object = None


@dataclass(frozen=True)
class TaggedBlock(CodeBlock):
    tag: str = "t"


class Pair(NamedTuple):
    left: object
    right: object


class BlockList(list):
    pass


class SizedButOpaque:
    """Has ``size_bits`` but is no ``CodeBlock``: contributes nothing."""

    size_bits = 999


def reference_bits(obj) -> int:
    return sum(b.size_bits for b in collect_blocks(obj))


def random_structure(rng: random.Random, depth: int):
    """A random nesting of every container kind the meter must see into."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            lambda: block(rng.randrange(9), rng.randrange(4),
                          8 * rng.randint(1, 9)),
            lambda: TaggedBlock(b"", 0, BlockSource(0, 0), rng.randint(1, 99)),
            lambda: rng.randrange(100),
            lambda: "text",
            lambda: None,
            SizedButOpaque,
            lambda: Holder,  # a dataclass *class*, not an instance
        ])()
    kids = [random_structure(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    keyed = {str(i): kid for i, kid in enumerate(kids)}
    blocks = [block(rng.randrange(9), i) for i in range(rng.randint(0, 3))]
    return rng.choice([
        lambda: kids,
        lambda: tuple(kids),
        lambda: BlockList(kids),
        lambda: Pair(kids, blocks),
        lambda: keyed,
        lambda: OrderedDict(keyed),
        lambda: defaultdict(list, keyed),
        lambda: MappingProxyType(keyed),
        lambda: frozenset(blocks),
        lambda: set(blocks),
        lambda: Holder("h", kids),
        lambda: Derived("d", kids, blocks),
    ])()


class TestFastWalkerMatchesReference:
    """``total_bits`` is the ledger's fast walk; ``collect_blocks`` its
    reference. They must agree on every structure."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_nested_structures(self, seed):
        structure = random_structure(random.Random(seed), depth=6)
        assert total_bits(structure) == reference_bits(structure)

    @pytest.mark.parametrize("case, bits", [
        (OrderedDict(a=block(1, 0), b=[block(1, 1)]), 128),
        (defaultdict(list, a=[block(1, 0)]), 64),
        (MappingProxyType({"a": block(1, 0)}), 64),
        (Pair(block(1, 0), (block(1, 1),)), 128),
        (BlockList([block(1, 0), BlockList([block(1, 1)])]), 128),
        (frozenset({block(1, 0), block(1, 1)}), 128),
        (Derived("d", block(1, 0), [block(1, 1)]), 128),
        (TaggedBlock(b"", 0, BlockSource(0, 0), 40), 40),
        (SizedButOpaque(), 0),
        (Holder, 0),
        ([SizedButOpaque, Derived, TaggedBlock], 0),
    ])
    def test_each_container_kind(self, case, bits):
        assert reference_bits(case) == bits
        assert total_bits(case) == bits
