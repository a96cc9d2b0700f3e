"""Block-instance discovery for storage accounting.

The paper's storage cost (Definition 2) sums the sizes of *block instances*
found anywhere in base-object and client states. Protocol state in this
implementation is ordinary Python data (dataclasses, dicts, lists, tuples)
with :class:`~repro.coding.oracles.CodeBlock` leaves; :func:`collect_blocks`
walks any such structure and yields every block it contains.

Keeping discovery structural (rather than asking each protocol to enumerate
its own blocks) removes a whole class of under-counting bugs: a register
implementation cannot accidentally hide payload bits from the meter by
stashing them in a new field.

:func:`collect_blocks` is the reference walker (``ReferenceStorageMeter``,
Definition 6); :func:`total_bits` is the fast summing walker behind
``StorageLedger``, making the same checks once per concrete class.
``StorageLedger.audit`` and the blockstore tests hold the two equal.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from repro.coding.oracles import BlockSource, CodeBlock

#: ``dataclasses.fields`` resolves descriptors on every call; protocol states
#: are a handful of dataclass types walked millions of times per run, so the
#: field-name tuples are resolved once per class.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

#: Leaf types that can never contain a block.
_ATOMIC_LEAVES = (str, bytes, bytearray, int, float, bool)


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(field.name for field in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def collect_blocks(obj: Any) -> Iterator[CodeBlock]:
    """Yield every :class:`CodeBlock` reachable inside ``obj``.

    Traverses mappings (values only), sequences, sets, and dataclasses, in
    depth-first pre-order. Strings/bytes are treated as leaves. The walk is
    iterative (an explicit stack), so deep protocol state — a GC-free
    register accreting one wrapper per write, say — cannot hit Python's
    recursion limit, and cycles are not expected in protocol state (it is
    built from immutable-ish rounds), so no visited-set is kept.
    """
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, CodeBlock):
            yield node
            continue
        if node is None or isinstance(node, _ATOMIC_LEAVES):
            continue
        if isinstance(node, Mapping):
            stack.extend(reversed(list(node.values())))
            continue
        if isinstance(node, (list, tuple)):
            stack.extend(reversed(node))
            continue
        if isinstance(node, (set, frozenset)):
            stack.extend(node)
            continue
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            names = _field_names(type(node))
            stack.extend(
                getattr(node, name) for name in reversed(names)
            )
            continue
        # Opaque leaf (e.g. a timestamp class): contributes no blocks.


#: Node kinds of :func:`total_bits`, one per branch of :func:`collect_blocks`.
_BLOCK, _LEAF, _MAPPING, _ITERABLE, _DATACLASS = range(5)

#: Concrete class -> node kind, decided once per class.
_KINDS: dict[type, int] = {}


def _kind(cls: type) -> int:
    """Classify ``cls`` by the ordered checks :func:`collect_blocks` makes."""
    if issubclass(cls, CodeBlock):
        return _BLOCK
    if cls is type(None) or issubclass(cls, _ATOMIC_LEAVES):
        return _LEAF
    if issubclass(cls, Mapping):
        return _MAPPING
    if issubclass(cls, (list, tuple, set, frozenset)):
        return _ITERABLE
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        _field_names(cls)  # total_bits reads _FIELD_NAMES directly
        return _DATACLASS
    return _LEAF


def total_bits(obj: Any) -> int:
    """Return the summed bit size of all blocks reachable inside ``obj``.

    The blocks :func:`collect_blocks` yields, found by one dict lookup per
    node on its exact type, in no particular order (a sum needs none).
    """
    bits = 0
    stack = [obj]
    pop, extend = stack.pop, stack.extend
    kinds, fields = _KINDS, _FIELD_NAMES
    while stack:
        node = pop()
        cls = type(node)
        kind = kinds.get(cls)
        if kind is None:
            kind = kinds[cls] = _kind(cls)
        if kind == _LEAF:
            continue
        if kind == _BLOCK:
            bits += node.size_bits
        elif kind == _DATACLASS:
            for name in fields[cls]:
                stack.append(getattr(node, name))
        elif kind == _ITERABLE:
            extend(node)
        else:
            extend(node.values())
    return bits


def distinct_source_bits(obj: Any, op_uid: int) -> int:
    """Return bits from *distinct-index* blocks of operation ``op_uid``.

    This is the inner sum of Definition 6: block numbers are deduplicated
    (storing the same block twice pins no extra information), and each
    distinct number ``i`` contributes ``size(i)`` bits.
    """
    return distinct_source_bits_many(obj, [op_uid])[op_uid]


def distinct_source_bits_many(
    obj: Any, op_uids: Iterable[int]
) -> dict[int, int]:
    """Return Definition 6 sums for many operations in **one** traversal.

    Equivalent to ``{uid: distinct_source_bits(obj, uid) for uid in
    op_uids}`` but walks ``obj`` once, so per-decision-point accounting over
    many concurrent writes (the adversary's ``C-``/``C+`` split) costs one
    sweep instead of one sweep per outstanding operation.
    """
    seen: dict[int, dict[int, int]] = {uid: {} for uid in op_uids}
    for block in collect_blocks(obj):
        per_op = seen.get(block.source.op_uid)
        if per_op is not None:
            per_op[block.source.index] = block.size_bits
    return {uid: sum(indexed.values()) for uid, indexed in seen.items()}


def sources_present(obj: Any) -> set[BlockSource]:
    """Return the set of block sources reachable inside ``obj``."""
    return {block.source for block in collect_blocks(obj)}
