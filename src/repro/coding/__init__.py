"""Erasure-coding substrate: GF(2^8) arithmetic, codes, and oracles.

Public surface:

* :class:`~repro.coding.scheme.CodingScheme` — the symmetric coding
  interface of Section 3.1 (``E``, ``D``, ``size(i)``).
* :class:`~repro.coding.reed_solomon.ReedSolomonCode` — systematic k-of-n
  MDS code (the workhorse of the register emulations).
* :class:`~repro.coding.replication.ReplicationCode` — full replication as
  the ``k = 1`` degenerate code.
* :class:`~repro.coding.xor_parity.XorParityCode` — single-parity MDS code.
* :class:`~repro.coding.rateless.RatelessXorCode` — unbounded-index fountain
  code (the reason the paper's block domain is ``N``).
* :class:`~repro.coding.oracles.EncodeOracle` /
  :class:`~repro.coding.oracles.DecodeOracle` — Definition 1's oracles, with
  source tagging (Definition 4) for black-box storage accounting.
* :func:`~repro.coding.gf256.gf_matmul` — the vectorised GF(2^8) batch
  engine every scheme's ``encode_batch`` / ``decode_batch`` rides;
  :func:`~repro.coding.oracles.prime_encode_oracles` — one shared encode
  pass for a burst of live oracles — and its runner-side twin
  :class:`~repro.coding.oracles.BatchEncodePlan`, which pre-encodes a
  write wave before any oracle exists.
"""

from repro.coding.gf256 import gf_matmul
from repro.coding.oracles import (
    BatchEncodePlan,
    BlockSource,
    CodeBlock,
    DecodeOracle,
    DecodeShareCache,
    EncodeOracle,
    prime_encode_oracles,
)
from repro.coding.padding import PaddedScheme, padded_size
from repro.coding.rateless import RatelessXorCode
from repro.coding.reed_solomon import ReedSolomonCode
from repro.coding.replication import ReplicationCode
from repro.coding.scheme import CodingScheme, MDSCodingScheme
from repro.coding.xor_parity import XorParityCode

__all__ = [
    "BatchEncodePlan",
    "BlockSource",
    "CodeBlock",
    "CodingScheme",
    "DecodeOracle",
    "DecodeShareCache",
    "EncodeOracle",
    "MDSCodingScheme",
    "PaddedScheme",
    "RatelessXorCode",
    "gf_matmul",
    "padded_size",
    "prime_encode_oracles",
    "ReedSolomonCode",
    "ReplicationCode",
    "XorParityCode",
]
