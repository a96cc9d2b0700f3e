"""Closed-form storage bounds: the reference overlays on every sweep record.

Pure integer formulas in ``(f, k, c, n, D)`` with no simulator or engine
dependency, so the sweep engine, the keyspace runner and the live service
ledger can all state the same bound:

* :func:`theorem1_bound_bits` — this paper's Theorem 1 lower bound
  ``min((f+1) D/2, c (D/2+1))``;
* :func:`lemma3_bound_bits` — Lemma 3's guarantee at any ``ell``,
  ``min((f+1) ell, c (D - ell + 1))``;
* :func:`adaptive_upper_bound_bits` — the Section 5 upper bound
  ``(min(f, c)+1) * (n/k) * D``;
* :func:`disintegrated_bound_bits` — Berger–Keidar–Spiegelman's integrated
  bound for disintegrated storage (arXiv:1805.06265), ``min(f+1, c) * D``,
  which tightens Theorem 1's constant and drops its ``+1``-per-piece slack;
* :func:`lrc_max_dimension` / :func:`lrc_storage_floor_bits` — the
  per-value floor ``n * D / k_max`` of a locally recoverable code under the
  Cadambe–Mazumdar dimension bound (arXiv:1308.3200).
"""

from __future__ import annotations

from repro.errors import ParameterError


def theorem1_bound_bits(f: int, c: int, data_bits: int) -> int:
    """Theorem 1 (this paper): storage >= ``min((f+1) D/2, c (D/2+1))``."""
    return min((f + 1) * data_bits // 2, c * (data_bits // 2 + 1))


def lemma3_bound_bits(f: int, c: int, data_bits: int, ell_bits: int) -> int:
    """Lemma 3: storage >= ``min((f+1) ell, c (D - ell + 1))``."""
    return min((f + 1) * ell_bits, c * (data_bits - ell_bits + 1))


def adaptive_upper_bound_bits(f: int, k: int, c: int, data_bits: int) -> int:
    """Section 5 upper bound: ``(min(f, c) + 1) * (n/k) * D``, ``n = 2f+k``."""
    n = 2 * f + k
    return (min(f, c) + 1) * n * data_bits // k


def disintegrated_bound_bits(f: int, c: int, data_bits: int) -> int:
    """Berger–Keidar–Spiegelman (arXiv:1805.06265): ``min(f+1, c) * D``.

    Their integrated bound covers *disintegrated* storage — algorithms
    whose reads reassemble values from pieces (coded or Byzantine
    non-authenticated) — and strengthens Theorem 1 by a factor ~2.
    """
    return min(f + 1, c) * data_bits


def lrc_max_dimension(n: int, f: int, locality: int) -> int:
    """Largest LRC dimension ``k`` at length ``n`` tolerating ``f`` erasures.

    Uses the Cadambe–Mazumdar bound (arXiv:1308.3200) through its distance
    corollary ``d <= n - k - ceil(k/r) + 2``: tolerating ``f`` erasures
    needs ``d >= f + 1``, so ``k + ceil(k / locality) <= n - f + 1``.
    """
    if n < 1 or f < 0 or locality < 1:
        raise ParameterError("need n >= 1, f >= 0, locality >= 1")
    best = 0
    for k in range(1, n + 1):
        if k + -(-k // locality) <= n - f + 1:
            best = k
    return best


def lrc_storage_floor_bits(
    n: int, f: int, data_bits: int, locality: int = 2
) -> int:
    """Per-value storage floor ``ceil(n * D / k_max)`` of an (n, f) LRC.

    The concurrency-independent cost of *one* codeword under the best
    locality-``locality`` code the Cadambe–Mazumdar bound admits — the
    flat line coded crossover curves are measured against.
    """
    k_max = lrc_max_dimension(n, f, locality)
    if k_max == 0:
        return n * data_bits  # no LRC exists; replication is the floor
    return -(-n * data_bits // k_max)
