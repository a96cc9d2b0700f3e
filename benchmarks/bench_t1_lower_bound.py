"""E1 — Theorem 1: Ad forces storage >= min((f+1) ell, c (D - ell + 1)).

Paper claim (Section 4, ell = D/2): any lock-free black-box regular
register stores Omega(min(f, c) * D) bits in some run. This bench runs the
Definition 7 adversary against both coded registers over a (f, c) grid and
reports measured storage against the Lemma 3 bound. Corollary 1 is checked
alongside: no write completes before the bound state is reached.
"""

import pytest

from repro.analysis import format_table
from repro.lowerbound import run_lower_bound_experiment
from repro.registers import (
    AdaptiveRegister,
    CASRegister,
    ChannelCodedRegister,
    CodedOnlyRegister,
    RegisterSetup,
)

GRID = [(2, 2), (2, 4), (3, 2), (3, 4), (3, 8), (4, 4)]


def run_grid(register_cls):
    outcomes = []
    for f, c in GRID:
        setup = RegisterSetup(f=f, k=f, data_size_bytes=16 * f)
        outcomes.append(
            run_lower_bound_experiment(register_cls, setup, concurrency=c)
        )
    return outcomes


@pytest.mark.parametrize(
    "register_cls",
    [CodedOnlyRegister, AdaptiveRegister, CASRegister],
    ids=lambda c: c.name,
)
def test_theorem1_lower_bound(benchmark, record_table, register_cls):
    outcomes = benchmark.pedantic(
        run_grid, args=(register_cls,), rounds=1, iterations=1
    )
    rows = []
    for (f, c), outcome in zip(GRID, outcomes):
        assert outcome.fired != "none", f"Lemma 3 never fired at f={f}, c={c}"
        assert outcome.bound_satisfied
        assert outcome.writes_completed == 0  # Corollary 1
        rows.append([
            f, c, outcome.data_bits, outcome.fired,
            outcome.frozen_count, outcome.c_plus_count,
            outcome.storage_bits, outcome.lemma3_bound_bits,
            outcome.asymptotic_bound_bits,
        ])
    table = format_table(
        ["f", "c", "D", "fired", "|F|", "|C+|", "measured(bits)",
         "lemma3-bound", "min(f,c)·D/2"],
        rows,
    )
    record_table(f"E1_theorem1_{register_cls.name}", table)


def test_channel_parking_escapes_only_by_losing_lock_freedom(
    benchmark, record_table
):
    """The channel-coded register is NOT subject to Theorem 1 — and the
    experiment shows why, rather than papering over it.

    Under Ad, newer writes overwrite older writes' single pieces, cycling
    ops back into C-: writes *complete* (Corollary 1's premise breaks).
    That evasion is available precisely because the register is not
    lock-free at the paper's granularity — the fragmented one-piece-per-
    object states it passes through can starve a solo reader forever (see
    the module docstring of ``repro.registers.channel_coded``). Its real
    cost lives in the channels (benchmark E13)."""
    setup = RegisterSetup(f=3, k=3, data_size_bytes=48)

    def run():
        return run_lower_bound_experiment(
            ChannelCodedRegister, setup, concurrency=8
        )

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "E1_channel_parking_escape",
        format_table(
            ["fired", "writes completed under Ad", "storage(bits)"],
            [[outcome.fired, outcome.writes_completed, outcome.storage_bits]],
        ),
    )
    # The escape hatch: completions under Ad — impossible for any
    # lock-free register (Corollary 1), observed here.
    assert outcome.writes_completed > 0
