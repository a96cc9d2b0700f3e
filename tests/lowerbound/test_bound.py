"""Theorem 1 / Lemma 3 experiment tests: the storage bound, realised."""

import pytest

from repro.lowerbound import run_lower_bound_experiment
from repro.registers import (
    ABDRegister,
    AdaptiveRegister,
    CodedOnlyRegister,
    RegisterSetup,
    replication_setup,
)

# k = f — the regime where the adaptive algorithm meets the bound.
SETUP = RegisterSetup(f=3, k=3, data_size_bytes=48)  # n=9, D=384, piece=128


class TestLemma3Fires:
    @pytest.mark.parametrize("register_cls", [CodedOnlyRegister, AdaptiveRegister])
    @pytest.mark.parametrize("c", [2, 4, 6])
    def test_disjunction_fires(self, register_cls, c):
        outcome = run_lower_bound_experiment(register_cls, SETUP, concurrency=c)
        assert outcome.fired in ("frozen", "concurrency", "both")
        if outcome.fired in ("frozen", "both"):
            assert outcome.frozen_count > SETUP.f
        if outcome.fired in ("concurrency", "both"):
            assert outcome.c_plus_count == c

    @pytest.mark.parametrize("register_cls", [CodedOnlyRegister, AdaptiveRegister])
    @pytest.mark.parametrize("c", [2, 4, 6])
    def test_storage_meets_lemma3_bound(self, register_cls, c):
        outcome = run_lower_bound_experiment(register_cls, SETUP, concurrency=c)
        assert outcome.bound_satisfied
        assert outcome.storage_bits >= outcome.lemma3_bound_bits

    @pytest.mark.parametrize("c", [2, 4])
    def test_storage_meets_theorem1_bound(self, c):
        """At ell = D/2 the Lemma 3 bound instantiates to min(f,c) D/2."""
        outcome = run_lower_bound_experiment(CodedOnlyRegister, SETUP,
                                             concurrency=c)
        assert outcome.storage_bits >= outcome.asymptotic_bound_bits


class TestCorollary1:
    @pytest.mark.parametrize("register_cls", [CodedOnlyRegister, AdaptiveRegister])
    def test_no_write_completes_before_bound_fires(self, register_cls):
        """Corollary 1: under Ad, write completion before the Lemma 3
        state would contradict regularity + lock-freedom."""
        outcome = run_lower_bound_experiment(register_cls, SETUP, concurrency=4)
        assert outcome.writes_completed == 0


class TestReplicationTrivia:
    def test_abd_freezes_instantly(self):
        """Full replicas mean every object holds >= ell = D/2 bits from the
        start: the frozen arm fires at time zero with (2f+1) D storage."""
        setup = replication_setup(f=2, data_size_bytes=32)
        outcome = run_lower_bound_experiment(ABDRegister, setup, concurrency=2)
        assert outcome.fired in ("frozen", "both")
        assert outcome.frozen_count == setup.n
        assert outcome.storage_bits >= (setup.f + 1) * outcome.ell_bits


class TestEllParameter:
    def test_custom_ell(self):
        outcome = run_lower_bound_experiment(
            CodedOnlyRegister, SETUP, concurrency=3,
            ell_bits=SETUP.data_size_bits,  # ell = D: Corollary 2's choice
        )
        assert outcome.ell_bits == SETUP.data_size_bits
        assert outcome.fired != "none"
        # With ell = D, frozen means full-replica-sized objects; the
        # coded-only register never stores D bits in one object, so the
        # concurrency arm must be the one that fires.
        assert outcome.fired == "concurrency"
        assert outcome.c_plus_count == 3

    def test_figure3_ell_band(self):
        """Figure 3 uses 2D/5 < ell < D; any such ell must fire too."""
        ell = SETUP.data_size_bits // 2 + SETUP.data_size_bits // 10
        outcome = run_lower_bound_experiment(
            CodedOnlyRegister, SETUP, concurrency=4, ell_bits=ell
        )
        assert outcome.fired != "none"
        assert outcome.bound_satisfied

    def test_bound_scales_with_c_in_concurrency_regime(self):
        """With ell = D the concurrency arm fires at every c; measured
        storage grows with c."""
        storages = []
        for c in (2, 4, 6):
            outcome = run_lower_bound_experiment(
                CodedOnlyRegister, SETUP, concurrency=c,
                ell_bits=SETUP.data_size_bits,
            )
            storages.append(outcome.storage_bits)
        assert storages[0] < storages[1] < storages[2]


class TestOutcomeAccessors:
    def test_bound_formulas(self):
        outcome = run_lower_bound_experiment(CodedOnlyRegister, SETUP,
                                             concurrency=4)
        d = SETUP.data_size_bits
        ell = d // 2
        assert outcome.lemma3_bound_bits == min(
            (SETUP.f + 1) * ell, 4 * (d - ell + 1)
        )
        assert outcome.asymptotic_bound_bits == min(SETUP.f, 4) * d // 2

    def test_snapshot_attached(self):
        outcome = run_lower_bound_experiment(CodedOnlyRegister, SETUP,
                                             concurrency=2)
        assert outcome.snapshot.time == outcome.time
