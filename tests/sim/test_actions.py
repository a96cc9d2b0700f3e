"""Unit tests for action/wait primitives."""

import pytest

from repro.sim.actions import (
    Action,
    ActionKind,
    Pause,
    RMWHandle,
    RMWStatus,
    WaitResponses,
)


def handle(status=RMWStatus.PENDING, rmw_id=0):
    h = RMWHandle(rmw_id=rmw_id, bo_id=0, op_uid=0, label="t")
    h.status = status
    return h


class TestWaitResponses:
    def test_satisfied_counts_delivered_only(self):
        handles = [
            handle(RMWStatus.DELIVERED),
            handle(RMWStatus.APPLIED),
            handle(RMWStatus.PENDING),
        ]
        assert WaitResponses(handles, 1).satisfied()
        assert not WaitResponses(handles, 2).satisfied()

    def test_zero_need_always_satisfied(self):
        assert WaitResponses([], 0).satisfied()

    @pytest.mark.parametrize("need", [0, 1, 2, 3, 4])
    def test_satisfied_exactly_at_the_need_th_delivery(self, need):
        # Each handle passes through every other status before it is
        # delivered; only DELIVERED counts, and need > 3 never holds.
        handles = [handle(rmw_id=i) for i in range(3)]
        wait = WaitResponses(handles, need)
        for delivered, h in enumerate(handles):
            for status in (RMWStatus.PENDING, RMWStatus.APPLIED,
                           RMWStatus.DROPPED):
                h.status = status
                assert wait.satisfied() == (delivered >= need)
            h.status = RMWStatus.DELIVERED
            assert wait.satisfied() == (delivered + 1 >= need)

    def test_unsatisfiable_when_drops_exceed_slack(self):
        handles = [
            handle(RMWStatus.DROPPED),
            handle(RMWStatus.DROPPED),
            handle(RMWStatus.PENDING),
        ]
        assert WaitResponses(handles, 2).unsatisfiable()
        assert not WaitResponses(handles, 1).unsatisfiable()

    def test_applied_counts_as_potentially_respondable(self):
        handles = [handle(RMWStatus.APPLIED), handle(RMWStatus.DROPPED)]
        wait = WaitResponses(handles, 1)
        assert not wait.unsatisfiable()
        assert not wait.satisfied()

    def test_responded_property(self):
        assert handle(RMWStatus.DELIVERED).responded
        for status in (RMWStatus.PENDING, RMWStatus.APPLIED, RMWStatus.DROPPED):
            assert not handle(status).responded


class TestPause:
    def test_always_satisfied(self):
        pause = Pause()
        assert pause.satisfied()
        assert not pause.unsatisfiable()


class TestAction:
    def test_equality_and_hash(self):
        a = Action(ActionKind.APPLY, 3)
        b = Action(ActionKind.APPLY, 3)
        assert a == b
        assert hash(a) == hash(b)
        assert Action(ActionKind.DELIVER, 3) != a

    def test_kinds_are_distinct(self):
        assert len({kind.value for kind in ActionKind}) == 4
