"""Admission control: backpressure, deadline shedding, fault degrade."""

import pytest

from repro.curves.params import curve_by_name
from repro.serve import (
    SHED_INFEASIBLE,
    SHED_QUEUE_FULL,
    AdmissionController,
    ProofRequest,
    ServeConfig,
    ShedEvent,
    degraded_batch_size,
)

BLS = curve_by_name("BLS12-381")


def _req(rid, at=0.0, deadline=None):
    return ProofRequest(rid, BLS, 1 << 12, arrival_ms=at, deadline_ms=deadline)


class TestAdmissionController:
    def test_admits_when_room_and_feasible(self):
        ctl = AdmissionController(ServeConfig(max_queue=2))
        assert ctl.decide(_req(0), 0, 0.0, 1.0) is None
        assert ctl.shed == []

    def test_sheds_on_full_queue(self):
        ctl = AdmissionController(ServeConfig(max_queue=2))
        event = ctl.decide(_req(0, at=3.0), 2, 0.0, 1.0)
        assert event is not None and event.reason == SHED_QUEUE_FULL
        assert event.at_ms == 3.0
        assert [e.reason for e in ctl.shed] == [SHED_QUEUE_FULL]

    def test_sheds_infeasible_deadline(self):
        ctl = AdmissionController(ServeConfig(max_queue=8))
        # starting at 10 with 5 ms of service overshoots a deadline of 12
        event = ctl.decide(_req(0, deadline=12.0), 0, 10.0, 5.0)
        assert event is not None and event.reason == SHED_INFEASIBLE
        # a deadline of 15 is feasible
        assert ctl.decide(_req(1, deadline=15.0), 0, 10.0, 5.0) is None

    def test_infeasible_shedding_can_be_disabled(self):
        ctl = AdmissionController(
            ServeConfig(max_queue=8, reject_infeasible=False)
        )
        assert ctl.decide(_req(0, deadline=1.0), 0, 10.0, 5.0) is None

    def test_best_effort_requests_never_deadline_shed(self):
        ctl = AdmissionController(ServeConfig(max_queue=8))
        assert ctl.decide(_req(0, deadline=None), 0, 1e6, 1e6) is None

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="unknown shed reason"):
            ShedEvent(_req(0), 0.0, "because")


class TestDegradedBatchSize:
    def test_full_capacity_keeps_batch(self):
        assert degraded_batch_size(8, 4, 4) == 8

    def test_half_capacity_halves_batch(self):
        assert degraded_batch_size(8, 2, 4) == 4

    def test_floor_at_one(self):
        assert degraded_batch_size(2, 1, 8) == 1
        assert degraded_batch_size(4, 0, 8) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="base_batch_size"):
            degraded_batch_size(0, 1, 2)
        with pytest.raises(ValueError, match="out of range"):
            degraded_batch_size(4, 5, 4)
