"""Batch triggers and task emission."""

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.engine.resources import system_resources
from repro.engine.timeline import simulate
from repro.gpu.cluster import MultiGpuSystem
from repro.serve import (
    ContinuousBatcher,
    PlanCache,
    ProofRequest,
    RequestQueue,
    ServeConfig,
    emit_request_tasks,
    request_task_names,
)

BLS = curve_by_name("BLS12-381")
CONFIG = DistMsmConfig(window_size=10)


def _req(rid, at=0.0, deadline=None):
    return ProofRequest(rid, BLS, 1 << 14, arrival_ms=at, deadline_ms=deadline)


def _plan():
    return PlanCache().lookup(DistMsm(MultiGpuSystem(2), CONFIG), BLS, 1 << 14)[0]


class TestTriggers:
    def setup_method(self):
        self.batcher = ContinuousBatcher(
            ServeConfig(max_batch_size=3, max_wait_ms=5.0)
        )
        self.queue = RequestQueue(16)

    def test_empty_queue_never_closes(self):
        assert (
            self.batcher.next_close_ms(self.queue, 0.0, 3, lambda r: 1.0) is None
        )

    def test_size_trigger_closes_immediately(self):
        for i in range(3):
            self.queue.push(_req(i, at=1.0))
        assert self.batcher.next_close_ms(self.queue, 2.0, 3, lambda r: 1.0) == 2.0

    def test_age_trigger_waits_from_oldest_arrival(self):
        self.queue.push(_req(0, at=2.0))
        self.queue.push(_req(1, at=4.0))
        close = self.batcher.next_close_ms(self.queue, 4.0, 3, lambda r: 1.0)
        assert close == pytest.approx(7.0)  # oldest (2.0) + max_wait (5.0)

    def test_degraded_batch_size_triggers_earlier(self):
        for i in range(2):
            self.queue.push(_req(i, at=1.0))
        # full batch of 3 not reached, but degraded capacity of 2 is
        assert self.batcher.next_close_ms(self.queue, 1.5, 2, lambda r: 1.0) == 1.5

    def test_deadline_trigger_preempts_age(self):
        self.queue.push(_req(0, at=0.0, deadline=4.0))
        close = self.batcher.next_close_ms(self.queue, 0.0, 3, lambda r: 1.5)
        assert close == pytest.approx(2.5)  # deadline - service estimate

    def test_unknown_shapes_exert_no_deadline_pressure(self):
        self.queue.push(_req(0, at=0.0, deadline=4.0))
        close = self.batcher.next_close_ms(self.queue, 0.0, 3, lambda r: None)
        assert close == pytest.approx(5.0)  # pure age trigger

    def test_close_never_before_now(self):
        self.queue.push(_req(0, at=0.0, deadline=1.0))
        close = self.batcher.next_close_ms(self.queue, 9.0, 3, lambda r: 1.0)
        assert close == 9.0

    def test_form_drains_in_urgency_order_and_records(self):
        for i, deadline in ((0, None), (1, 9.0), (2, 5.0)):
            self.queue.push(_req(i, at=1.0, deadline=deadline))
        batch = self.batcher.form(
            self.queue, group=1, formed_ms=3.0, admit_ms=3.5,
            effective_max_batch=2, window_sizes={1: 10, 2: 10}, plan_misses=1,
        )
        assert [r.req_id for r in batch.requests] == [2, 1]
        assert batch.group == 1 and batch.plan_misses == 1
        assert len(self.queue) == 1
        assert self.batcher.batches == [batch]


class TestEmission:
    def test_task_names_cover_every_unit(self):
        names = request_task_names(7, 2, [4, 5])
        assert names["gpu"] == ["req7.a2:gpu4", "req7.a2:gpu5"]
        assert names["xfer"] == "req7.a2:xfer"
        assert names["reduce"] == "req7.a2:reduce"

    def test_emitted_tasks_schedule_and_respect_structure(self):
        resources = system_resources(4)
        plan = _plan()
        tasks = emit_request_tasks(
            _req(0), 0, plan, [resources.gpu(2), resources.gpu(3)],
            resources, not_before_ms=2.0, stage="b0",
        )
        assert len(tasks) == 4  # one per GPU, plus xfer and reduce
        timeline = simulate(tasks)
        gpu_spans = [timeline.span(f"req0.a0:gpu{i}") for i in (2, 3)]
        xfer = timeline.span("req0.a0:xfer")
        reduce = timeline.span("req0.a0:reduce")
        for s in gpu_spans:
            assert s.start_ms >= 2.0
            assert xfer.start_ms >= s.end_ms
        assert reduce.start_ms >= xfer.end_ms
        assert xfer.resource.name == "node0-link"
        assert reduce.resource.name == "cpu"

    def test_transfer_requires_group_gpus_alive(self):
        resources = system_resources(4)
        tasks = emit_request_tasks(
            _req(0), 0, _plan(), [resources.gpu(0), resources.gpu(1)],
            resources, 0.0, stage="b0",
        )
        xfer = next(t for t in tasks if t.name.endswith(":xfer"))
        assert set(xfer.requires_alive) == {"gpu0", "gpu1"}

    def test_extra_deps_serialise_requests(self):
        resources = system_resources(2)
        plan = _plan()
        tasks = emit_request_tasks(
            _req(0), 0, plan, [resources.gpu(0)], resources, 0.0, stage="b0"
        )
        tasks += emit_request_tasks(
            _req(1), 0, plan, [resources.gpu(0)], resources, 0.0, stage="b0",
            extra_deps=("req0.a0:reduce",),
        )
        timeline = simulate(tasks)
        assert (
            timeline.span("req1.a0:gpu0").start_ms
            >= timeline.span("req0.a0:reduce").end_ms
        )

    def test_empty_group_rejected(self):
        resources = system_resources(2)
        with pytest.raises(ValueError, match="empty GPU group"):
            emit_request_tasks(_req(0), 0, _plan(), [], resources, 0.0, "b0")
