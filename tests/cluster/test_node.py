"""ProofNode: dispatch bookkeeping, load model, and reported health."""

import pytest

from repro.cluster import DEFAULT_NODE_SERVE_CONFIG, ProofNode
from repro.core.config import DistMsmConfig
from repro.curves.params import curve_by_name
from repro.serve import ProofRequest

BLS = curve_by_name("BLS12-381")
CONFIG = DistMsmConfig(window_size=10)


def _request(req_id: int, at_ms: float = 0.0, n: int = 1 << 16) -> ProofRequest:
    return ProofRequest(
        req_id=req_id, curve=BLS, n=n, arrival_ms=at_ms, label=f"r{req_id}"
    )


class TestLoadModel:
    def test_assign_books_estimated_load(self):
        node = ProofNode(0, num_gpus=2, config=CONFIG)
        node.assign(_request(0), dispatch_ms=1.0, est_service_ms=5.0)
        assert node.est_free_ms == pytest.approx(6.0)
        assert node.backlog_ms(1.0) == pytest.approx(5.0)
        assert node.inflight(1.0) == 1
        assert node.next_est_complete_ms() == pytest.approx(6.0)

    def test_sequential_bookings_queue_behind_each_other(self):
        node = ProofNode(0, num_gpus=2, config=CONFIG)
        node.assign(_request(0), dispatch_ms=0.0, est_service_ms=4.0)
        node.assign(_request(1), dispatch_ms=1.0, est_service_ms=4.0)
        # second starts when the first frees the node, not at dispatch
        assert node.est_free_ms == pytest.approx(8.0)
        assert node.inflight(0.0) == 2
        assert node.inflight(5.0) == 1
        assert node.inflight(9.0) == 0
        assert node.backlog_ms(10.0) == 0.0
        assert node.next_est_complete_ms() is None

    def test_local_request_restamps_arrival(self):
        node = ProofNode(0, num_gpus=2, config=CONFIG)
        dispatch = node.assign(_request(0, at_ms=2.0), 7.5, est_service_ms=1.0)
        local = dispatch.local_request()
        assert local.arrival_ms == pytest.approx(7.5)
        assert local.req_id == 0
        # the cluster-clock arrival survives on the original
        assert dispatch.request.arrival_ms == pytest.approx(2.0)

    def test_local_requests_exclude(self):
        node = ProofNode(0, num_gpus=2, config=CONFIG)
        for i in range(3):
            node.assign(_request(i, at_ms=float(i)), float(i), 1.0)
        kept = node.local_requests(exclude={1})
        assert [r.req_id for r in kept] == [0, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            ProofNode(-1, num_gpus=2)
        node = ProofNode(0, num_gpus=2, config=CONFIG)
        with pytest.raises(ValueError):
            node.assign(_request(0), 0.0, est_service_ms=-1.0)


class TestHealth:
    def test_live_node_reports_live(self):
        node = ProofNode(0, num_gpus=2, config=CONFIG)
        assert node.reported_alive(100.0)

    def test_dying_window_between_death_and_detection(self):
        node = ProofNode(0, num_gpus=2, config=CONFIG)
        node.death_ms, node.detect_ms = 5.0, 7.0
        assert node.reported_alive(4.0)
        # dead but not yet detected: the router still believes it is alive
        assert node.reported_alive(6.0)
        assert not node.reported_alive(8.0)


class TestServe:
    def test_serves_dispatched_requests_at_dispatch_instants(self):
        node = ProofNode(0, num_gpus=2, config=CONFIG)
        for i in range(3):
            node.assign(_request(i, at_ms=float(i)), 10.0 + i, 6.0)
        result = node.serve()
        assert len(result.records) == 3
        assert not result.shed
        for record in result.records:
            # the node sees work when the router dispatched it
            assert record.arrival_ms >= 10.0

    def test_default_serve_config_accepts_what_it_is_handed(self):
        assert DEFAULT_NODE_SERVE_CONFIG.max_queue == 256
        assert DEFAULT_NODE_SERVE_CONFIG.reject_infeasible is False
