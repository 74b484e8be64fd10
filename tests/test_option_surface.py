"""The public option surface, pinned field by field.

Every config field and constructor argument is a knob someone has to
understand, test and keep working.  A knob that no caller sets to
anything but its default belongs in a module constant next to its reader
(DESIGN.md §3 lists the ones that moved).  Adding a field here is a
deliberate act: this file has to change with it, where review sees it.
"""

import inspect
from dataclasses import fields

import pytest

from repro.cluster import AutoscaleConfig, ProofCluster, TenantSpec
from repro.core.config import DistMsmConfig
from repro.core.msm_timeline import build_msm_timeline
from repro.core.multi_msm import schedule_pipeline
from repro.engine.timeline import Simulation, TimelineBuilder, simulate
from repro.serve import ServeConfig

SURFACE = {
    DistMsmConfig: (
        "window_size",
        "scatter",
        "bucket_reduce_on_cpu",
        "multi_gpu",
        "kernel_opts",
        "threads_per_block",
        "points_per_thread",
        "threads_per_bucket_min",
        "efficiency",
        "signed_digits",
        "precompute",
        "gpu_reduce",
        "api",
        "verify_chunks",
    ),
    ServeConfig: (
        "gpu_groups",
        "max_batch_size",
        "max_wait_ms",
        "max_queue",
        "reject_infeasible",
        "overlap",
    ),
    TenantSpec: ("name", "weight", "deadline_class_ms"),
    AutoscaleConfig: (
        "min_nodes",
        "max_nodes",
        "control_interval_ms",
        "queue_high",
        "queue_low",
        "cooldown_ms",
        "provision_ms",
        "down_stable_ticks",
    ),
}


@pytest.mark.parametrize("config", list(SURFACE), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    assert tuple(f.name for f in fields(config)) == SURFACE[config]


def test_proof_cluster_parameters_are_pinned():
    params = tuple(inspect.signature(ProofCluster.__init__).parameters)
    assert params == (
        "self",
        "num_nodes",
        "gpus_per_node",
        "config",
        "tenants",
        "autoscale",
    )


#: the engine front-ends' parameters: tracing is a transcription of the
#: finished timeline (``record_timeline``), not an input of the scheduler
ENGINE_SURFACE = {
    simulate: ("tasks", "stages", "faults", "retry"),
    Simulation.timeline: ("self", "stages"),
    TimelineBuilder.add: ("self", "name", "resource", "duration_ms"),
    TimelineBuilder.build: ("self",),
    build_msm_timeline: ("breakdown", "resources"),
    schedule_pipeline: ("jobs", "gpu_groups"),
}


@pytest.mark.parametrize("fn", list(ENGINE_SURFACE), ids=lambda f: f.__qualname__)
def test_engine_parameters_are_pinned(fn):
    assert tuple(inspect.signature(fn).parameters) == ENGINE_SURFACE[fn]
