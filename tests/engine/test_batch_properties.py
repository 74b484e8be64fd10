"""Property tests for ``schedule_pipeline``'s least-loaded GPU groups.

The cluster router trusts the scheduler's group assignment to be
deterministic and fair, so the tie-breaking contract is pinned down by
Hypothesis: under equal loads the policy must break ties by the lowest
group index (making it reproducible run to run), and as long as there
are at least as many requests as groups, no group may starve.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.core.multi_msm import MsmJob, msm_job_from_estimate, schedule_pipeline
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem

BLS = curve_by_name("BLS12-381")
CONFIG = DistMsmConfig(window_size=10)


def _assignment(tasks) -> dict[int, int]:
    """request index -> gpu group, parsed from the emitted GPU tasks."""
    groups = {}
    for task in tasks:
        if task.name.endswith(":gpu"):
            index = int(task.name.rsplit("#", 1)[1].split(":")[0])
            groups[index] = task.resource.index
    return groups


def _schedule(log_ns: list[int], gpu_groups: int) -> dict[int, int]:
    engine = DistMsm(MultiGpuSystem(4 // gpu_groups), CONFIG)
    jobs = [
        msm_job_from_estimate(engine, BLS, 1 << ln, label=f"r{i}")
        for i, ln in enumerate(log_ns)
    ]
    schedule = schedule_pipeline(jobs, gpu_groups=gpu_groups)
    return _assignment(schedule.engine_timeline.tasks)


@settings(max_examples=30, deadline=None)
@given(
    gpu_groups=st.sampled_from([1, 2, 4]),
    log_ns=st.lists(st.integers(min_value=12, max_value=18), min_size=1, max_size=10),
)
def test_least_loaded_is_deterministic(gpu_groups, log_ns):
    """The same requests always land on the same groups."""
    assert _schedule(log_ns, gpu_groups) == _schedule(log_ns, gpu_groups)


@settings(max_examples=30, deadline=None)
@given(
    gpu_groups=st.sampled_from([2, 4]),
    log_ns=st.lists(st.integers(min_value=12, max_value=18), min_size=4, max_size=12),
)
def test_least_loaded_never_starves_a_group(gpu_groups, log_ns):
    """With >= one request per group, every group receives work."""
    assignment = _schedule(log_ns, gpu_groups)
    assert set(assignment.values()) == set(range(gpu_groups))


@settings(max_examples=30, deadline=None)
@given(
    gpu_groups=st.sampled_from([2, 4]),
    count=st.integers(min_value=2, max_value=12),
    log_n=st.integers(min_value=12, max_value=18),
)
def test_equal_loads_break_ties_by_group_index(gpu_groups, count, log_n):
    """Identical requests degrade to round-robin: ties go to the lowest
    group, so after each full cycle the loads equalise again."""
    assignment = _schedule([log_n] * count, gpu_groups)
    for i in range(count):
        assert assignment[i] == i % gpu_groups


@settings(max_examples=20, deadline=None)
@given(
    log_ns=st.lists(st.integers(min_value=12, max_value=18), min_size=2, max_size=10),
)
def test_first_requests_fan_out_before_any_group_doubles_up(log_ns):
    """From an idle start the first G requests land on G distinct groups."""
    gpu_groups = 4
    assignment = _schedule(log_ns, gpu_groups)
    head = [assignment[i] for i in range(min(gpu_groups, len(log_ns)))]
    assert head == list(range(len(head)))


_stage_ms = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
_stages = st.lists(st.tuples(_stage_ms, _stage_ms), min_size=1, max_size=10)


def _jobs(stages) -> list[MsmJob]:
    return [MsmJob(f"j{i}", gpu_ms, cpu_ms) for i, (gpu_ms, cpu_ms) in enumerate(stages)]


@settings(max_examples=30, deadline=None)
@given(gpu_groups=st.sampled_from([1, 2, 4]), stages=_stages)
def test_batch_metrics_follow_the_completions(gpu_groups, stages):
    """Makespan, throughput and mean latency are read off the per-job CPU ends."""
    schedule = schedule_pipeline(_jobs(stages), gpu_groups=gpu_groups)
    completions = [c_end for (*_, c_end) in schedule.timeline]
    assert schedule.pipelined_ms == max(completions)
    assert schedule.mean_latency_ms == sum(completions) / len(completions)
    if schedule.pipelined_ms > 0:
        assert schedule.throughput_rps == len(stages) / schedule.pipelined_ms * 1e3


@settings(max_examples=30, deadline=None)
@given(stages=_stages)
def test_one_group_completes_in_submission_order(stages):
    """One GPU group feeds the CPU in job order, so the makespan is the
    last job's CPU end."""
    schedule = schedule_pipeline(_jobs(stages))
    completions = [c_end for (*_, c_end) in schedule.timeline]
    assert completions == sorted(completions)
    assert schedule.pipelined_ms == completions[-1]
