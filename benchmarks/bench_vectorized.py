"""Vectorized-backend and heap-engine speedup benchmark.

Usage::

    PYTHONPATH=src python benchmarks/bench_vectorized.py [--smoke]

Measures the two rewrites this repo's "vectorized execution" layer is
built from, always against the scalar implementations they replaced, and
writes machine-readable records for the CI regression gate
(``benchmarks/compare_bench.py``):

* ``results/BENCH_msm_backend.json`` — the functional MSM backend.
  Window sums (digit decomposition + scatter + segmented bucket
  accumulation, the per-point hot path) timed scalar-vs-array on the toy
  curve; end-to-end ``DistMsm.execute`` at the same sizes; and a
  2^20-point 4-GPU vectorized run against the 60 s CI budget.  The
  scalar side runs with ``repro.core.backends.uses_batch_path`` patched
  off, since the toy curve takes the batch path by default.  Every timed
  pair is asserted bit-identical (points and event counters) before its
  time is reported.  The same record times ``bucket_sum``'s two kernels
  on one set of BLS12-381 buckets — batched affine against XYZZ per
  pair (``repro.core.bucket_sum.uses_affine_kernel`` patched off) — and
  asserts their sums equal in affine form, with identical counters.  And
  it times one recovery round of BLS12-381 chunks through the 2G2T
  protocol — each worker's response ``T = c*V + M``, the dispatcher's
  per-chunk checks and the round's batched check — as shipped in
  ``repro.msm.outsource`` (one session for the round, as one
  ``DistMsm.execute`` call has) against a textbook version written here,
  in which every check derives what it needs by itself (PADD suffix
  folds, double-and-add ``pmul`` for ``c*V``, ``h*G`` and the ``rho``
  multiples), and asserts equal affine responses and verdicts.

* ``results/BENCH_engine.json`` — ``engine.simulate`` against the frozen
  pre-rewrite loop (``repro.engine._reference``), the 10^6-task wall
  time against its 10 s budget, and the O(1)-vs-O(failures) audit-lookup
  comparison (``Timeline.failure_for`` / ``attempts_for``).

GC note: the timed sections run with the collector disabled (recorded as
``"gc_disabled": true``) — at 10^6 tasks collector pauses add ~40% of
pure allocation-tracking overhead to an allocation-heavy loop that
creates no cycles.

``--smoke`` (the ``make bench-smoke`` hook) shrinks the instance sizes
so the whole file stays under ~2 minutes while still exercising every
code path and identity assertion.
"""

from __future__ import annotations

import gc
import json
import pathlib
import random
import sys
import time
from contextlib import nullcontext
from unittest import mock

from repro.core import backends
from repro.core import bucket_sum as bucket_sum_module
from repro.core.backends import FunctionalBackend
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm, _GpuWork
from repro.core.planner import Assignment
from repro.curves.params import curve_by_name
from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    pdbl,
    pmul,
    to_affine,
    xyzz_add,
)
from repro.curves.sampling import msm_instance, sample_points
from repro.curves.toy import toy_curve
from repro.engine._reference import reference_simulate
from repro.engine.faults import FaultPlan, RetryPolicy, TransferError
from repro.engine.resources import GPU_COMPUTE, TRANSFER, Resource
from repro.engine.timeline import Task, simulate
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.outsource import (
    Session,
    batch_verify,
    chunk_value,
    make_response,
    mask_scalar,
    rho_coeff,
    sample_challenge,
    verify_chunk,
)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

NUM_GPUS = 4
TOY_WINDOW = 6
#: buckets (and threads per bucket) of the BLS12-381 kernel comparison:
#: ~64 members a bucket, one lane each, as in a 2^12-point 4-GPU MSM
AFFINE_BUCKETS = 64
#: the BLS12-381 round of the verification comparison: chunks of slots
#: (one window each, consecutive) of 2^VERIFY_WINDOW buckets, as in a
#: 2^10-point 8-GPU MSM's first round
VERIFY_CHUNKS = 4
VERIFY_SLOTS = 7
VERIFY_WINDOW = 5
#: acceptance budgets the CI gate holds this machine to
MSM_2POW20_BUDGET_S = 60.0
SIMULATE_1M_BUDGET_S = 10.0


def _timed(fn, *args):
    """(wall seconds, result) with GC off around the measured call."""
    gc_was_on = gc.isenabled()
    gc.collect()  # drain garbage from earlier sections before timing
    gc.disable()
    try:
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()
    return elapsed, out


# -- MSM backend ---------------------------------------------------------------


def _scalar_loops():
    """Patch the routing rule off so the toy curve runs the scalar loops."""
    return mock.patch.object(backends, "uses_batch_path", lambda curve: False)


def _scalar_execute(engine, *args):
    with _scalar_loops():
        return engine.execute(*args)


def _window_sums(curve, scalars, points, batch):
    """Run prepare + every window's full-range scatter/bucket-sum.

    This is exactly the per-point work ``FunctionalBackend`` does for one
    GPU that owns the whole point vector and bucket range — the paths the
    vectorized layer replaces — with the orchestration, timeline and
    bucket-reduce phases excluded.  ``batch=False`` runs the scalar loops.
    """
    system = MultiGpuSystem(num_gpus=1)
    msm = DistMsm(system, DistMsmConfig(window_size=TOY_WINDOW))
    backend = FunctionalBackend(msm, scalars, points, curve)
    n_win = -(-curve.scalar_bits // TOY_WINDOW)
    with nullcontext() if batch else _scalar_loops():
        backend.prepare(TOY_WINDOW, n_win, n_win)
    work = _GpuWork()
    sums = [
        backend.run_assignment(
            work, Assignment(gpu=0, window=w), msm.num_buckets(TOY_WINDOW)
        )
        for w in range(n_win)
    ]
    return sums, work


def _kernel_bucket_sum(affine, buckets, points, curve):
    """``bucket_sum`` with its kernel forced: batched affine or XYZZ."""
    with mock.patch.object(bucket_sum_module, "uses_affine_kernel", lambda c: affine):
        return bucket_sum_module.bucket_sum(buckets, points, curve, AFFINE_BUCKETS)


def _affine_bucket_sum(smoke: bool) -> dict:
    """Batched-affine vs XYZZ bucket sum on the same BLS12-381 buckets."""
    curve = curve_by_name("BLS12-381")
    log_points = 12 if smoke else 14
    points = sample_points(curve, 1 << log_points, seed=17)
    rng = random.Random(17)
    buckets: list[list[int]] = [[] for _ in range(AFFINE_BUCKETS)]
    for pid in range(len(points)):
        digit = rng.randrange(AFFINE_BUCKETS)
        if digit:
            buckets[digit].append(pid)
    t_xyzz, t_affine = [], []
    for _ in range(3):  # best of three: each run is tens of milliseconds
        t, xyzz = _timed(_kernel_bucket_sum, False, buckets, points, curve)
        t_xyzz.append(t)
        t, affine = _timed(_kernel_bucket_sum, True, buckets, points, curve)
        t_affine.append(t)
    assert xyzz.counters == affine.counters, "kernel counters diverge"
    assert [to_affine(pt, curve) for pt in xyzz.sums] == [
        to_affine(pt, curve) for pt in affine.sums
    ], "batched-affine bucket sums diverge from XYZZ"
    return {
        "curve": curve.name,
        "log2_points": log_points,
        "additions": xyzz.counters.padd,
        "xyzz_s": round(min(t_xyzz), 4),
        "affine_s": round(min(t_affine), 4),
        "affine_bucket_sum_speedup": round(min(t_xyzz) / min(t_affine), 2),
    }


def _textbook_fold(partials, windows, curve):
    """The chunk value by PADD suffix sums and Horner doublings."""
    total = XyzzPoint.identity()
    for w in sorted(set(windows), reverse=True):
        if not total.is_identity:
            for _ in range(VERIFY_WINDOW):
                total = pdbl(total, curve)
        for sums, slot_window in zip(partials, windows):
            if slot_window != w:
                continue
            running = XyzzPoint.identity()
            for b in range(len(sums) - 1, 0, -1):
                running = xyzz_add(running, sums[b], curve)
                total = xyzz_add(total, running, curve)
    return total


def _textbook_round(chunks, windows, challenge, curve):
    """Responses, per-chunk checks and batch check, each on its own."""
    g = AffinePoint(curve.gx, curve.gy)

    def times(k, pt):
        return XyzzPoint.from_affine(pmul(to_affine(pt, curve), k, curve))

    def mask(gpu):
        return XyzzPoint.from_affine(pmul(g, mask_scalar(challenge, 0, gpu, curve), curve))

    def commitment(value, gpu):  # c * V + h * G
        return xyzz_add(times(challenge.c, value), mask(gpu), curve)

    responses = [
        commitment(_textbook_fold(partials, windows, curve), gpu)
        for gpu, partials in enumerate(chunks)
    ]
    accepted = [
        to_affine(commitment(_textbook_fold(partials, windows, curve), gpu), curve)
        == to_affine(response, curve)
        for (gpu, partials), response in zip(enumerate(chunks), responses)
    ]
    lhs = values = masks = XyzzPoint.identity()
    for (gpu, partials), response in zip(enumerate(chunks), responses):
        rho = rho_coeff(challenge, 0, gpu)
        lhs = xyzz_add(lhs, times(rho, response), curve)
        values = xyzz_add(values, times(rho, _textbook_fold(partials, windows, curve)), curve)
        masks = xyzz_add(masks, times(rho, mask(gpu)), curve)
    rhs = xyzz_add(times(challenge.c, values), masks, curve)
    batched = to_affine(lhs, curve) == to_affine(rhs, curve)
    return [to_affine(t, curve) for t in responses], accepted, batched


def _shipped_round(chunks, windows, challenge, curve):
    """The same through ``repro.msm.outsource``: one session, one fold a side."""
    session = Session(challenge, curve)
    responses = [
        make_response(session, chunk_value(partials, windows, VERIFY_WINDOW, curve), 0, gpu)
        for gpu, partials in enumerate(chunks)
    ]
    values = [chunk_value(partials, windows, VERIFY_WINDOW, curve) for partials in chunks]
    accepted = [
        verify_chunk(session, value, response, 0, gpu)
        for gpu, (value, response) in enumerate(zip(values, responses))
    ]
    batched = batch_verify(
        session, [(0, gpu, v, t) for gpu, (v, t) in enumerate(zip(values, responses))]
    )
    return [to_affine(t, curve) for t in responses], accepted, batched


def _verify_arith() -> dict:
    """One BLS12-381 round's 2G2T responses and checks, shipped vs textbook."""
    curve = curve_by_name("BLS12-381")
    buckets = 1 << VERIFY_WINDOW
    points = iter(sample_points(curve, VERIFY_CHUNKS * VERIFY_SLOTS * buckets, seed=19))
    chunks = [
        [[XyzzPoint.from_affine(next(points)) for _ in range(buckets)] for _ in range(VERIFY_SLOTS)]
        for _ in range(VERIFY_CHUNKS)
    ]
    windows = list(range(VERIFY_SLOTS))
    challenge = sample_challenge(curve, 19)
    t_textbook, t_shipped = [], []
    for _ in range(3):  # best of three: each run is a few tenths of a second
        t, textbook = _timed(_textbook_round, chunks, windows, challenge, curve)
        t_textbook.append(t)
        t, shipped = _timed(_shipped_round, chunks, windows, challenge, curve)
        t_shipped.append(t)
    verdicts = ([True] * VERIFY_CHUNKS, True)
    assert textbook[1:] == shipped[1:] == verdicts, "an honest chunk failed a check"
    assert textbook[0] == shipped[0], "shipped responses diverge from the textbook ones"
    return {
        "curve": curve.name,
        "chunks": VERIFY_CHUNKS,
        "slots": VERIFY_SLOTS,
        "buckets": buckets,
        "textbook_s": round(min(t_textbook), 4),
        "shipped_s": round(min(t_shipped), 4),
        "verify_arith_speedup": round(min(t_textbook) / min(t_shipped), 2),
    }


def bench_msm_backend(smoke: bool) -> dict:
    toy = toy_curve()
    log_kernel = 16 if smoke else 18
    log_large = 18 if smoke else 20

    payload: dict = {
        "bench": "msm_backend",
        "curve": toy.name,
        "num_gpus": NUM_GPUS,
        "window_size": TOY_WINDOW,
        "gc_disabled": True,
        "smoke": smoke,
    }

    # window sums: the per-point hot path, scalar loops vs array passes
    scalars, points = msm_instance(toy, 1 << log_kernel, seed=7)
    t_scalar, (sums_s, work_s) = _timed(_window_sums, toy, scalars, points, False)
    t_vector, (sums_v, work_v) = _timed(_window_sums, toy, scalars, points, True)
    assert sums_s == sums_v, "vectorized window sums diverge from scalar"
    assert (work_s.scatter, work_s.sums) == (work_v.scatter, work_v.sums), (
        "vectorized event counters diverge from scalar"
    )
    payload["window_sums"] = {
        "log2_points": log_kernel,
        "scalar_s": round(t_scalar, 3),
        "vectorized_s": round(t_vector, 3),
        "window_sums_speedup": round(t_scalar / t_vector, 2),
    }

    # production-curve bucket sum: batched affine vs XYZZ per pair
    payload["affine_bucket_sum"] = _affine_bucket_sum(smoke)

    # one chunk's 2G2T verification arithmetic: shipped vs textbook
    payload["verify_arith"] = _verify_arith()

    # end to end, same instance: orchestration + reduce phases included
    system = MultiGpuSystem(num_gpus=NUM_GPUS)
    scalar_engine = DistMsm(system, DistMsmConfig(window_size=TOY_WINDOW))
    vector_engine = DistMsm(system, DistMsmConfig(window_size=TOY_WINDOW))
    t_scalar, res_s = _timed(_scalar_execute, scalar_engine, scalars, points, toy)
    t_vector, res_v = _timed(vector_engine.execute, scalars, points, toy)
    assert res_s.point == res_v.point, "end-to-end MSM results diverge"
    payload["end_to_end"] = {
        "log2_points": log_kernel,
        "scalar_s": round(t_scalar, 3),
        "vectorized_s": round(t_vector, 3),
        "end_to_end_speedup": round(t_scalar / t_vector, 2),
    }

    # bit-identity cross-check at 2^14 (results, counters, modelled time)
    xs, xp = msm_instance(toy, 1 << 14, seed=11)
    res_s = _scalar_execute(scalar_engine, xs, xp, toy)
    res_v = vector_engine.execute(xs, xp, toy)
    assert (res_s.point, res_s.counters, res_s.time_ms) == (
        res_v.point,
        res_v.counters,
        res_v.time_ms,
    ), "2^14 cross-check: vectorized run is not bit-identical"
    payload["cross_check"] = {"log2_points": 14, "bit_identical": True}

    # the large-MSM budget: 2^20 points, 4 GPUs, vectorized path.  The
    # base points tile a 2^14 sample (point sampling costs ~20 s at 2^20,
    # which would swamp the run being measured); the scalars are fresh.
    rng = random.Random(13)
    _, tile = msm_instance(toy, 1 << 14, seed=13)
    reps = (1 << log_large) >> 14
    big_points = tile * reps
    big_scalars = [rng.randrange(1, toy.r) for _ in range(1 << log_large)]
    t_large, res = _timed(vector_engine.execute, big_scalars, big_points, toy)
    payload["large_run"] = {
        "log2_points": log_large,
        "vectorized_s": round(t_large, 3),
        "budget_s": MSM_2POW20_BUDGET_S,
        "within_budget": bool(t_large < MSM_2POW20_BUDGET_S),
        "msm_time_model_ms": round(res.time_ms, 3),
    }
    assert t_large < MSM_2POW20_BUDGET_S, (
        f"2^{log_large} vectorized MSM took {t_large:.1f}s "
        f"(budget {MSM_2POW20_BUDGET_S:.0f}s)"
    )
    return payload


# -- engine --------------------------------------------------------------------


def _random_dag(n: int, seed: int = 0) -> list[Task]:
    """A layered random DAG over 16 GPU streams (≤2 deps per task)."""
    rng = random.Random(seed)
    resources = [Resource(f"gpu{i}", GPU_COMPUTE, i) for i in range(16)]
    tasks = []
    for i in range(n):
        lo = max(0, i - 200)
        deps = (
            tuple({f"t{rng.randrange(lo, i)}" for _ in range(rng.randrange(0, 3))})
            if i
            else ()
        )
        tasks.append(Task(f"t{i}", resources[rng.randrange(16)], rng.uniform(0.01, 2.0), deps))
    return tasks


def _faulted_timeline(n: int, seed: int = 0):
    """A timeline rich in attempts/failures for the audit-lookup bench."""
    rng = random.Random(seed)
    link = Resource("node0-link", TRANSFER, 0)
    tasks = [
        Task(f"t{i}", link, 1.0, (f"t{i - 1}",) if i else ())
        for i in range(n)
    ]
    errors = tuple(
        TransferError(node=0, at_ms=rng.uniform(0, n * 1.0), transient=True)
        for _ in range(n // 4)
    )
    plan = FaultPlan(errors)
    return simulate(tasks, faults=plan, retry=RetryPolicy(max_retries=2))


def _audit_all(tl, names):
    return [tl.failure_for(t) for t in names], [tl.attempts_for(t) for t in names]


def _audit_all_linear(tl, names):
    """The pre-index implementation: one full scan per query."""
    failures = [next((f for f in tl.failures if f.task == t), None) for t in names]
    attempts = [
        tuple(sorted((a for a in tl.attempts if a.task == t), key=lambda a: a.attempt))
        for t in names
    ]
    return failures, attempts


def bench_engine(smoke: bool) -> dict:
    payload: dict = {"bench": "engine", "gc_disabled": True, "smoke": smoke}

    # head-to-head vs the frozen reference loop
    n_small = 30_000 if smoke else 100_000
    tasks = _random_dag(n_small)
    t_new, tl_new = _timed(simulate, tasks)
    t_ref, tl_ref = _timed(reference_simulate, tasks)
    assert list(tl_new.spans.items()) == list(tl_ref.spans.items())
    assert tl_new.total_ms == tl_ref.total_ms
    payload["simulate"] = {
        "tasks": n_small,
        "new_s": round(t_new, 3),
        "reference_s": round(t_ref, 3),
        "simulate_speedup": round(t_ref / t_new, 2),
    }

    # the 10^6-task budget the rewrite exists for
    n_large = 200_000 if smoke else 1_000_000
    tasks = _random_dag(n_large, seed=1)
    t_large, tl = _timed(simulate, tasks)
    budget = SIMULATE_1M_BUDGET_S * (n_large / 1_000_000)
    payload["large_run"] = {
        "tasks": n_large,
        "wall_s": round(t_large, 3),
        "budget_s": round(budget, 3),
        "within_budget": bool(t_large < budget),
        "makespan_ms": round(tl.total_ms, 3),
    }
    assert t_large < budget, (
        f"{n_large}-task simulate took {t_large:.1f}s (budget {budget:.1f}s)"
    )

    # audit lookups: lazy per-task indexes vs the old per-query scan
    n_audit = 2_000 if smoke else 10_000
    tl = _faulted_timeline(n_audit, seed=2)
    names = [t.name for t in tl.tasks]
    t_index, indexed = _timed(_audit_all, tl, names)
    t_linear, linear = _timed(_audit_all_linear, tl, names)
    assert indexed == linear, "indexed audit lookups diverge from linear scans"
    payload["audit_lookup"] = {
        "tasks": n_audit,
        "failures": len(tl.failures),
        "attempts": len(tl.attempts),
        "indexed_s": round(t_index, 4),
        "linear_scan_s": round(t_linear, 4),
        "audit_speedup": round(t_linear / t_index, 1),
    }
    return payload


# -- driver --------------------------------------------------------------------


def write_output(name: str, payload: dict) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _print_summary(msm: dict, eng: dict) -> None:
    ws = msm["window_sums"]
    ee = msm["end_to_end"]
    lr = msm["large_run"]
    ab = msm["affine_bucket_sum"]
    va = msm["verify_arith"]
    print(
        f"msm-backend: window sums 2^{ws['log2_points']} "
        f"{ws['scalar_s']:.2f}s -> {ws['vectorized_s']:.2f}s "
        f"({ws['window_sums_speedup']:.1f}x); end-to-end "
        f"{ee['end_to_end_speedup']:.1f}x; 2^{lr['log2_points']} run "
        f"{lr['vectorized_s']:.2f}s (budget {lr['budget_s']:.0f}s); "
        f"{ab['curve']} bucket sum XYZZ -> batched affine "
        f"{ab['affine_bucket_sum_speedup']:.2f}x; chunk verification "
        f"textbook -> shipped {va['verify_arith_speedup']:.2f}x"
    )
    sim = eng["simulate"]
    big = eng["large_run"]
    audit = eng["audit_lookup"]
    print(
        f"engine: simulate {sim['tasks']} tasks "
        f"{sim['reference_s']:.2f}s -> {sim['new_s']:.2f}s "
        f"({sim['simulate_speedup']:.2f}x); {big['tasks']} tasks in "
        f"{big['wall_s']:.2f}s (budget {big['budget_s']:.1f}s); audit "
        f"lookups {audit['audit_speedup']:.0f}x"
    )


def test_bench_vectorized(benchmark):
    eng = bench_engine(True)
    msm = benchmark.pedantic(bench_msm_backend, args=(True,), rounds=1, iterations=1)
    write_output("BENCH_msm_backend", msm)
    write_output("BENCH_engine", eng)
    assert msm["large_run"]["within_budget"]
    assert eng["large_run"]["within_budget"]


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    # engine first: the MSM section leaves hundreds of MB of long-lived
    # allocations that would slow the allocation-heavy simulate timings
    eng = bench_engine(smoke)
    path_eng = write_output("BENCH_engine", eng)
    msm = bench_msm_backend(smoke)
    path_msm = write_output("BENCH_msm_backend", msm)
    _print_summary(msm, eng)
    print(f"[saved to {path_msm} and {path_eng}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
