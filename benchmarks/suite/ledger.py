"""Per-layer wall-time ledger, timed from outside ``src/``.

``src/`` may not read a clock (its determinism lint bans it), so the
benchmark times each layer from outside: for the length of a traced pass
it rebinds every public entry point of a layer to a stack-based timing
wrapper, then puts the originals back.  A function is found wherever a
``repro.*`` module holds the same function object, which covers
``from x import f`` bindings; lazy ``from x import f`` inside a function
body reads the patched module attribute at call time.

Each wrapper charges its layer the call's *self* time: its duration
minus the durations of the wrapped calls it made.  :meth:`Ledger.run`
opens the root frame, so the layer self times of one call (``harness``
included: time inside the call but outside every wrapped entry point)
sum to that call's total exactly, in integer nanoseconds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: layer -> its public entry points, as ``module:qualname``
LAYERS: dict[str, tuple[str, ...]] = {
    "distmsm": ("repro.core.distmsm:DistMsm.execute",),
    "digits": (
        "repro.core.vectorized:window_digit_matrix",
        "repro.curves.scalar:signed_windows",
        "repro.curves.scalar:unsigned_windows",
    ),
    "encode": ("repro.curves.batch:BatchCurve.encode_affine",),
    "scatter": (
        "repro.core.vectorized:vector_scatter",
        "repro.core.scatter:naive_scatter",
        "repro.core.scatter:hierarchical_scatter",
    ),
    "bucket_sum": (
        "repro.core.vectorized:vector_bucket_sum",
        "repro.core.bucket_sum:bucket_sum",
    ),
    "combine": ("repro.core.backends:FunctionalBackend.combine_window",),
    "reduce": (
        "repro.core.bucket_reduce:cpu_bucket_reduce",
        "repro.core.bucket_reduce:cpu_window_reduce",
    ),
    "outsource": (
        "repro.msm.outsource:chunk_value",
        "repro.msm.outsource:make_response",
        "repro.msm.outsource:verify_chunk",
        "repro.msm.outsource:batch_verify",
    ),
    "msm_timeline": ("repro.core.msm_timeline:build_msm_timeline",),
    "modelcheck": ("repro.analyze.modelcheck:check_plan",),
    "engine": ("repro.engine.timeline:simulate",),
    "estimate": ("repro.core.distmsm:DistMsm.estimate",),
    "plancache": ("repro.serve.plancache:PlanCache.lookup",),
    "serve": ("repro.serve.server:MsmProofServer.serve",),
    "cluster.node": ("repro.cluster.node:ProofNode.serve",),
    "cluster.router": ("repro.cluster.router:ProofCluster.serve",),
}

#: the frame :meth:`Ledger.run` opens around a whole traced call
ROOT = "harness"
LAYER_NAMES: tuple[str, ...] = (ROOT, *LAYERS)

#: work counted at a layer boundary: amount(args, kwargs, result)
_Count = Callable[[tuple, dict, Any], int]


def _first_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0] if args else kwargs["tasks"])


def _digits_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1] if len(args) > 1 else kwargs["digits"])


#: entry point -> the counters its calls add to
COUNTS: dict[str, tuple[tuple[str, _Count], ...]] = {
    "repro.engine.timeline:simulate": (("engine.tasks", _first_len),),
    "repro.analyze.modelcheck:check_plan": (("modelcheck.tasks", _first_len),),
    **{target: (("scatter.points", _digits_len),) for target in LAYERS["scatter"]},
    "repro.serve.plancache:PlanCache.lookup": (
        ("plancache.lookups", lambda args, kwargs, result: 1),
        ("plancache.hits", lambda args, kwargs, result: int(result[1])),
    ),
}
COUNTER_NAMES = tuple(dict.fromkeys(c for pairs in COUNTS.values() for c, _ in pairs))


@dataclass
class CallLedger:
    """What one traced call spent, per layer."""

    total_ns: int = 0
    self_ns: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LAYER_NAMES, 0))
    calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LAYER_NAMES, 0))
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTER_NAMES, 0))


def _owner(target: str) -> Any:
    """The module or class that holds ``module:qualname``."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    for part in qualname.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner


def _resolve(target: str) -> tuple[Any, str, Callable]:
    """``module:qualname`` -> (owner, attribute name, plain function)."""
    owner = _owner(target)
    attr = target.split(":")[1].split(".")[-1]
    fn = vars(owner)[attr]
    if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, fn


def _repro_modules() -> list[Any]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _holders() -> list[Any]:
    """Every namespace a wrapper can sit in: repro modules, layer classes."""
    classes = [
        _owner(target)
        for targets in LAYERS.values()
        for target in targets
        if "." in target.split(":")[1]
    ]
    return _repro_modules() + classes


def leaked_wrappers() -> list[str]:
    """Every ``repro`` binding that still holds a ledger wrapper."""
    return [
        f"{holder.__name__}.{name}"
        for holder in _holders()
        for name, value in list(vars(holder).items())
        if callable(value) and hasattr(value, "__ledger_original__")
    ]


class Ledger:
    """Install timing wrappers with ``with Ledger() as ledger:``; time calls
    with :meth:`run`.  Leaving the block restores every original binding."""

    def __init__(self) -> None:
        self._stack: list[list[int]] = []
        self._call = CallLedger()

    def __enter__(self) -> "Ledger":
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    owner, attr, fn = _resolve(target)
                    wrapper = self._wrap(layer, fn, COUNTS.get(target, ()))
                    if isinstance(owner, type):
                        setattr(owner, attr, wrapper)
                        continue
                    for module in _repro_modules():
                        for name, value in list(vars(module).items()):
                            if value is fn:
                                setattr(module, name, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        # rescanning also catches modules first imported during the pass,
        # which bound a wrapper themselves
        for holder in _holders():
            for name, value in list(vars(holder).items()):
                if callable(value) and hasattr(value, "__ledger_original__"):
                    setattr(holder, name, value.__ledger_original__)

    def _wrap(
        self, layer: str, fn: Callable, counts: tuple[tuple[str, _Count], ...]
    ) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not stack:  # not inside a traced call
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                stack[-1][0] += elapsed
                call = self._call
                call.self_ns[layer] += elapsed - frame[0]
                call.calls[layer] += 1
            for counter, amount in counts:
                call.counts[counter] += amount(args, kwargs, result)
            return result

        timed.__ledger_original__ = fn  # type: ignore[attr-defined]
        return timed

    def run(self, fn: Callable[[], Any]) -> tuple[Any, CallLedger]:
        """Call ``fn()`` as one traced call; returns (result, its ledger)."""
        if self._stack:
            raise RuntimeError("Ledger.run does not nest")
        self._call = call = CallLedger()
        root = [0]
        self._stack.append(root)
        start = time.perf_counter_ns()
        try:
            result = fn()
        finally:
            call.total_ns = time.perf_counter_ns() - start
            self._stack.clear()
        call.self_ns[ROOT] = call.total_ns - root[0]
        call.calls[ROOT] = 1
        return result, call
