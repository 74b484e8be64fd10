"""The rule registry: every analysis rule, its family, and its scope.

Rules are declared statically so the catalog is inspectable without
running anything (``python -m repro.analyze --list-rules``) and DESIGN.md
§12's rule table has a single source of truth.

Two scopes exist:

* ``source`` rules run as AST passes over the Python files handed to the
  CLI (the determinism linter and the unit-consistency dataflow);
* ``program`` rules run over *imported artifacts* of the program itself —
  the kernel op DAGs under the interval abstract interpreter, and
  representative engine task graphs under the pre-flight model checker.
"""

from __future__ import annotations

from dataclasses import dataclass

#: rule families, in the order the driver runs them
FAMILIES = ("determinism", "units", "intervals", "plan")


@dataclass(frozen=True)
class Rule:
    """One registered analysis rule."""

    name: str
    family: str
    scope: str  # "source" | "program"
    description: str

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.scope not in ("source", "program"):
            raise ValueError(f"unknown scope {self.scope!r}")


_RULES = (
    # -- determinism linter (AST) -----------------------------------------
    Rule(
        "det-unseeded-rng",
        "determinism",
        "source",
        "module-level random.* / numpy.random.* calls and seedless "
        "random.Random() / default_rng() constructions draw from hidden "
        "global or OS-entropy state",
    ),
    Rule(
        "det-wall-clock",
        "determinism",
        "source",
        "wall-clock reads (time.time, time.perf_counter, datetime.now, "
        "...) leak host time into a simulated-clock codebase",
    ),
    Rule(
        "det-set-iteration",
        "determinism",
        "source",
        "iterating a set/frozenset in an order-sensitive position; "
        "str-hash randomisation makes the order vary across processes "
        "unless wrapped in sorted()",
    ),
    Rule(
        "det-mutable-default",
        "determinism",
        "source",
        "mutable default argument ([], {}, set(), list(), dict()) is "
        "shared across calls",
    ),
    Rule(
        "det-unstable-argsort",
        "determinism",
        "source",
        "argsort without kind='stable' leaves equal-key order to the "
        "partitioning algorithm; the vectorized batch kernels need "
        "stable grouping to stay bit-exact with the scalar loops",
    ),
    # -- unit-consistency dataflow (AST) ----------------------------------
    Rule(
        "unit-mixed-arith",
        "units",
        "source",
        "adding or subtracting values whose unit suffixes disagree "
        "(ms vs sec, ms vs bytes, ...)",
    ),
    Rule(
        "unit-mixed-compare",
        "units",
        "source",
        "comparing values whose unit suffixes disagree",
    ),
    Rule(
        "unit-mixed-assign",
        "units",
        "source",
        "assigning a value of one unit to a name suffixed with another",
    ),
    Rule(
        "unit-mixed-call",
        "units",
        "source",
        "passing a value of one unit to a parameter suffixed with another",
    ),
    Rule(
        "unit-return",
        "units",
        "source",
        "returning a value whose unit disagrees with the function's own "
        "unit suffix",
    ),
    # -- interval abstract interpreter (program) --------------------------
    Rule(
        "interval-overflow",
        "intervals",
        "program",
        "an intermediate of the kernel op DAG exceeds its Montgomery "
        "bound (product, reduction sum, or pre-subtraction residue)",
    ),
    Rule(
        "interval-tc-accumulator",
        "intervals",
        "program",
        "a tensor-core byte-product accumulator can exceed uint32",
    ),
    Rule(
        "interval-register-peak",
        "intervals",
        "program",
        "the independently re-derived register-liveness peak disagrees "
        "with the paper's published figure",
    ),
    # -- pre-flight task-graph model checker (program) --------------------
    Rule(
        "plan-duplicate-task",
        "plan",
        "program",
        "two tasks share one name",
    ),
    Rule(
        "plan-unknown-dep",
        "plan",
        "program",
        "a task depends on a name no task in the plan carries",
    ),
    Rule(
        "plan-cycle",
        "plan",
        "program",
        "the dependency graph has a cycle; simulate() would abort after "
        "doing partial work",
    ),
    Rule(
        "plan-unreachable",
        "plan",
        "program",
        "a task can never become ready (it sits on or behind a cycle)",
    ),
    Rule(
        "plan-fifo-deadlock",
        "plan",
        "program",
        "under strict in-order (submission-order) stream semantics the "
        "plan deadlocks, even though the simulator's readiness reordering "
        "hides it",
    ),
    Rule(
        "plan-requires-alive-unknown",
        "plan",
        "program",
        "requires_alive names a resource that executes nothing in the "
        "plan; a typo here silently disables the death cascade",
    ),
    Rule(
        "plan-requires-alive-redundant",
        "plan",
        "program",
        "requires_alive lists the task's own executing resource",
    ),
    Rule(
        "plan-requires-alive-unrelated",
        "plan",
        "program",
        "requires_alive names a resource that neither the task nor its "
        "dependency closure ever executes on — the hazard guards nothing",
    ),
)


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in catalog order."""
    return _RULES
