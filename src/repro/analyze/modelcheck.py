"""Pre-flight model checking of engine task graphs (before ``simulate``).

:func:`repro.engine.timeline.simulate` is trusting: it only discovers a
dependency cycle after scheduling everything schedulable (partial work,
then ``ValueError``), it treats a misspelt dependency as one more node
that never finishes, and its readiness-FIFO dispatch deliberately
*reorders* within a resource — which hides plans that would deadlock on
real hardware, where a CUDA stream executes strictly in submission order.

:func:`check_plan` validates a task list before any simulation happens:

* **structure** — duplicate task names, dependencies on names no task
  carries;
* **liveness** — dependency cycles (with a concrete cycle in the
  message) and tasks that can never become ready because they sit on or
  behind a cycle;
* **FIFO-stream deadlock** — a cycle in the union of dependency edges
  and per-resource *submission-order* edges (task ``i`` precedes task
  ``i+1`` submitted to the same resource).  Such a plan simulates fine
  here but hangs on an in-order stream: the earlier-submitted task waits
  on work queued behind it.  Emitting tasks in topological order keeps
  every plan free of these by construction;
* **``requires_alive`` cascade consistency** — each required resource
  must execute something in the task's dependency closure (that is what
  ties the death cascade to an actual data hazard); naming the task's own
  resource is redundant; naming a resource that runs nothing in the plan
  is almost certainly a typo that silently disables the cascade.

Structure and liveness problems are ``error`` severity and raise
:class:`PlanError` from the orchestration call sites; the
``requires_alive`` rules are ``warning`` severity — the plan still
simulates correctly, it just guards less than its author thought.

:class:`PlanChecker` runs the same checks on a plan that grows by
appends (the proof server's timeline); :func:`check_plan` is its
one-shot form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.analyze.finding import Finding

if TYPE_CHECKING:
    from repro.engine.timeline import Task

#: BFS node budget for the dependency-closure search of one requires_alive
#: entry; beyond this the rule abstains rather than going quadratic.
_CLOSURE_VISIT_CAP = 4096


class PlanError(ValueError):
    """A task plan failed pre-flight validation."""

    def __init__(self, findings: list[Finding]):
        self.findings = findings
        super().__init__(
            "; ".join(str(f) for f in findings) or "plan check failed"
        )


@dataclass
class PlanCheckResult:
    """Outcome of one :func:`check_plan` run."""

    label: str
    findings: list[Finding] = field(default_factory=list)
    tasks: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


def _find_cycle(
    nodes: list[str], edges: dict[str, list[str]]
) -> list[str] | None:
    """One concrete cycle in the directed graph, or None.

    Iterative three-colour DFS; returns the cycle as a node list with the
    entry node repeated at the end (``a -> b -> a``).
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {n: WHITE for n in nodes}
    parent: dict[str, str] = {}
    for root in nodes:
        if colour[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        colour[root] = GREY
        while stack:
            node, edge_idx = stack[-1]
            successors = edges.get(node, [])
            if edge_idx < len(successors):
                stack[-1] = (node, edge_idx + 1)
                succ = successors[edge_idx]
                if colour.get(succ, BLACK) == GREY:
                    cycle = [succ, node]
                    walker = node
                    while walker != succ:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
                if colour.get(succ, BLACK) == WHITE:
                    colour[succ] = GREY
                    parent[succ] = node
                    stack.append((succ, 0))
            else:
                colour[node] = BLACK
                stack.pop()
    return None


def _kahn_stuck(tasks: list[Task]) -> set[str]:
    """Task names that never become ready (on or behind a dep cycle)."""
    indegree = {t.name: 0 for t in tasks}
    dependants: dict[str, list[str]] = {t.name: [] for t in tasks}
    for t in tasks:
        for dep in dict.fromkeys(t.deps):
            if dep in indegree:
                indegree[t.name] += 1
                dependants[dep].append(t.name)
    queue = [name for name, deg in indegree.items() if deg == 0]
    done = 0
    while queue:
        name = queue.pop()
        done += 1
        for dependant in dependants[name]:
            indegree[dependant] -= 1
            if indegree[dependant] == 0:
                queue.append(dependant)
        indegree[name] = -1
    return {name for name, deg in indegree.items() if deg > 0}


def check_plan(
    tasks: list[Task] | tuple[Task, ...], label: str = "<plan>"
) -> PlanCheckResult:
    """Validate a task plan; raise :class:`PlanError` on any error finding.

    Returns the full :class:`PlanCheckResult` (including warnings) when
    the plan is structurally sound.  The one-shot form of
    :class:`PlanChecker`: one append of the whole plan.
    """
    return PlanChecker(label).add(tasks)


class PlanChecker:
    """Incremental :func:`check_plan` over a plan that grows by appends.

    :meth:`add` checks the appended tasks against the accepted ones and
    accepts them only if the whole plan would pass :func:`check_plan`.
    The cycle and in-order-stream searches run over the whole plan only
    when an appended task depends on itself or on a later submission:
    when every dependency and every stream-order edge points to an
    earlier submission, the graph has no cycle.  The ``requires_alive``
    warnings judge each appended task against the plan accepted so far.
    """

    def __init__(self, label: str = "<plan>") -> None:
        self.result = PlanCheckResult(label=label)
        self._tasks: list[Task] = []
        #: task name -> submission position among the accepted names
        self._position: dict[str, int] = {}
        self._dep_edges: dict[str, list[str]] = {}
        self._resource_of: dict[str, str] = {}
        self._running: set[str] = set()

    def add(self, tasks: list[Task] | tuple[Task, ...]) -> PlanCheckResult:
        """Accept ``tasks`` after the accepted plan; raise :class:`PlanError`
        (accepting nothing) on any error finding.  Returns the cumulative
        result."""
        label = self.result.label
        findings: list[Finding] = []

        def report(rule: str, message: str, severity: str = "error") -> None:
            findings.append(Finding(rule, label, 0, message, severity=severity))

        # -- structure ----------------------------------------------------
        accepted = self._position
        appended: dict[str, int] = {}
        for t in tasks:
            first = accepted.get(t.name, appended.get(t.name))
            if first is not None:
                report(
                    "plan-duplicate-task",
                    f"task name {t.name!r} used by submissions "
                    f"#{first} and #{len(accepted) + len(appended)}",
                )
            else:
                appended[t.name] = len(accepted) + len(appended)
        forward = False
        for t in tasks:
            own = appended.get(t.name, -1)
            for dep in dict.fromkeys(t.deps):
                at = accepted.get(dep, appended.get(dep))
                if at is None:
                    report(
                        "plan-unknown-dep",
                        f"task {t.name!r} depends on {dep!r}, which no task "
                        "in the plan carries",
                    )
                elif at >= own:
                    forward = True
        if findings:
            raise PlanError(findings)

        new_edges = {t.name: list(dict.fromkeys(t.deps)) for t in tasks}
        if forward:
            self._check_cycles(
                [*self._tasks, *tasks], {**self._dep_edges, **new_edges}, report
            )
            if findings:
                raise PlanError(findings)

        # -- accepted: extend the plan ------------------------------------
        self._tasks.extend(tasks)
        accepted.update(appended)
        dep_edges = self._dep_edges
        dep_edges.update(new_edges)
        resource_of = self._resource_of
        resource_of.update((t.name, t.resource.name) for t in tasks)
        resources_running = self._running
        resources_running.update(t.resource.name for t in tasks)

        # -- requires_alive cascade consistency ---------------------------
        for t in tasks:
            for required in dict.fromkeys(t.requires_alive):
                if required == t.resource.name:
                    report(
                        "plan-requires-alive-redundant",
                        f"task {t.name!r} requires its own resource "
                        f"{required!r} alive (always implied)",
                        severity="warning",
                    )
                    continue
                if required not in resources_running:
                    report(
                        "plan-requires-alive-unknown",
                        f"task {t.name!r} requires {required!r} alive, but "
                        "that resource executes nothing in this plan "
                        "(typo? the death cascade would never fire)",
                        severity="warning",
                    )
                    continue
                # the hazard must be real: something in the dependency
                # closure has to run on the required resource
                seen = {t.name}
                frontier = list(dep_edges[t.name])
                hazard = False
                while frontier and len(seen) < _CLOSURE_VISIT_CAP:
                    name = frontier.pop()
                    if name in seen:
                        continue
                    seen.add(name)
                    if resource_of[name] == required:
                        hazard = True
                        break
                    frontier.extend(dep_edges[name])
                if not hazard and len(seen) < _CLOSURE_VISIT_CAP:
                    report(
                        "plan-requires-alive-unrelated",
                        f"task {t.name!r} requires {required!r} alive, but no "
                        "dependency of the task runs there — the cascade "
                        "guards no data hazard",
                        severity="warning",
                    )

        self.result.findings.extend(findings)
        self.result.tasks = len(self._tasks)
        return self.result

    @staticmethod
    def _check_cycles(
        tasks: list[Task],
        dep_edges: dict[str, list[str]],
        report: Callable[[str, str], None],
    ) -> None:
        """Report dependency cycles (liveness), else in-order-stream deadlocks."""
        stuck = _kahn_stuck(tasks)
        if stuck:
            cycle = _find_cycle(sorted(stuck), dep_edges)
            if cycle is not None:
                report(
                    "plan-cycle",
                    "dependency cycle: " + " -> ".join(cycle),
                )
                on_cycle = set(cycle)
            else:  # unreachable in practice: stuck implies a cycle exists
                on_cycle = set()
            for name in sorted(stuck - on_cycle):
                report(
                    "plan-unreachable",
                    f"task {name!r} can never become ready (behind the cycle)",
                )
            return

        # FIFO-stream deadlock: strict in-order streams make each later
        # submission wait for the earlier one on its resource, checked as
        # "later depends on earlier" to match dep-edge direction
        fifo_edges = {name: list(edges) for name, edges in dep_edges.items()}
        last_on_resource: dict[str, str] = {}
        for t in tasks:
            res = t.resource.name
            if res in last_on_resource:
                fifo_edges[t.name].append(last_on_resource[res])
            last_on_resource[res] = t.name
        fifo_cycle = _find_cycle([t.name for t in tasks], fifo_edges)
        if fifo_cycle is not None:
            report(
                "plan-fifo-deadlock",
                "deadlock under strict in-order streams: "
                + " -> ".join(fifo_cycle)
                + " (reorder submissions topologically)",
            )
