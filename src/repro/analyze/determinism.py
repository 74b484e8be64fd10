"""Determinism linter: AST passes against nondeterminism sources.

The repo's headline guarantees — bit-exact recovery, byte-deterministic
Chrome traces, golden result files — only hold if no code path consults
hidden global state.  Four rules cover the ways Python lets that happen:

* ``det-unseeded-rng`` — module-level ``random.*`` / ``numpy.random.*``
  calls and seedless ``random.Random()`` / ``default_rng()`` draws
  consume process-global or OS-entropy state; every RNG in this codebase
  must be an explicit, seeded ``random.Random(seed)``.
* ``det-wall-clock`` — ``time.time()``, ``datetime.now()`` and friends
  read the host clock; all times here come from the simulated engine
  clock, so any wall-clock read is a modelling bug.
* ``det-set-iteration`` — ``set``/``frozenset`` iteration order depends
  on element hashes, and str hashing is salted per process
  (PYTHONHASHSEED), so iterating a set in an order-sensitive position
  breaks cross-process byte-determinism.  Iteration feeding an
  **order-insensitive reducer** (``sum``/``min``/``max``/``len``/``any``/
  ``all``/``set``/``frozenset``) or wrapped in ``sorted()`` is exempt;
  ``dict`` iteration is insertion-ordered and therefore deterministic,
  which is why the convention fix is ``dict.fromkeys(...)`` rather than
  ``sorted(...)`` where insertion order is the intended order.
* ``det-mutable-default`` — a ``[]``/``{}``/``set()`` default is shared
  across calls; state leaks between invocations.
* ``det-unstable-argsort`` — ``argsort`` without ``kind="stable"`` leaves
  the order of equal keys to the partitioning algorithm, which varies
  across numpy versions and platforms.  The batch MSM kernels group
  bucket members by a stable argsort precisely so the vectorized path
  accumulates points in the same order as the scalar loops — an unstable
  sort silently voids that bit-exactness contract.

The RNG rule also understands the from-import spellings
(``from random import Random``, ``from numpy.random import default_rng``)
so the numpy batch modules can't smuggle in a seedless generator under a
bare name.

Inference is local and syntactic on purpose: a name counts as a set only
when the same function assigned it a set-valued expression.  That keeps
the pass fast and the false-positive rate at zero on this tree, at the
cost of missing sets that cross function boundaries.
"""

from __future__ import annotations

import ast

from repro.analyze.finding import Finding

#: module-level random functions that consume the global Mersenne state
_RANDOM_MODULE_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "vonmisesvariate", "paretovariate",
        "weibullvariate", "lognormvariate", "getrandbits", "randbytes",
        "seed",
    }
)

#: numpy.random legacy functions using the hidden global BitGenerator
_NUMPY_RANDOM_FNS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "choice",
        "shuffle", "permutation", "uniform", "normal", "standard_normal",
        "seed", "bytes",
    }
)

#: (module, attribute) pairs that read the host clock
_WALL_CLOCK = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "process_time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: callables whose result does not depend on argument order
_ORDER_INSENSITIVE = frozenset(
    {"sum", "min", "max", "len", "any", "all", "set", "frozenset", "sorted"}
)

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` as a string, None for non-trivial expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST, set_names: frozenset[str]) -> bool:
    """Syntactic evidence that ``node`` evaluates to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = _dotted(node.func)
        if callee in ("set", "frozenset"):
            return True
        # set-returning methods on an expression already known to be a set
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
            "copy",
        ):
            return _is_set_expr(node.func.value, set_names)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_walk(root: ast.AST):
    """Walk ``root`` without descending into nested scopes.

    Name bindings in a nested function or class body belong to that
    scope, not to ``root``'s — a dataclass field annotated ``frozenset``
    must not make a same-named parameter elsewhere look like a set.
    """
    pending = [root]
    while pending:
        node = pending.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            pending.append(child)


def _local_set_names(scope: ast.AST) -> frozenset[str]:
    """Names assigned a set-valued expression within ``scope`` itself.

    One fixpoint-free pass is enough for the syntactic forms we track
    (chains like ``a = set(...); b = a | other`` resolve in order).
    Closure-captured sets of an enclosing scope are deliberately not
    tracked: local, syntactic inference keeps false positives at zero.
    """
    names: set[str] = set()
    for node in _scope_walk(scope):
        if isinstance(node, ast.Assign) and _is_set_expr(
            node.value, frozenset(names)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value, frozenset(names)) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
    return frozenset(names)


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _bare_rng_imports(tree: ast.AST) -> frozenset[str]:
    """Local names bound to ``random.Random`` / ``numpy.random.default_rng``
    via from-imports, so seedless calls under bare names are still caught."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if (node.module == "random" and alias.name == "Random") or (
                node.module in ("numpy.random", "numpy")
                and alias.name == "default_rng"
            ):
                names.add(alias.asname or alias.name)
    return frozenset(names)


def _check_rng(path: str, tree: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    bare_rngs = _bare_rng_imports(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _dotted(node.func)
        if callee is None:
            continue
        if callee in bare_rngs and not node.args and not node.keywords:
            findings.append(
                Finding(
                    "det-unseeded-rng", path, node.lineno,
                    f"{callee}() without a seed draws OS entropy; pass an "
                    "explicit seed",
                )
            )
        elif callee == "random.Random" and not node.args and not node.keywords:
            findings.append(
                Finding(
                    "det-unseeded-rng", path, node.lineno,
                    "random.Random() without a seed draws OS entropy; pass "
                    "an explicit seed",
                )
            )
        elif callee.split(".", 1)[0] == "random" and callee.count(".") == 1:
            fn = callee.split(".")[1]
            if fn in _RANDOM_MODULE_FNS:
                findings.append(
                    Finding(
                        "det-unseeded-rng", path, node.lineno,
                        f"random.{fn}() uses the process-global RNG; use a "
                        "seeded random.Random instance",
                    )
                )
        elif callee.endswith(".random.default_rng") and not node.args:
            findings.append(
                Finding(
                    "det-unseeded-rng", path, node.lineno,
                    "default_rng() without a seed draws OS entropy; pass an "
                    "explicit seed",
                )
            )
        elif ".random." in callee:
            head, fn = callee.rsplit(".", 1)
            if head.endswith(".random") and fn in _NUMPY_RANDOM_FNS:
                findings.append(
                    Finding(
                        "det-unseeded-rng", path, node.lineno,
                        f"{callee}() uses numpy's hidden global generator; "
                        "construct a seeded Generator instead",
                    )
                )
    return findings


def _check_wall_clock(path: str, tree: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _dotted(node.func)
        if callee is None or "." not in callee:
            continue
        head, fn = callee.rsplit(".", 1)
        base = head.rsplit(".", 1)[-1]
        if (base, fn) in _WALL_CLOCK:
            findings.append(
                Finding(
                    "det-wall-clock", path, node.lineno,
                    f"{callee}() reads the host clock; all times must come "
                    "from the simulated engine clock",
                )
            )
    return findings


def _check_set_iteration(path: str, tree: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    parents = _parent_map(tree)
    scopes: list[ast.AST] = [
        n for n in ast.walk(tree) if isinstance(n, (ast.Module, *_SCOPE_NODES))
    ]

    def flag(node: ast.AST, what: str) -> None:
        findings.append(
            Finding(
                "det-set-iteration", path, node.lineno,
                f"{what} iterates a set whose order is hash-dependent; "
                "wrap in sorted() or build with dict.fromkeys()",
            )
        )

    seen: set[ast.AST] = set()
    for scope in scopes:
        set_names = _local_set_names(scope)
        for node in _scope_walk(scope):
            if node in seen:
                continue
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter, set_names):
                    seen.add(node)
                    flag(node, "for statement")
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                first = node.generators[0]
                if not _is_set_expr(first.iter, set_names):
                    continue
                if isinstance(node, ast.GeneratorExp):
                    parent = parents.get(node)
                    if (
                        isinstance(parent, ast.Call)
                        and _dotted(parent.func) in _ORDER_INSENSITIVE
                    ):
                        continue  # sum(1 for v in set(...)) et al. are fine
                seen.add(node)
                kind = {
                    ast.ListComp: "list comprehension",
                    ast.DictComp: "dict comprehension",
                    ast.GeneratorExp: "generator expression",
                }[type(node)]
                flag(node, kind)
            elif isinstance(node, ast.Starred) and _is_set_expr(
                node.value, set_names
            ):
                seen.add(node)
                flag(node, "starred unpacking")
    return findings


def _check_mutable_default(path: str, tree: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and _dotted(default.func) in ("list", "dict", "set")
                and not default.args
                and not default.keywords
            )
            if mutable:
                findings.append(
                    Finding(
                        "det-mutable-default", path, default.lineno,
                        f"function {node.name!r} has a mutable default "
                        "argument shared across calls; default to None",
                    )
                )
    return findings


#: sort kinds numpy documents as stable (mergesort is an alias of stable)
_STABLE_SORT_KINDS = frozenset({"stable", "mergesort"})


def _check_unstable_argsort(path: str, tree: ast.AST) -> list[Finding]:
    """Flag ``argsort`` calls that do not pin a stable sort kind.

    The vectorized MSM kernels replay the scalar loops' accumulation
    order by grouping bucket members with a stable argsort; the default
    introsort breaks ties in an order that changes across numpy builds,
    so any unpinned ``argsort`` is a latent bit-exactness bug.
    """
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _dotted(node.func)
        if callee is None or callee.rsplit(".", 1)[-1] != "argsort":
            continue
        kind = next(
            (kw.value for kw in node.keywords if kw.arg == "kind"), None
        )
        if (
            isinstance(kind, ast.Constant)
            and kind.value in _STABLE_SORT_KINDS
        ):
            continue
        findings.append(
            Finding(
                "det-unstable-argsort", path, node.lineno,
                "argsort without kind='stable' leaves equal-key order to "
                "the partitioning algorithm (varies across numpy builds); "
                "pass kind='stable' to keep batch results bit-exact",
            )
        )
    return findings


def lint(path: str, tree: ast.AST) -> list[Finding]:
    """Run every determinism rule over one parsed module."""
    return (
        _check_rng(path, tree)
        + _check_wall_clock(path, tree)
        + _check_set_iteration(path, tree)
        + _check_mutable_default(path, tree)
        + _check_unstable_argsort(path, tree)
    )
