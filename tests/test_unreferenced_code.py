"""Guard against code that only tests reach, and settings nobody sets.

Every function, class and method defined in ``src/repro`` must be
referenced by the program itself: by ``src/``, ``benchmarks/`` (the suite's
own ``test_*.py`` excepted) or ``examples/``.  A reference is a name or an
attribute spelling the definition's name outside the definition's own
body; imports, ``__all__`` strings and docstrings do not count.  Code that
only tests use either moves into ``tests/`` (when it is a test oracle) or
goes.  A name the scan cannot see used stays only on :data:`ALLOWED`, with
the reason.

Every optional parameter of a ``src/repro`` function must be passed by
some call, tests included: a parameter nobody passes is a constant behind
a parameter, and belongs next to its reader (DESIGN.md §3 lists the ones
that moved).  A pass the scan cannot see stays only on
:data:`ALLOWED_PARAMETERS`, with the reason.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: definitions kept although no program file references them by name
ALLOWED = {
    "critical_path": "README.md shows Timeline.critical_path()",
    "save": "README.md shows ClusterTrace.save(); it writes what cluster-replay loads",
    "mont_mul_cios": "bench_ablations.py and bench_field_ops.py call getattr(ctx, f'mont_mul_{method}')",
    "mont_mul_fios": "bench_ablations.py and bench_field_ops.py call getattr(ctx, f'mont_mul_{method}')",
}


def _program_files():
    yield from sorted(SRC.rglob("*.py"))
    for path in sorted((ROOT / "benchmarks").rglob("*.py")):
        if not (path.parent.name == "suite" and path.name.startswith("test_")):
            yield path
    yield from sorted((ROOT / "examples").glob("*.py"))


def unreferenced_definitions(files=None, src=SRC, allowed=ALLOWED) -> list[str]:
    """``path:line name`` of every src definition nothing else references.

    ``files`` are the program files (by default the repository's), of which
    those under ``src`` define; paths print relative to ``src``'s grandparent.
    """
    defs = []
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in _program_files() if files is None else files:
        in_src = path.is_relative_to(src)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
            elif in_src and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defs.append((path, node))
    defined = {node.name for _, node in defs}
    found = [f"ALLOWED lists {name}, which is not defined" for name in sorted(set(allowed) - defined)]
    for path, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue  # the language calls dunders
        if name in allowed:
            continue
        if not any(
            ref_path != path or not node.lineno <= line <= node.end_lineno
            for ref_path, line in refs.get(name, ())
        ):
            found.append(f"{path.relative_to(src.parents[1])}:{node.lineno} {name}")
    return found


def test_every_definition_is_referenced_by_the_program():
    assert unreferenced_definitions() == []


#: ``qualname(parameter)`` kept although the scan sees no call passing it
ALLOWED_PARAMETERS = {
    **dict.fromkeys(
        (f"SimulatedGpu.global_unsynced_add({p})" for p in ("value", "region", "block", "thread")),
        "core/scatter.py passes all four positionally through the alias "
        "bump = gpu.global_atomic_add if use_atomics else gpu.global_unsynced_add",
    ),
    "diurnal_burst_trace(tenant_mix)": "README.md's cluster example passes tenant_mix=",
}


def _caller_files():
    yield from _program_files()
    yield from sorted((ROOT / "benchmarks" / "suite").glob("test_*.py"))
    yield from sorted((ROOT / "tests").rglob("*.py"))


class _Signature:
    """The parameters of one ``def`` that a call may leave out, and who passes them."""

    def __init__(self, path, node, qualname, method):
        args = node.args
        positional = args.posonlyargs + args.args
        if method and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        ):
            positional = positional[1:]  # self or cls
        self.path, self.line, self.qualname = path, node.lineno, qualname
        self.positional = [a.arg for a in positional]
        self.named = set(self.positional) | {a.arg for a in args.kwonlyargs}
        self.optional = self.positional[len(self.positional) - len(args.defaults) :]
        self.optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        self.varargs = "*" + args.vararg.arg if args.vararg else None
        self.kwargs = "**" + args.kwarg.arg if args.kwarg else None
        self.optional += [p for p in (self.varargs, self.kwargs) if p]
        self.passed: set[str] = set()
        #: keywords callers put into ``**kwargs``; None once one may pass anything
        self.received: set[str] | None = set()

    def take(self, positional, keywords, anything=False):
        """Record a call passing ``positional`` arguments and ``keywords``.

        ``anything`` is a ``*x`` or ``**x`` the scan cannot see into.
        """
        if anything:
            self.passed.update(self.optional)
            self.received = None
            return
        self.passed.update(self.positional[:positional])
        if positional > len(self.positional) and self.varargs:
            self.passed.add(self.varargs)
        for keyword in keywords:
            if keyword in self.named:
                self.passed.add(keyword)
            elif self.kwargs:
                self.passed.add(self.kwargs)
                if self.received is not None:
                    self.received.add(keyword)

    def key(self, param):
        return f"{self.qualname}({param})"

    def progress(self):
        return len(self.passed), -1 if self.received is None else len(self.received)


def _signatures(path, tree):
    """``(name, node, signature)`` of each ``def``, under the name its callers spell.

    A method answers to its own name and ``__init__`` to its class's name.
    Other dunders are called by the language, so they are skipped.
    """

    def walk(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                sig = _Signature(path, child, prefix + name, cls is not None)
                if name == "__init__":
                    yield cls, child, sig
                elif not (name.startswith("__") and name.endswith("__")):
                    yield name, child, sig
                yield from walk(child, f"{prefix}{name}.", None)

    yield from walk(tree, "", None)


def _calls(node, scope=None):
    """``(call, innermost enclosing def)`` of every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(child, ast.Call):
            yield child, scope
        yield from _calls(child, inner)


def _pedantic_call(call):
    """``(callee, positional, keywords, anything)`` of the call that
    pytest-benchmark's ``benchmark.pedantic(f, args=(...), kwargs={...})``
    makes of ``f``, or None when ``call`` is no such call.

    ``anything`` is set when ``args`` or ``kwargs`` is not a literal the
    scan can count (a name, a starred element, a ``**`` entry).
    """
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "pedantic" and call.args):
        return None
    target = call.args[0]
    callee = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
    given = dict(zip(("args", "kwargs"), call.args[1:]))
    given.update((k.arg, k.value) for k in call.keywords if k.arg in ("args", "kwargs"))
    positional, keywords, anything = 0, set(), False
    args = given.get("args")
    if isinstance(args, (ast.Tuple, ast.List)) and not any(
        isinstance(e, ast.Starred) for e in args.elts
    ):
        positional = len(args.elts)
    elif args is not None:
        anything = True
    kwargs = given.get("kwargs")
    if isinstance(kwargs, ast.Dict) and all(
        isinstance(k, ast.Constant) and isinstance(k.value, str) for k in kwargs.keys
    ):
        keywords = {k.value for k in kwargs.keys}
    elif kwargs is not None and not (isinstance(kwargs, ast.Constant) and kwargs.value is None):
        anything = True
    return callee, positional, keywords, anything


def never_passed_parameters(files=None, src=SRC, allowed=ALLOWED_PARAMETERS) -> list[str]:
    """``path:line qualname(parameter)`` of every optional src parameter no call passes.

    ``files`` are every file that may call (by default the repository's
    program files and tests), of which those under ``src`` define.  A call
    matches a definition by the callee's name (a name or an attribute), so
    any call of that name anywhere clears the parameters it passes by
    keyword or by position; a ``*x`` or ``**x`` argument clears them all.
    ``benchmark.pedantic(f, args=..., kwargs=...)`` counts as a call of
    ``f`` with those arguments.
    ``*args`` and ``**kwargs`` are optional parameters too.  A src
    function that forwards its own ``**kwargs`` passes on only the
    keywords its callers put there.
    """
    trees = [
        (path, ast.parse(path.read_text(), str(path)))
        for path in (_caller_files() if files is None else files)
    ]
    by_name: dict[str, list[_Signature]] = {}
    by_node: dict[ast.AST, _Signature] = {}
    for path, tree in trees:
        if path.is_relative_to(src):
            for name, node, sig in _signatures(path, tree):
                by_name.setdefault(name, []).append(sig)
                by_node[node] = sig
    forwards = []
    for _, tree in trees:
        for call, scope in _calls(tree):
            pedantic = _pedantic_call(call)
            if pedantic is not None:
                callee, positional, keywords, anything = pedantic
                for sig in by_name.get(callee, ()):
                    sig.take(positional, keywords, anything)
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            targets = by_name.get(name, ())
            keywords = {k.arg for k in call.keywords if k.arg is not None}
            unpacked = [k.value for k in call.keywords if k.arg is None]
            unpacked += [a for a in call.args if isinstance(a, ast.Starred)]
            forwarder = by_node.get(scope)
            if (
                forwarder is not None
                and forwarder.kwargs
                and len(unpacked) == 1
                and isinstance(unpacked[0], ast.Name)
                and "**" + unpacked[0].id == forwarder.kwargs
            ):
                forwards += [(forwarder, sig, len(call.args), keywords) for sig in targets]
                continue
            for sig in targets:
                sig.take(len(call.args), keywords, anything=bool(unpacked))
    changed = True
    while changed:  # until every forwarded keyword has reached its target
        changed = False
        for forwarder, sig, positional, keywords in forwards:
            before = sig.progress()
            received = forwarder.received
            sig.take(positional, keywords | (received or set()), anything=received is None)
            changed |= before != sig.progress()
    sigs = list(by_node.values())
    params = {sig.key(p) for sig in sigs for p in sig.optional}
    found = [
        f"ALLOWED_PARAMETERS lists {key}, which is not a parameter"
        for key in sorted(set(allowed) - params)
    ]
    for sig in sorted(sigs, key=lambda s: (str(s.path), s.line)):
        for param in sig.optional:
            if param not in sig.passed and sig.key(param) not in allowed:
                found.append(f"{sig.path.relative_to(src.parents[1])}:{sig.line} {sig.key(param)}")
    return found


def test_every_optional_parameter_is_passed_by_some_caller():
    assert never_passed_parameters() == []


def test_every_dunder_all_entry_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"{info.name}.{name}")
    assert missing == []


def _tree(tmp_path, src_text, program_text):
    """One defining module plus one program file that uses it."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(src_text)
    (tmp_path / "use.py").write_text(program_text)
    return [src / "mod.py", tmp_path / "use.py"], src


def _scan(tmp_path, src_text, program_text="", allowed=()):
    """Scan one defining module plus one referencing program file."""
    files, src = _tree(tmp_path, src_text, program_text)
    return unreferenced_definitions(files, src, dict.fromkeys(allowed, "reason"))


class TestWhatCountsAsAReference:
    def test_a_call_from_another_file_counts(self, tmp_path):
        assert _scan(tmp_path, "def f():\n    pass\n", "f()\n") == []

    def test_an_attribute_counts(self, tmp_path):
        src = "class C:\n    def m(self):\n        pass\n"
        assert _scan(tmp_path, src, "C().m()\n") == []

    def test_an_unused_definition_is_reported_with_its_line(self, tmp_path):
        src = "x = 1\n\ndef f():\n    pass\n"
        assert _scan(tmp_path, src) == ["src/repro/mod.py:3 f"]

    def test_recursion_inside_its_own_body_does_not_count(self, tmp_path):
        src = "def f(n):\n    return f(n - 1) if n else 0\n"
        assert _scan(tmp_path, src) == ["src/repro/mod.py:1 f"]

    def test_an_import_does_not_count(self, tmp_path):
        assert _scan(tmp_path, "def f():\n    pass\n", "from repro.mod import f\n") == [
            "src/repro/mod.py:1 f"
        ]

    def test_all_strings_and_docstrings_do_not_count(self, tmp_path):
        src = '__all__ = ["f"]\n\ndef f():\n    pass\n'
        program = 'def g():\n    """Calls f."""\n\ng()\n'
        assert _scan(tmp_path, src, program) == ["src/repro/mod.py:3 f"]

    def test_dunders_are_exempt(self, tmp_path):
        src = "class C:\n    def __repr__(self):\n        return 'C'\n"
        assert _scan(tmp_path, src, "C\n") == []


class TestAllowlist:
    def test_an_allowed_name_passes(self, tmp_path):
        assert _scan(tmp_path, "def f():\n    pass\n", allowed=["f"]) == []

    def test_a_stale_entry_is_reported(self, tmp_path):
        assert _scan(tmp_path, "def f():\n    pass\n", "f()\n", allowed=["gone"]) == [
            "ALLOWED lists gone, which is not defined"
        ]

    def test_every_entry_gives_a_reason(self):
        assert all(reason.strip() for reason in ALLOWED.values())


def _scan_parameters(tmp_path, src_text, program_text="", allowed=()):
    """Scan one defining module plus one calling file."""
    files, src = _tree(tmp_path, src_text, program_text)
    return never_passed_parameters(files, src, dict.fromkeys(allowed, "reason"))


F = "def f(a, b=1, *, c=2):\n    pass\n"


class TestWhatCountsAsPassing:
    def test_a_parameter_no_call_passes_is_reported(self, tmp_path):
        assert _scan_parameters(tmp_path, F, "f(0)\n") == [
            "src/repro/mod.py:1 f(b)",
            "src/repro/mod.py:1 f(c)",
        ]

    def test_a_keyword_counts(self, tmp_path):
        assert _scan_parameters(tmp_path, F, "f(0, b=3)\nx.f(0, c=3)\n") == []

    def test_a_position_counts(self, tmp_path):
        assert _scan_parameters(tmp_path, F, "f(0, 3)\n") == ["src/repro/mod.py:1 f(c)"]

    @pytest.mark.parametrize("call", ["f(*xs)", "f(0, **kw)"])
    def test_an_unpacked_argument_counts_for_all(self, tmp_path, call):
        assert _scan_parameters(tmp_path, F, call + "\n") == []

    def test_a_class_call_passes_to_init_and_self_is_skipped(self, tmp_path):
        src = "class C:\n    def __init__(self, a=1, b=2):\n        pass\n"
        assert _scan_parameters(tmp_path, src, "C(0)\n") == [
            "src/repro/mod.py:2 C.__init__(b)"
        ]

    def test_star_parameters_are_optional_too(self, tmp_path):
        src = "def f(*args, **kwargs):\n    pass\n"
        assert _scan_parameters(tmp_path, src, "f()\n") == [
            "src/repro/mod.py:1 f(*args)",
            "src/repro/mod.py:1 f(**kwargs)",
        ]
        assert _scan_parameters(tmp_path / "b", src, "f(1, k=2)\n") == []


class TestBenchmarkPedantic:
    """``benchmark.pedantic(f, args=..., kwargs=...)`` is a call of ``f``."""

    def test_a_position_passed_through_pedantic_counts(self, tmp_path):
        program = "benchmark.pedantic(f, args=(0, 3), rounds=1)\n"
        assert _scan_parameters(tmp_path, F, program) == ["src/repro/mod.py:1 f(c)"]

    def test_a_keyword_passed_through_pedantic_counts(self, tmp_path):
        program = 'benchmark.pedantic(f, args=(0,), kwargs={"c": 3})\n'
        assert _scan_parameters(tmp_path, F, program) == ["src/repro/mod.py:1 f(b)"]

    def test_positional_args_and_kwargs_count_too(self, tmp_path):
        program = 'benchmark.pedantic(f, (0, 3), {"c": 3})\n'
        assert _scan_parameters(tmp_path, F, program) == []

    @pytest.mark.parametrize("call", ["args=xs", "kwargs=kw", 'kwargs={"c": 3, **kw}'])
    def test_arguments_the_scan_cannot_count_clear_all(self, tmp_path, call):
        assert _scan_parameters(tmp_path, F, f"benchmark.pedantic(f, {call})\n") == []


class TestForwarders:
    SRC = "def g(a=1, b=2):\n    pass\n\ndef f(**kwargs):\n    g(**kwargs)\n"

    def test_a_forwarder_whose_callers_pass_nothing_is_reported(self, tmp_path):
        assert _scan_parameters(tmp_path, self.SRC, "f()\n") == [
            "src/repro/mod.py:1 g(a)",
            "src/repro/mod.py:1 g(b)",
            "src/repro/mod.py:4 f(**kwargs)",
        ]

    def test_a_forwarder_passes_on_what_its_callers_pass(self, tmp_path):
        assert _scan_parameters(tmp_path, self.SRC, "f(a=0)\n") == ["src/repro/mod.py:1 g(b)"]

    def test_a_forwarder_passed_anything_passes_anything(self, tmp_path):
        assert _scan_parameters(tmp_path, self.SRC, "f(**kw)\n") == []


class TestParameterAllowlist:
    def test_an_allowed_parameter_passes(self, tmp_path):
        assert _scan_parameters(tmp_path, F, "f(0)\n", allowed=["f(b)", "f(c)"]) == []

    def test_a_stale_entry_is_reported(self, tmp_path):
        assert _scan_parameters(tmp_path, F, "f(0, 1, c=2)\n", allowed=["f(gone)"]) == [
            "ALLOWED_PARAMETERS lists f(gone), which is not a parameter"
        ]

    def test_every_entry_gives_a_reason(self):
        assert all(reason.strip() for reason in ALLOWED_PARAMETERS.values())
