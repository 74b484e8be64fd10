"""Guard against code that only tests reach.

Every function, class and method defined in ``src/repro`` must be
referenced by the program itself: by ``src/``, ``benchmarks/`` (the suite's
own ``test_*.py`` excepted) or ``examples/``.  A reference is a name or an
attribute spelling the definition's name outside the definition's own
body; imports, ``__all__`` strings and docstrings do not count.  Code that
only tests use either moves into ``tests/`` (when it is a test oracle) or
goes.  A name the scan cannot see used stays only on :data:`ALLOWED`, with
the reason.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _scan(tmp_path, src_text, program_text="", allowed=()):
    """Scan one defining module plus one referencing program file."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(src_text)
    (tmp_path / "use.py").write_text(program_text)
    files = [src / "mod.py", tmp_path / "use.py"]
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
