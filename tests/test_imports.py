"""Every name a ``copygen`` module imports is used in that module, and every
public name it defines is used by the program or the benchmark. No linter
runs in the test suite, so these are its checks against dead code."""

import ast
import ctypes
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "copygen"
BENCH = ROOT / "bench"

# Bound only so that the benchmark's tracer (bench/spans.py) can wrap them
# in these modules' namespaces.
TRACER_SHIMS = {
    ("model", "masks_for"),
    ("training", "masks_for"),
    ("training", "stable_softmax"),
    ("evaluation", "score_batch"),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports_of(scope):
    """The import statements whose nearest enclosing function is ``scope``."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, _FUNCTIONS):
            yield from _imports_of(child)


def unused_imports(source: str) -> set[str]:
    """Names bound by an import and never read in the function (or module)
    that imports them, nested functions included."""
    tree = ast.parse(source)
    unused = set()
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for statement in _imports_of(scope):
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            for alias in statement.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.add(name)
    return unused


def test_finds_an_unused_import():
    source = "import os\nimport sys as system\n\ndef f():\n    from math import pi, tau\n    return tau\n"
    assert unused_imports(source) == {"os", "system", "pi"}


def test_every_import_is_used():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = {(path.stem, name) for path in modules
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert found == TRACER_SHIMS


# Public definitions kept without a caller in src/copygen or bench/, each
# with the reason it stays.
UNREFERENCED_ALLOWED: dict[str, str] = {}


def public_definitions(source: str) -> set[str]:
    """The module-level functions and classes of ``source``, and the methods
    of its classes, whose names do not start with an underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(child.name for child in node.body if isinstance(child, _FUNCTIONS))
    return {name for name in names if not name.startswith("_")}


def referenced_names(source: str, *, strings: bool = False) -> set[str]:
    """The names ``source`` reads: ``Name`` and ``Attribute`` loads, and with
    ``strings`` every string constant too, since the benchmark's tracer
    binds its targets by name. An import binds names but reads none."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreferenced(program: list[str], bench: list[str]) -> set[str]:
    """The public definitions of the ``program`` sources that neither they
    nor the ``bench`` sources reference.

    References are matched by name alone, not resolved to a definition: a
    definition whose name is also a numpy method (``astype``) or a local
    variable (``losses``) counts as used. So this catches a dead name only
    where no other name is spelled like it: the dead ``ModelParams.astype``
    and ``TrainLog.losses`` passed it, and were deleted by hand."""
    defined = set().union(*map(public_definitions, program))
    read = set().union(*map(referenced_names, program),
                       *(referenced_names(source, strings=True) for source in bench))
    return defined - read


def test_finds_an_unreferenced_definition():
    program = [
        textwrap.dedent("""
            def used(): ...
            def dead(): ...
            def imported(): ...
            def _private(): ...
            class Box:
                def shown(self): ...
                def traced(self): ...
                def hidden(self): ...
                def _own(self): ...
            """),
        textwrap.dedent("""
            from first import imported
            box = used().Box()
            box.hidden = 1
            print(box.shown(), "traced")
            """),
    ]
    bench = ['wrap(Box, "traced")\n']
    assert unreferenced(program, bench) == {"dead", "imported", "hidden"}


def test_every_public_definition_is_referenced():
    program, bench = ([path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))]
                      for root in (SRC, BENCH))
    assert len(program) > 5 and len(bench) > 3
    assert unreferenced(program, bench) == set(UNREFERENCED_ALLOWED)


HEAP_PROBE = textwrap.dedent("""
    import ctypes
    {setup}
    import numpy as np

    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks "
            "fordblks keepcost").split()]

    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = MallInfo2
    size = 6 << 20
    block = np.ones(size, dtype=np.uint8)
    mapped = libc.mallinfo2().hblkhd >= size
    del block
    print(mapped, libc.mallinfo2().keepcost >= size)
""")


def _heap_probe(setup: str) -> str:
    """Whether a fresh 6 MiB array gets a mapping of its own, and whether
    the heap keeps its pages once it is freed."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        env.pop(var, None)
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE.format(setup=setup)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and hasattr(ctypes.CDLL(None), "mallinfo2")),
                    reason="needs glibc 2.33 or later")
def test_import_pins_the_allocator_thresholds():
    """glibc maps a first 6 MiB array and unmaps it on free; once copygen is
    imported the array comes from the heap, which keeps its pages."""
    assert _heap_probe("") == "True False"
    assert _heap_probe("import copygen") == "False True"
