"""Every name a ``copygen`` module imports is used in that module. No linter
runs in the test suite, so this is its check against dead imports."""

import ast
import ctypes
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "copygen"

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
