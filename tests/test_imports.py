"""Every name a ``copygen`` module imports is used in that module, every
public name it defines is used by the program or the benchmark, and every
type hint it writes resolves. No linter runs in the test suite, so these are
its checks against dead code and dangling names."""

import ast
import ctypes
import importlib
import inspect
import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import pytest
from conftest import src_env

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


def reads_of(name: str, source: str) -> set[str | None]:
    """The innermost functions (by name; None for module level) in which
    ``source`` reads ``name`` as a ``Name`` or ``Attribute`` load."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)
                    and getattr(child, "id", getattr(child, "attr", None)) == name):
                found.add(scope)
            visit(child, child.name if isinstance(child, _FUNCTIONS) else scope)

    visit(ast.parse(source), None)
    return found


def test_finds_reads_by_function():
    source = textwrap.dedent("""
        X = 1
        Y = X

        def f():
            return m.X

        class C:
            def g(self, X=2):
                X = 3
        """)
    assert reads_of("X", source) == {None, "f"}


def test_block_rows_is_the_one_block_formula():
    """Cache-blocked loops take their height from ``model.block_rows``; a
    second formula over ``CACHE_ELEMENTS`` would decide it in two places."""
    found = {(path.stem, scope) for path in sorted(SRC.glob("*.py"))
             for scope in reads_of("CACHE_ELEMENTS", path.read_text(encoding="utf-8"))}
    assert found == {("model", "block_rows")}


# The stages of the forward head pass: the K=2d GEMMs and their inputs, the
# time terms, the blocks' history pairs and the heads built from them.
HEAD_PASS = ("build_heads", "block_pairs", "time_directions", "query_inputs",
             "copy_index_batch", "generation_logits_batch")


@pytest.mark.parametrize("name", HEAD_PASS)
def test_head_pass_is_written_once(name):
    """Scoring and evaluation build their heads through ``model.head_blocks``;
    only the train step, whose GEMM rows become the deltas its backward
    GEMMs read, runs the stages itself. A second forward pass could drift
    from the first, which only bitwise tests would notice."""
    found = {(path.stem, scope) for path in sorted(SRC.glob("*.py"))
             for scope in reads_of(name, path.read_text(encoding="utf-8"))}
    assert found == {("model", "head_blocks"), ("training", "_loss_and_grads")}


def messages_of(fragment: str, source: str) -> int:
    """How many string pieces of ``source`` that are not docstrings hold
    ``fragment``; an f-string's literal parts count one by one."""
    tree = ast.parse(source)
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    return sum(fragment in node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and id(node) not in docstrings)


def test_finds_message_pieces():
    source = textwrap.dedent('''
        def f(x):
            """x must be an integer, got it"""
            return f"{x!r} must be an integer, got {x}", "must be an integer"
        ''')
    assert messages_of("must be an integer, got", source) == 1


# A message fragment of each value rule in ``copygen.options``, the count
# rule's two bounds included. ("must be an integer, got" and not "must be an
# integer": evaluation's "truth must be an integer entity id in [0, N)" is a
# rule about entity ids, not a count.)
RULE_MESSAGES = ("mask_magnitude is", "alpha must lie in", "must be an integer, got",
                 "must be positive, got", "must be at least ")


@pytest.mark.parametrize("fragment", RULE_MESSAGES)
def test_hyperparameter_rules_are_written_once(fragment):
    """The mask-magnitude, alpha and count rules build their messages only
    in ``options.py``; a second copy could judge a value differently."""
    found = {path.stem: messages_of(fragment, path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {stem: count for stem, count in found.items() if count} == {"options": 1}


def unresolved_type_hints(module) -> dict[str, str]:
    """The functions, classes and methods ``module`` defines whose type
    hints ``typing.get_type_hints`` cannot resolve, with its error."""
    found = {}
    for name, obj in vars(module).items():
        if not (inspect.isfunction(obj) or inspect.isclass(obj)) or obj.__module__ != module.__name__:
            continue
        targets = {name: obj}
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    targets[f"{name}.{attr}"] = member
        for qualname, target in targets.items():
            try:
                typing.get_type_hints(target)
            except Exception as exc:  # the test reports every failure at once
                found[f"{module.__name__}.{qualname}"] = repr(exc)
    return found


def test_finds_an_unresolved_type_hint(tmp_path, monkeypatch):
    (tmp_path / "hinted.py").write_text(textwrap.dedent("""
        from __future__ import annotations

        def good(x: int) -> list[int]: ...
        def bad() -> np.ndarray: ...
        class Box:
            size: int
            def method(self) -> Missing: ...
            @property
            def view(self) -> Missing: ...
        """), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    assert set(unresolved_type_hints(importlib.import_module("hinted"))) == {
        "hinted.bad", "hinted.Box.method", "hinted.Box.view"}


def test_every_type_hint_resolves():
    """An annotation naming something bound only inside a function (numpy
    imported in the function body) cannot be resolved by tools that read
    the hints."""
    modules = ["copygen"] + [f"copygen.{path.stem}" for path in sorted(SRC.glob("*.py"))
                             if path.stem != "__init__"]
    found = {}
    for name in modules:
        found.update(unresolved_type_hints(importlib.import_module(name)))
    assert found == {}


def test_configs_load_no_numpy():
    """Building the default training and synthesis configs, as the CLI does
    before ``--threads`` applies, loads neither numpy nor the model."""
    code = ("import sys; from copygen.options import SynthConfig, TrainConfig; "
            "TrainConfig(); SynthConfig(); "
            "print(sorted({'numpy', 'copygen.model'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    env = src_env()
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
