"""Shared test plumbing: the environment of a fresh interpreter that
imports copygen from ``src``, and the acceptance suite's verdicts, one line
per criterion, printed after the run regardless of capture settings."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """The environment with ``src`` on the path, for a fresh interpreter."""
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")]))}


ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(label: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((label, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed, detail in ACCEPTANCE_RESULTS:
        verdict = "PASS" if passed else "FAIL"
        suffix = f" — {detail}" if detail else ""
        terminalreporter.write_line(f"{label}: {verdict}{suffix}")
