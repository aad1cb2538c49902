"""The test session's own settings in ``pyproject.toml``."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """On a failure, hypothesis's reporter imports ``libcst``, which warns a
    ``DeprecationWarning``. The warnings filters turn every other
    ``DeprecationWarning`` into an error; this one would abort the session
    with ``INTERNALERROR`` and leave the tests after it unreported."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_misspelt_config_key_fails_the_session(tmp_path):
    """``strict_config`` turns an unknown key into an error. Without it a
    misspelt key such as ``filterwarning`` is only a warning, and the
    warnings gate it was meant to set silently goes."""
    config = (ROOT / "pyproject.toml").read_text().replace(
        "filterwarnings = [", "filterwarning = [", 1)
    assert "filterwarning = [" in config
    (tmp_path / "pyproject.toml").write_text(config)
    (tmp_path / "test_probe.py").write_text("def test_passes():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(tmp_path / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "Unknown config option: filterwarning" in proc.stdout + proc.stderr
