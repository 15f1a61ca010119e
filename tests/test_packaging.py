"""Packaging invariants: version single-sourcing, typing marker."""

from __future__ import annotations

import pathlib
import re

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestVersionSingleSourcing:
    def test_version_matches_pyproject(self):
        """``repro.__version__`` is read from package metadata / pyproject."""
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
        assert match is not None
        assert repro.__version__ == match.group(1)

    def test_no_setup_py_duplicate(self):
        """The drift-prone setup.py shim is gone; pyproject is authoritative."""
        assert not (REPO_ROOT / "setup.py").exists()


class TestTypingMarker:
    def test_py_typed_marker_ships_with_the_package(self):
        package_dir = pathlib.Path(repro.__file__).parent
        assert (package_dir / "py.typed").is_file()

