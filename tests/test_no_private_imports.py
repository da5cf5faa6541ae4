"""No package module imports a sibling's private name.

A leading underscore marks a name as its module's own business; a
sibling that needs it should get a public function instead, so that each
piece of numerics has one home.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reverbkit"


def _private_imports(tree):
    """`from .x import _y` imports, as ".x._y" strings."""
    return [f"{'.' * node.level}{node.module + '.' if node.module else ''}{a.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for a in node.names
            if a.name.startswith("_") and not a.name.startswith("__")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_sibling_private_import(path):
    assert _private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_guard_catches_private_import():
    assert _private_imports(ast.parse("from .dsp import _window")) == [".dsp._window"]
    assert _private_imports(ast.parse("from .dsp import stft, _window as w")) == [
        ".dsp._window"]
    assert _private_imports(ast.parse("from . import _helpers")) == ["._helpers"]
    assert _private_imports(ast.parse(
        "from .dsp import stft, stft_adjoint\nfrom numpy import _NoValue")) == []
