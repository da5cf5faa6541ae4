"""The package computes its own transforms: no numpy.fft and no scipy.

The in-house radix-2 FFT is what makes results bit-reproducible across
installations, so a library transform must not creep back in.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reverbkit"


def _library_numerics(tree):
    """Imports of scipy or numpy.fft, and uses of the np.fft / numpy.fft attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            mods = ["numpy.fft"]
        else:
            continue
        found += [m for m in mods if m.split(".")[0] == "scipy"
                  or m == "numpy.fft" or m.startswith("numpy.fft.")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_fft_or_scipy(path):
    assert _library_numerics(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_guard_catches_each_form():
    for src in ("import scipy.signal", "from scipy import fft", "import numpy.fft",
                "from numpy import fft", "from numpy.fft import rfft",
                "import numpy as np\nnp.fft.fft([1.0])"):
        assert _library_numerics(ast.parse(src)), src
    assert _library_numerics(ast.parse("from .dsp import fft\nimport numpy as np")) == []
