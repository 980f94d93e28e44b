"""Smoke tests: the fast examples must run clean end to end.

(Each example is self-checking — it asserts its own claims — so running
it is a real integration test of the public API.)
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "qr_selection_demo.py",
    "generalized_dft.py",
    "spectral_density.py",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_all_examples_present():
    """The README promises runnable examples; keep the inventory honest."""
    found = {p.name for p in EXAMPLES.glob("*.py")}
    expected = {
        "quickstart.py",
        "dft_scf_sequence.py",
        "simulated_cluster.py",
        "scaling_study.py",
        "qr_selection_demo.py",
        "strong_scaling_trace.py",
        "spectral_density.py",
        "execution_timeline.py",
        "capacity_planning.py",
        "generalized_dft.py",
    }
    assert expected <= found
