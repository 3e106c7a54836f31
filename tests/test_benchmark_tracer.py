"""The benchmark's tracer swaps wrappers onto library names by name, so a
rename of one of those names must fail here and not only in a traced
benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer, leftover_wrappers  # noqa: E402


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
