"""The benchmark's probes name library functions that still exist."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from probes import PROBES  # noqa: E402


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"{p.module.__name__}.{p.attr}")
def test_probe_target_is_callable(probe):
    assert callable(getattr(probe.module, probe.attr, None))
