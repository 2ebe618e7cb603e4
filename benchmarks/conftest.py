"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper table/figure: it prints the
paper-shaped rows (captured with ``-s``), writes a JSON artifact, and
asserts the qualitative shape the paper reports.  Artifacts go to a
per-session temporary directory, so a test run leaves the tracked
``paper/results/`` alone; set ``REPRO_WRITE_RESULTS=1`` to write them
there instead (``repro paper --output`` regenerates them too).
``pytest benchmarks/ --benchmark-only`` times the full regeneration.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "paper" / "results"


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    if os.environ.get("REPRO_WRITE_RESULTS") == "1":
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("results")
