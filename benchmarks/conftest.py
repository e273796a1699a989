"""Benchmark-suite configuration.

Every bench regenerates one of the paper's evaluation artefacts once,
prints the paper-vs-measured table (run pytest with ``-s`` to see
them) and asserts its shape on *simulated* statistics only.  Nothing
here reads a wall clock: host time and memory are measured by
``benchmarks/e2e`` (``BENCHMARK.json``), the one timer in the repo.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="shrink replications/population so a bench finishes in "
             "seconds -- the CI smoke mode; shape assertions still run")


@pytest.fixture
def quick(request):
    return request.config.getoption("--quick")


def emit(text: str) -> None:
    """Print a result table under pytest's capture (visible with -s,
    and in the captured-output section otherwise)."""
    print("\n" + text)
