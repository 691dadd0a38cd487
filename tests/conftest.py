"""Collects acceptance-criterion result lines and prints them as a summary
block at the end of every pytest run, independent of output capture.

It also runs BLAS on one thread unless the environment says otherwise, set
here, before any test module loads numpy. The acceptance fixtures and the
``--seeds`` tests run seeds in forked processes, one per CPU; with
OpenBLAS's default of one thread per core each process's second thread
spins against the others, and the two 5-seed fixtures took about three
times as long as one process running the seeds in turn.

Every test fails that leaves a child process alive."""

import multiprocessing
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process alive (a seed or evaluation
    worker, or an acceptance fixture's), after stopping it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"child processes left alive: {left}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
