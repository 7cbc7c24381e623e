"""Suite-wide pytest hooks."""

import os

import pytest

LOAD = pytest.StashKey[str]()


def pytest_configure(config):
    """Read the machine's one-minute load and core count once, before any
    test adds to the load. A load above the core count means another job
    shares the box: a second numpy process oversubscribes the BLAS threads,
    and the timed criteria then run several times slower. It only reads;
    no test's outcome depends on it."""
    load, cores = os.getloadavg()[0], os.cpu_count()
    line = f"load average {load:.2f} on {cores} cores at start"
    if cores and load > cores:
        line += " -- BUSY: load exceeds the core count, timings are not comparable"
    config.stash[LOAD] = line


def pytest_report_header(config):
    return config.stash[LOAD]


def pytest_terminal_summary(terminalreporter, config):
    """-q hides the header, so a busy start is repeated at the end."""
    if "BUSY" in config.stash[LOAD]:
        terminalreporter.write_line(config.stash[LOAD])
