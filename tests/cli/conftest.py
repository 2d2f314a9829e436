"""Fixtures shared by the ``sls bench`` and ``sls fleet`` tests."""

import pytest

from repro.cli.bench import run_suite


@pytest.fixture(scope="session")
def results():
    """The full ``sls bench`` suite, run once per session (~10 s, nearly
    all of it the fleet scenario).  Shared and read-only: a test that
    doctors a value deep-copies first."""
    return run_suite()
