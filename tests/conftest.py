"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture()
def short_switch_interval():
    """The interpreter lock handed over every 10 us while the test runs: more interleavings."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(switch)
