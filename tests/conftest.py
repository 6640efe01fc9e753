"""Keeps the tests directory importable so shared oracles resolve."""

import os

import pytest

import l2mech


@pytest.fixture
def child_env():
    """Environment for a child Python that must import this same l2mech,
    installed or not: its package root goes first on PYTHONPATH."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(l2mech.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
