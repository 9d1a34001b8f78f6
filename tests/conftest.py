"""Shared fixtures.

Boundary-element solves are the expensive step (~15-20 s each), so solved
traps are session-scoped and backed by an on-disk cache directory that
persists across test runs (override with IONTRAP_TEST_CACHE).
"""

import os

import numpy as np
import pytest

from iontrap import (
    CA40,
    DriveParams,
    PseudoField,
    build_default,
    solve_unit_excitations,
)

CACHE_DIR = os.environ.get("IONTRAP_TEST_CACHE", "/tmp/iontrap-test-cache")

DRIVE = DriveParams.from_mhz(10.0, 20.0)


@pytest.fixture(scope="session")
def cache_dir():
    os.makedirs(CACHE_DIR, exist_ok=True)
    return CACHE_DIR


@pytest.fixture(scope="session")
def surface_solved(cache_dir):
    return solve_unit_excitations(build_default("surface"), cache_dir=cache_dir)


@pytest.fixture(scope="session")
def gnd_solved_105(cache_dir):
    return solve_unit_excitations(build_default("gnd-surface", h_um=105.0),
                                  cache_dir=cache_dir)


@pytest.fixture(scope="session")
def cross_solved_105(cache_dir):
    return solve_unit_excitations(build_default("cross-rf", h_um=105.0),
                                  cache_dir=cache_dir)


@pytest.fixture(scope="session")
def gnd_solved_200(cache_dir):
    return solve_unit_excitations(build_default("gnd-surface", h_um=200.0),
                                  cache_dir=cache_dir)


@pytest.fixture(scope="session")
def cross_solved_200(cache_dir):
    return solve_unit_excitations(build_default("cross-rf", h_um=200.0),
                                  cache_dir=cache_dir)


@pytest.fixture(scope="session")
def surface_pseudo(surface_solved):
    return PseudoField(surface_solved.charge_weights(), species=CA40, drive=DRIVE)


def assert_allclose(a, b, rtol=0.0, atol=0.0):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
