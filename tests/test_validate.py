"""Tests for the validation scoreboard.

The suite is only trustworthy if it actually turns red when the physics it
guards is broken, so alongside the all-green run these tests inject faults
(a corrupted vacuum permittivity, a wrong ion mass, a crashing check) and
assert the corresponding checks fail.
"""

import dataclasses
import math

import numpy as np

from iontrap import bem, constants, merit, validate
from iontrap.validate import (
    CHECKS,
    CheckResult,
    check_bem_residual,
    check_kernel_far_field,
    check_kernel_self_potential,
    check_quartic_projection,
    check_species_constants,
    format_scoreboard,
    run_validation,
)

EXPECTED_NAMES = [
    "kernel-far-field",
    "kernel-self-potential",
    "field-is-gradient",
    "jacobian-finite-difference",
    "laplace-trace",
    "bem-boundary-residual",
    "parallel-plate-capacitance",
    "quadrupole-harmonicity",
    "harmonicity-quartic-projection",
    "frequency-hessian-identity",
    "q-omega-identity",
    "flood-fill-oracle",
    "drive-frequency-table",
    "power-norm-table",
    "max-frequency-surface",
    "pseudopotential-scaling",
    "species-constants",
]


def test_full_validation_is_green():
    results = run_validation()
    assert [r.name for r in results] == EXPECTED_NAMES
    failures = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failures, "\n".join(failures)
    assert all(r.seconds >= 0.0 for r in results)


def test_check_registry_names_are_unique_and_kebab_case():
    names = [name for name, _ in CHECKS]
    assert len(set(names)) == len(names)
    for name in names:
        assert name == name.lower()
        assert " " not in name


def test_eps0_fault_trips_kernel_checks(monkeypatch):
    passed, _ = check_kernel_far_field()
    assert passed
    monkeypatch.setattr(constants, "EPS0", 2.0 * constants.EPS0)
    passed, detail = check_kernel_far_field()
    assert not passed, detail
    passed, detail = check_kernel_self_potential()
    assert not passed, detail


def test_wrong_ion_mass_trips_species_check(monkeypatch):
    passed, _ = check_species_constants()
    assert passed
    bad = dataclasses.replace(constants.CA40, mass=1.001 * constants.CA40.mass)
    monkeypatch.setitem(constants.SPECIES, "Ca40", bad)
    passed, detail = check_species_constants()
    assert not passed, detail


def test_misplaced_interpolation_nodes_trip_quartic_projection(monkeypatch):
    passed, detail = check_quartic_projection()
    assert passed, detail
    # nodes sampled on half the window but read as the full window: the
    # interpolant is still an exact quartic, of the wrong axis potential
    monkeypatch.setattr(merit, "chebpts2",
                        lambda n: 0.5 * np.polynomial.chebyshev.chebpts2(n))
    passed, detail = check_quartic_projection()
    assert not passed, detail


def test_public_evaluator_fault_trips_bem_residual(monkeypatch):
    passed, detail = check_bem_residual()
    assert passed, detail
    # the solver checks its residual from the assembled rows; a fault of the
    # public evaluator alone must still turn the check red
    potential_of = bem.potential_of
    monkeypatch.setattr(bem, "potential_of",
                        lambda pset, sigma, points: 1.000001 * potential_of(pset, sigma, points))
    passed, detail = check_bem_residual()
    assert not passed, detail


def test_crashing_check_is_reported_as_failure():
    def boom():
        raise RuntimeError("kaboom")

    results = run_validation(checks=[("exploding-check", boom)])
    assert len(results) == 1
    assert not results[0].passed
    assert "RuntimeError" in results[0].detail
    assert "kaboom" in results[0].detail


def test_false_return_is_reported_as_failure():
    results = run_validation(checks=[("red-check", lambda: (False, "nope"))])
    assert not results[0].passed
    assert results[0].detail == "nope"


def test_scoreboard_format():
    results = [
        CheckResult("alpha", True, "rel dev 1e-9", 0.01),
        CheckResult("beta-long-name", False, "limit exceeded", 2.5),
    ]
    board = format_scoreboard(results)
    lines = board.splitlines()
    assert lines[0].startswith("PASS")
    assert "alpha" in lines[0] and "rel dev 1e-9" in lines[0]
    assert lines[1].startswith("FAIL")
    assert "beta-long-name" in lines[1] and "[2.50s]" in lines[1]
    assert lines[-1] == "1/2 checks passed"


def test_scoreboard_counts_all_green():
    results = [CheckResult(f"c{i}", True, "ok", 0.0) for i in range(3)]
    assert format_scoreboard(results).splitlines()[-1] == "3/3 checks passed"
