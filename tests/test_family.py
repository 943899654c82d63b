"""The two-parameter family: brackets, theorem checks, grid sweeps.

Four of the bundled reference tables (twin curvature, Ricci block, twin
difference tensor, average curvature) are internally inconsistent with the
connection components they are derived from; theorem_checks reports those
mismatches, and these tests pin the failure set to exactly that list.
"""

import dataclasses

import pytest

from paratwin import family
from paratwin.errors import ValidationError
from paratwin.family import (DEFAULT_GRID, FamilyParams, build_family,
                             family_brackets, family_pack, grid_points,
                             grid_verification, theorem_checks)
from paratwin.manifold import validate_lie_algebra
from paratwin.scalar import Q
from paratwin.tensor import TensorDense

#: table checks that disagree with the engine on generic parameters; the
#: discrepancies are documented in the project notes
KNOWN_TABLE_FAILURES = {
    "table: twin curvature",
    "table: Ricci and scalar curvature",
    "table: twin difference tensor",
    "table: average curvature",
}


def test_epsilon_is_validated():
    with pytest.raises(ValidationError):
        FamilyParams(Q(1), Q(1), Q(2))


def test_params_accept_strings():
    p = FamilyParams("1/2", "-3", "-1")
    assert p.lambda1 == Q(1, 2) and p.epsilon == Q(-1)


def test_brackets_satisfy_jacobi():
    for params in ((1, 2, 1), (-3, Q(1, 2), -1)):
        m = build_family(FamilyParams(*map(Q, params)))
        assert validate_lie_algebra(m.algebra).valid


def test_bracket_table():
    p = FamilyParams(Q(1), Q(2), Q(1))
    b = family_brackets(p)
    assert b[(0, 3)] == [Q(1), Q(1), Q(2), Q(2)]
    assert b[(0, 1)] == [Q(4), Q(4), Q(0), Q(0)]
    assert b[(2, 3)] == [Q(0), Q(0), Q(2), Q(2)]


def test_grid_covers_both_signs():
    pts = list(grid_points())
    assert len(pts) == 2 * len(DEFAULT_GRID) ** 2
    assert any(p.epsilon == Q(-1) for p in pts)


def test_theorem_checks_at_reference_point():
    report = theorem_checks(FamilyParams(Q(1), Q(2), Q(1)))
    failed = {c.name for c in report.failures()}
    assert failed == KNOWN_TABLE_FAILURES


def test_theorem_checks_at_origin():
    report = theorem_checks(FamilyParams(Q(0), Q(0), Q(1)))
    assert report.valid, [c.name for c in report.failures()]


def test_claims_hold_on_a_small_grid():
    points = list(grid_points((Q(-1), Q(0), Q(1))))
    report = grid_verification(points)
    failed = {c.name for c in report.failures()}
    assert failed <= KNOWN_TABLE_FAILURES
    for c in report.checks:
        if c.name.startswith("claim:") or c.name.startswith("identity:"):
            assert c.passed, c.name


def test_self_test_detects_perturbed_expectation():
    points = [FamilyParams(Q(1), Q(2), Q(1))]
    report = grid_verification(points, perturb_curvature=True)
    failed = {c.name for c in report.failures()}
    assert "table: curvature" in failed


def test_family_pack_is_cached():
    p = FamilyParams(Q(1), Q(2), Q(1))
    assert family_pack(p) is family_pack(p)


def test_failed_identity_names_the_component_that_differs(monkeypatch):
    p = FamilyParams(Q(1), Q(2), Q(1))
    m, tp = family_pack(p)
    data = list(tp.K_vec.data)
    data[tp.K_vec.flat((0, 0, 1, 1))] += Q(2)
    bad = dataclasses.replace(tp, K_vec=TensorDense(4, tp.K_vec.variance, data))
    monkeypatch.setattr(family, "family_pack", lambda q: (m, bad))
    items = {c.name: c for c in theorem_checks(p).checks}
    assert not items["identity: K = A"].passed
    assert items["identity: K = A"].detail == (
        "first nonzero residual at (1, 1, 2, 2) is 2; 1 of 256 components differ")
