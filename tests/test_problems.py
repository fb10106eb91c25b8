import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc.mesh import generate_disk_mesh
from chdbc.problems import (
    MANUFACTURED,
    double_well_derivative,
    evolution_problem,
    manufactured_linear,
    manufactured_nonlinear,
    zero_map,
)
from oracles import disk_points, verify_manufactured


def test_linear_forcings_at_reference_points():
    p = manufactured_linear()
    assert p.f1_bulk(0.5, 0.5, 0.0) == pytest.approx(-0.25, rel=1e-15)
    s = math.sqrt(2.0) / 2.0
    assert p.f1_surf(s, s, 0.0) == pytest.approx(2.5, rel=1e-14)
    for t in (0.0, 0.7, 3.0):
        assert p.exact_u(1.0, 0.0, t) == 0.0


def test_linear_surface_forcings_are_minus_five_times_bulk():
    p = manufactured_linear()
    for x, y in disk_points(0, 15, seed=4):
        for t in (0.0, 0.5, 1.0):
            assert p.f1_surf(x, y, t) == pytest.approx(-5.0 * p.f1_bulk(x, y, t),
                                                       rel=1e-13)
            assert p.f2_surf(x, y, t) == pytest.approx(-5.0 * p.f2_bulk(x, y, t),
                                                       rel=1e-13)


def test_nonlinear_double_well_roots_and_forcing():
    p = manufactured_nonlinear()
    for root in (-1.0, 0.0, 1.0):
        assert p.nonlinearity(root) == 0.0
    assert p.f2_bulk(0.5, 0.5, 0.0) == pytest.approx(0.484375, rel=1e-15)
    # f1 forcings are unchanged by the nonlinearity
    lin = manufactured_linear()
    for x, y in disk_points(5, 0, seed=0):
        assert p.f1_bulk(x, y, 0.3) == lin.f1_bulk(x, y, 0.3)


def test_fields_finite_on_disk():
    for p in (manufactured_linear(), manufactured_nonlinear()):
        for x, y in disk_points(30, 0, seed=9) + disk_points(0, 10, seed=9):
            for t in (0.0, 1.5, 3.0):
                for f in (p.f1_bulk, p.f2_bulk, p.f1_surf, p.f2_surf):
                    assert math.isfinite(float(f(x, y, t)))


@pytest.mark.parametrize("term", ["f1_bulk", "f2_bulk", "f1_surf", "f2_surf",
                                  "nonlinearity"])
def test_residual_oracle_catches_each_wrong_term(term):
    # each forcing negated, or the nonlinearity dropped, in turn
    good = manufactured_nonlinear()
    if term == "nonlinearity":
        bad = dataclasses.replace(good, nonlinearity=lambda u: 0.0 * u)
    else:
        f = getattr(good, term)
        bad = dataclasses.replace(good, **{term: lambda x, y, t: -f(x, y, t)})
    assert verify_manufactured(good, disk_points(20, 20, seed=0), (0.0, 0.5, 1.0)) <= 1e-8
    assert verify_manufactured(bad, disk_points(20, 20, seed=0), (0.0, 0.5, 1.0)) >= 0.1


def test_residual_oracle_of_no_points_is_zero():
    assert verify_manufactured(manufactured_linear(), [], (0.0, 1.0)) == 0.0


def test_residual_oracle_requires_exact_solution():
    with pytest.raises(ValueError, match="exact"):
        verify_manufactured(evolution_problem(), [(0.1, 0.1)], (0.0,))


def test_residual_oracle_rejects_outside_points():
    with pytest.raises(ValueError, match="neither"):
        verify_manufactured(manufactured_linear(), [(1.5, 0.0)], (0.0,))


def test_evolution_derivative_values():
    p = evolution_problem(strength=10.0)
    assert p.nonlinearity(1.0) == 0.0
    assert p.nonlinearity(0.5) == pytest.approx(-15.0, rel=1e-15)
    assert p.potential(1.0) == 0.0
    assert p.potential(0.0) == pytest.approx(10.0, rel=1e-15)


def test_evolution_initial_data_is_reproducible_pm_one():
    mesh = generate_disk_mesh(80, 1.0)
    xs, ys = mesh.nodes[:, 0], mesh.nodes[:, 1]
    a = evolution_problem(seed=42).u0(xs, ys, 0.0)
    b = evolution_problem(seed=42).u0(xs, ys, 0.0)
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {-1.0, 1.0}
    c = evolution_problem(seed=43).u0(xs, ys, 0.0)
    assert not np.array_equal(a, c)
    # a fair draw: both phases present on 80 nodes
    assert 0 < np.sum(a > 0) < len(a)
    # the largest seed is taken
    assert set(np.unique(evolution_problem(seed=2 ** 64 - 1).u0(xs, ys, 0.0))) <= {-1.0, 1.0}


@pytest.fixture(scope="module")
def disk_2560():
    return generate_disk_mesh(2560, 10.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 64 - 1), order=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_initial_field_depends_only_on_the_point(disk_2560, seed, order, data):
    u0 = evolution_problem(seed=seed).u0
    x, y = disk_2560.nodes[:, 0], disk_2560.nodes[:, 1]
    vals = u0(x, y, 0.0)
    assert set(np.unique(vals)) <= {-1.0, 1.0}
    # another seed gives another field
    assert not np.array_equal(evolution_problem(seed=seed ^ 1).u0(x, y, 0.0), vals)
    # a second problem with the seed, on the nodes in another order
    perm = np.random.default_rng(order).permutation(len(x))
    np.testing.assert_array_equal(evolution_problem(seed=seed).u0(x[perm], y[perm], 0.0),
                                  vals[perm])
    i = data.draw(st.integers(0, len(x) - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert u0(float(x[i]), float(y[i]), 0.0) == vals[i]
    assert 0.4 <= np.mean(vals > 0) <= 0.6


def test_problem_by_name():
    assert MANUFACTURED["linear"]().nonlinearity is zero_map
    assert MANUFACTURED["nonlinear"]().nonlinearity is double_well_derivative
    # evolve builds its problem from --strength and --seed, not by name
    for name in ("evolution", "stokes"):
        assert name not in MANUFACTURED
