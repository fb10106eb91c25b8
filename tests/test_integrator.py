import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chdbc import analysis, assembly, integrator
from chdbc.integrator import Stepper, bdf_scheme, bdf_step, run, step_count
from chdbc.mesh import generate_disk_mesh, import_mesh
from chdbc.problems import (MANUFACTURED, ProblemSpec, evolution_problem,
                            manufactured_linear, manufactured_nonlinear,
                            zero_field, zero_map)
from chdbc.saddle import build_step_matrix
from oracles import (UNIT_TRIANGLE, disk_step_matrix, scalar_step_matrix,
                     seeded_temporal_eocs, semi_discrete_linear)

MESH_WITH_CENTER_NODE = UNIT_TRIANGLE.replace("0.0 1.0", "0.5 0.5")

LINEAR = ProblemSpec()


def _nonlinear(F):
    return ProblemSpec(nonlinearity=F)


def test_backward_euler_scalar_decay():
    # M = A = [1], zero forcing: (1/tau)(u1 - u0) + w1 = 0, w1 = u1
    tau, u0 = 0.1, 0.7
    K = scalar_step_matrix(1.0, 1.0, 1.0 / tau)
    M = sp.csr_matrix(np.array([[1.0]]))
    u1, w1 = bdf_step(LINEAR, bdf_scheme(1), K, M, [np.array([u0])],
                      np.zeros(1), np.zeros(1))
    assert u1[0] == pytest.approx(u0 / (1 + tau), rel=1e-14)
    assert w1[0] == pytest.approx(u1[0], rel=1e-14)


def test_nonlinear_step_with_zero_map_bit_matches_linear(monkeypatch):
    nonlinearity_vector, calls = assembly.nonlinearity_vector, []
    monkeypatch.setattr(assembly, "nonlinearity_vector",
                        lambda *a: calls.append(a) or nonlinearity_vector(*a))
    mesh = generate_disk_mesh(20, 1.0)
    scheme = bdf_scheme(3)
    M, _, K = disk_step_matrix(mesh, scheme.delta[0] / 0.01)
    rng = np.random.default_rng(1)
    hist = [rng.standard_normal(mesh.node_count) for _ in range(3)]
    b1 = rng.standard_normal(mesh.node_count)
    b2 = rng.standard_normal(mesh.node_count)
    u_lin, w_lin = bdf_step(LINEAR, scheme, K, M, hist, b1, b2)
    # only problems.zero_map itself skips the nonlinearity; another zero map
    # is evaluated
    assert len(calls) == 0
    u_non, w_non = bdf_step(_nonlinear(lambda u: 0.0 * u), scheme, K, M,
                            hist, b1, b2)
    assert len(calls) == 1
    np.testing.assert_array_equal(u_lin, u_non)
    np.testing.assert_array_equal(w_lin, w_non)


def test_constant_history_kills_double_well_term():
    mesh = generate_disk_mesh(20, 1.0)
    scheme = bdf_scheme(3)
    M, _, K = disk_step_matrix(mesh, scheme.delta[0] / 0.01)
    ones = np.ones(mesh.node_count)
    hist = [ones, ones, ones]
    b1 = np.zeros(mesh.node_count)
    b2 = np.zeros(mesh.node_count)
    F = lambda u: u ** 3 - u  # extrapolant is 1 (sum gamma = 1), F(1) = 0
    u_non, _ = bdf_step(_nonlinear(F), scheme, K, M, hist, b1, b2)
    u_lin, _ = bdf_step(LINEAR, scheme, K, M, hist, b1, b2)
    np.testing.assert_array_equal(u_non, u_lin)


def test_linearly_implicit_scalar_quadratic_hand_solve():
    # u' step with F(u) = u^2: u1 = (u0 - tau*u0^2) / (1 + tau)
    tau, u0 = 0.1, 0.7
    K = scalar_step_matrix(1.0, 1.0, 1.0 / tau)
    M = sp.csr_matrix(np.array([[1.0]]))
    u1, _ = bdf_step(_nonlinear(lambda u: u * u), bdf_scheme(1), K, M,
                     [np.array([u0])], np.zeros(1), np.zeros(1))
    assert u1[0] == pytest.approx((u0 - tau * u0 ** 2) / (1 + tau), rel=1e-14)


def test_exact_starting_values_sample_the_solution():
    mesh = import_mesh(MESH_WITH_CENTER_NODE)
    tau, k = 0.0025, 3
    # (k - 1) steps: the stream holds the k exact starts and nothing else
    stepper = Stepper(manufactured_linear(), mesh, tau, bdf_scheme(k))
    levels = list(stepper.stream(k - 1, stepper.starts("exact")))
    assert len(levels) == k
    for j, (_, _, u, w) in enumerate(levels):
        assert u[2] == pytest.approx(0.25 * math.exp(-j * tau), rel=1e-14)
        np.testing.assert_array_equal(u, w)


def test_exact_starts_pair_exact_u_with_u_and_exact_w_with_w_bitwise():
    # both manufactured problems have exact_u is exact_w; this one does not
    problem = dataclasses.replace(manufactured_linear(),
                                  exact_w=lambda x, y, t: 2 * np.exp(-t) * x * y)
    mesh, tau, k = generate_disk_mesh(40, 1.0), 0.01, 3
    starts = list(Stepper(problem, mesh, tau, bdf_scheme(k)).starts("exact"))
    assert len(starts) == k
    for j, (u, w) in enumerate(starts):
        assert u.tobytes() == assembly.nodal_interpolate(problem.exact_u, mesh, j * tau).tobytes()
        assert w.tobytes() == assembly.nodal_interpolate(problem.exact_w, mesh, j * tau).tobytes()
        assert not np.array_equal(u, w)


def test_bootstrap_k1_is_initial_data_without_w():
    mesh = generate_disk_mesh(40, 1.0)
    problem = evolution_problem(seed=5)
    stepper = Stepper(problem, mesh, 0.01, bdf_scheme(1))
    n, t, u0, w0 = next(stepper.stream(1, stepper.starts("bootstrap")))
    assert (n, t) == (0, 0.0)
    assert set(np.unique(u0)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(
        u0, assembly.nodal_interpolate(problem.u0, mesh, 0.0))
    # no step reads w^0, so a bootstrap does not compute it
    assert w0 is None


def test_bootstrap_start_error_stays_close_to_exact_start():
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    scheme = bdf_scheme(3)
    exact = run(problem, mesh, 0.0025, 1.0, scheme, start_mode="exact")
    boot = run(problem, mesh, 0.0025, 1.0, scheme, start_mode="bootstrap")
    e_exact = analysis.final_error(problem, mesh, exact.times[-1], exact.u_final,
                                   exact.w_final).err_L2
    e_boot = analysis.final_error(problem, mesh, boot.times[-1], boot.u_final,
                                  boot.w_final).err_L2
    assert e_boot <= 10.0 * e_exact


@pytest.mark.parametrize("name", ["linear", "nonlinear"])
def test_bootstrap_starts_beat_one_bdf1_step(name):
    # BDF3 at tau = 0.02 reaches u^1 and u^2 with m = 14 BDF1 substeps each,
    # which should be about m times more accurate than one BDF1 step of tau
    # (measured: 11-12 times); a 400-substep BDF1 run from the same u^0 is
    # the reference
    problem, mesh = MANUFACTURED[name](), generate_disk_mesh(80, 1.0)
    tau, fine = 0.02, 400
    boot = [u for u, _ in Stepper(problem, mesh, tau, bdf_scheme(3)).starts("bootstrap")]
    one = Stepper(problem, mesh, tau, bdf_scheme(1))
    bdf1 = [u for _, _, u, _ in one.stream(2, one.starts("bootstrap"))]
    ref = Stepper(problem, mesh, tau / fine, bdf_scheme(1))
    refs = [u for n, _, u, _ in ref.stream(2 * fine, ref.starts("bootstrap"))
            if n % fine == 0]
    np.testing.assert_array_equal(boot[0], refs[0])
    for j in (1, 2):
        e_boot = analysis.l2_norm(ref.M, boot[j] - refs[j])
        e_bdf1 = analysis.l2_norm(ref.M, bdf1[j] - refs[j])
        assert e_boot <= e_bdf1 / 4, (j, e_boot, e_bdf1)


def test_zero_problem_yields_zero_trajectory():
    problem = ProblemSpec()
    mesh = generate_disk_mesh(20, 1.0)
    traj = run(problem, mesh, 0.01, 0.2, bdf_scheme(2), start_mode="bootstrap")
    stepper = Stepper(problem, mesh, 0.01, bdf_scheme(2))
    for n, _, u, w in stepper.stream(20, stepper.starts("bootstrap")):
        assert np.all(u == 0.0)
        assert w is None if n == 0 else np.all(w == 0.0)
    assert np.all(traj.u_final == 0.0) and np.all(traj.w_final == 0.0)
    assert len(traj.times) == 21
    np.testing.assert_allclose(np.diff(traj.times), 0.01, rtol=1e-12)


# Largest tau * lambda_max(M^-1 A) * max|F'| drawn per k. Over 12 steps
# from 'exact' starts (u0 at every level), on 105 cases (nodes 10-160,
# strength 0.1-10, three seeds), BDF4 diverged in 1 case at 0.2 and BDF5
# in 18 at 0.1; neither diverged at 0.15 and 0.05.
MAX_MARGIN = {1: 0.5, 2: 0.5, 3: 0.5, 4: 0.1, 5: 0.04}


@settings(max_examples=15, deadline=None, derandomize=True)
@given(nodes=st.integers(10, 160), strength=st.floats(0.1, 10.0),
       share=st.floats(0.04, 1.0), mode=st.sampled_from(["bootstrap", "exact"]),
       seed=st.integers(0, 2 ** 64 - 1), data=st.data())
# Both checks hold for any bootstrap substep count, and the cap of 1000 BDF1
# substeps per start would be most of the test's time.
@mock.patch.object(integrator, "BOOTSTRAP_SUBSTEP_CAP", 10)
def test_evolution_conserves_mass_and_solves_each_step(nodes, strength, share,
                                                       mode, seed, data):
    # tau * lambda_max(M^-1 A) * max|F'| = share * MAX_MARGIN[k] keeps the
    # extrapolated schemes inside their stability region; F' = 4 s (3u^2 - 1)
    # is at most 8 s in size for |u| <= 1. The 'exact' starts interpolate
    # stated fields: here u0 at every start, so all k starts carry its mass.
    # Every example runs each k the theory covers, 1..5.
    problem = evolution_problem(strength=strength, seed=seed)
    if mode == "exact":
        problem = dataclasses.replace(problem, exact_u=problem.u0,
                                      exact_w=zero_field)
    mesh = generate_disk_mesh(nodes, 1.0)
    M, A = assembly.assemble_mass(mesh), assembly.assemble_stiffness(mesh)
    lam = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[-1]
    for k in range(1, 6):
        tau = share * MAX_MARGIN[k] / (lam * 8.0 * strength)
        n_steps = data.draw(st.integers(k, 12), label=f"n_steps, k={k}")
        scheme = bdf_scheme(k)
        stepper = Stepper(problem, mesh, tau, scheme)
        levels = [(u, w) for _, _, u, w in stepper.stream(n_steps, stepper.starts(mode))]
        us = [u for u, _ in levels]

        # 1^T M u of a +/-1 field can nearly cancel; measure against 1^T M |u0|
        scale = stepper.mass(np.abs(us[0]))
        drift = max(abs(stepper.mass(u) - stepper.mass(us[0])) for u in us)
        assert drift <= 1e-10 * scale, k

        # K x = b for a sampled main-loop step n, with b rebuilt from the history
        n = data.draw(st.integers(k, n_steps), label=f"step, k={k}")
        recent = us[n - k:n][::-1]
        K = build_step_matrix(stepper.M, stepper.A, scheme.delta[0] / tau,
                              stepper.order).matrix
        tail = sum(d * u for d, u in zip(scheme.delta[1:], recent))
        extrapolant = sum(g * u for g, u in zip(scheme.gamma, recent))
        b = np.concatenate([-(stepper.M @ tail) / tau,
                            stepper.M @ problem.nonlinearity(extrapolant)])
        residual = np.abs(K @ np.concatenate(levels[n]) - b).max()
        assert residual <= 1e-9 * np.abs(b).max(), k


def test_energy_seminorm_decays_for_backward_euler():
    # BDF1's block rows, tested with w^n and d = u^n - u^(n-1), give per step
    #   E^n - E^(n-1) = -tau |w^n|_A^2 - (1/2) |d|_A^2 + R^n,
    #   R^n = 1^T M [W(u^n) - W(u^(n-1))] - d^T M F(u^(n-1)).
    # Linear and homogeneous, R = 0 and E = (1/2) u^T A u is nonincreasing
    # step by step. The double well on evolve's radius-10 disk checks the
    # identity with its R^n, which raises E in most of its steps.
    tau = 0.005
    linear = ProblemSpec(u0=evolution_problem(seed=11).u0, potential=zero_map)
    for problem, radius in ((linear, 1.0), (evolution_problem(seed=11), 10.0)):
        stepper = Stepper(problem, generate_disk_mesh(80, radius), tau, bdf_scheme(1))
        levels = [(u, w) for _, _, u, w in stepper.stream(
            step_count(tau, 200 * tau, 1), stepper.starts("bootstrap"))]
        e = [stepper.energy(u) for u, _ in levels]
        A, M, W, F = stepper.A, stepper.M, problem.potential, problem.nonlinearity
        gap = [e1 - e0 + tau * (w @ (A @ w)) + 0.5 * ((u - v) @ (A @ (u - v)))
               - stepper.weights @ (W(u) - W(v)) + (u - v) @ (M @ F(v))
               for (v, _), (u, w), e0, e1 in zip(levels, levels[1:], e, e[1:])]
        assert np.abs(gap).max() <= 1e-12 * np.abs(e).max()
        if problem is linear:
            diffs = np.diff(e)
            assert (diffs <= 1e-12).all()
            assert e[-1] < e[0]


def test_bdf2_g_norm_energy_law():
    # On the linear homogeneous run above, BDF2's block rows tested with w^n
    # and with (3/2) u^n - 2u^(n-1) + (1/2) u^(n-2), and Dahlquist's G-norm,
    # give for n >= 2
    #   E_G^n - E_G^(n-1) = -tau |w^n|_A^2 - (1/4) |u^n - 2u^(n-1) + u^(n-2)|_A^2,
    #   E_G^n = (1/4) (|u^n|_A^2 + |2u^n - u^(n-1)|_A^2).
    tau = 0.005
    linear = ProblemSpec(u0=evolution_problem(seed=11).u0, potential=zero_map)
    stepper = Stepper(linear, generate_disk_mesh(80, 1.0), tau, bdf_scheme(2))
    levels = [(u, w) for _, _, u, w in stepper.stream(
        step_count(tau, 200 * tau, 2), stepper.starts("bootstrap"))]
    u = [u for u, _ in levels]

    def a(v):
        return v @ (stepper.A @ v)

    e = [0.25 * (a(u1) + a(2 * u1 - u0)) for u0, u1 in zip(u, u[1:])]  # E_G^1, ...
    gap = [e1 - e0 + tau * a(w) + 0.25 * a(u2 - 2 * u1 + u0) for u0, u1, u2, (_, w), e0, e1
           in zip(u, u[1:], u[2:], levels[2:], e, e[1:])]
    assert np.abs(gap).max() <= 1e-12 * np.abs(e).max()


def test_bdf3_difference_quotient_truncation():
    # one-step check from exact data: the BDF time quotient of interpolated
    # exact values matches the interpolated time derivative to O(tau^3)
    problem = manufactured_linear()
    mesh = generate_disk_mesh(80, 1.0)
    tau = 1e-3
    delta = bdf_scheme(3).delta
    tn = 3 * tau
    quotient = sum(
        delta[j] * assembly.nodal_interpolate(problem.exact_u, mesh, tn - j * tau)
        for j in range(4)
    ) / tau
    exact_rate = assembly.nodal_interpolate(
        lambda x, y, t: -np.exp(-t) * x * y, mesh, tn)
    assert np.abs(quotient - exact_rate).max() <= 1e-6


@pytest.mark.parametrize("k,window", [(1, (0.85, 1.35)), (2, (1.7, 2.3))])
def test_temporal_self_convergence_orders(k, window):
    orders = seeded_temporal_eocs(manufactured_linear(), generate_disk_mesh(40, 1.0),
                                  k, 0.0025, 0.08, [0.04, 0.02, 0.01])
    assert all(window[0] <= order <= window[1] for order in orders), orders


LINEAR_80 = generate_disk_mesh(80, 1.0)


def test_the_linear_oracle_solves_the_semi_discrete_system():
    # from I_h u0, M w - A u = b2 holds to rounding, and M u' + A w = b1 up
    # to the central difference's error in u'
    exact, t, d = semi_discrete_linear(LINEAR_80), 0.3, 1e-4
    M, A = assembly.assemble_mass(LINEAR_80), assembly.assemble_stiffness(LINEAR_80)
    b1, b2 = Stepper(manufactured_linear(), LINEAR_80, 0.1, bdf_scheme(1)).loads(
        np.array([t]))
    u, w = exact(t)
    du = (exact(t + d)[0] - exact(t - d)[0]) / (2 * d)
    assert np.abs(M @ w - A @ u - b2[:, 0]).max() <= 1e-12
    assert np.abs(M @ du + A @ w - b1[:, 0]).max() <= 1e-8
    u0 = assembly.nodal_interpolate(manufactured_linear().u0, LINEAR_80, 0.0)
    assert np.abs(exact(0.0)[0] - u0).max() <= 1e-14


@pytest.mark.parametrize("k, mode", [pytest.param(k, "exact", id=str(k)) for k in (1, 2, 3, 4)]
                         + [pytest.param(k, "bootstrap", id=f"{k}-bootstrap") for k in (2, 3)])
def test_temporal_order_from_t_0_against_the_semi_discrete_oracle(k, mode):
    # the temporal error alone at T = 1, from oracle starts at j tau or from
    # a bootstrap; the orders measured from oracle starts were 1.01 1.01
    # 1.00, 2.03 2.01 2.01, 3.02 3.02 3.01 and 4.03 4.02. BDF4's window starts
    # at 0.025: at tau = 0.05 its steps are still in the stiff modes' initial
    # transient (EOC 8.10). BDF5 has no window here: its error reaches the
    # ~1e-13 solve floor first. Bootstrap starts keep the exact starts'
    # window and tolerance for k = 2 and 3 (measured: 2.03 2.01 2.01 and
    # 3.02 3.02 3.01); k = 1 bootstraps its one start exactly, and for k = 4
    # and 5 the BDF1 substeps fall short of order k.
    exact = semi_discrete_linear(LINEAR_80)
    taus = [0.025, 0.0125, 0.00625] if k == 4 else [0.05, 0.025, 0.0125, 0.00625]
    M = assembly.assemble_mass(LINEAR_80)
    errors = []
    for tau in taus:
        stepper = Stepper(manufactured_linear(), LINEAR_80, tau, bdf_scheme(k))
        starts = ([exact(j * tau) for j in range(k)] if mode == "exact"
                  else stepper.starts(mode))
        for _, _, u, _ in stepper.stream(step_count(tau, 1.0, k), starts):
            pass  # u ends as the level at T = 1
        errors.append(analysis.l2_norm(M, u - exact(1.0)[0]))
    orders = analysis.eoc(errors, taus)
    assert all(abs(order - k) <= 0.4 for order in orders), orders


def test_trajectory_diagnostics_shapes():
    problem = evolution_problem(seed=2)
    mesh = generate_disk_mesh(40, 1.0)
    traj = run(problem, mesh, 1e-5, 20e-5, bdf_scheme(2), start_mode="bootstrap")
    assert traj.energy is not None
    assert len(traj.mass) == len(traj.times) == len(traj.energy) == 21
    assert traj.snapshots == []  # nothing kept unless asked for
    lin = run(manufactured_linear(), mesh, 0.01, 0.1, bdf_scheme(2), start_mode="exact")
    assert lin.energy is None  # no potential declared


def test_run_memory_does_not_grow_with_the_step_count():
    # 100 against 400 steps at 640 nodes. Storing every u and w would add
    # 2 N doubles per step, about 3 MB over the 300 extra steps.
    problem = manufactured_linear()
    mesh = generate_disk_mesh(640, 1.0)
    peaks = []
    for T in (0.25, 1.0):
        tracemalloc.start()
        try:
            run(problem, mesh, 0.0025, T, bdf_scheme(3), start_mode="exact")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def test_run_keeps_u_at_exactly_the_named_steps_in_step_order():
    problem = evolution_problem(seed=4)
    mesh = generate_disk_mesh(40, 1.0)
    tau, scheme = 1e-5, bdf_scheme(2)
    traj = run(problem, mesh, tau, 10 * tau, scheme, start_mode="bootstrap",
               keep=[7, 0, 3, 10, 3])
    stepper = Stepper(problem, mesh, tau, scheme)
    us = [u for _, _, u, _ in stepper.stream(10, stepper.starts("bootstrap"))]
    assert len(traj.snapshots) == 4
    for n, u in zip([0, 3, 7, 10], traj.snapshots):
        np.testing.assert_array_equal(u, us[n])


def test_run_final_state_is_the_last_level_of_the_stream():
    problem = manufactured_linear()
    mesh = generate_disk_mesh(40, 1.0)
    tau, scheme = 0.01, bdf_scheme(3)
    traj = run(problem, mesh, tau, 0.1, scheme, start_mode="exact", keep=[10])
    stepper = Stepper(problem, mesh, tau, scheme)
    *_, (n, t, u, w) = stepper.stream(10, stepper.starts("exact"))
    assert (n, t) == (10, traj.times[-1])
    np.testing.assert_array_equal(traj.u_final, u)
    np.testing.assert_array_equal(traj.w_final, w)
    np.testing.assert_array_equal(traj.snapshots[0], u)


@pytest.mark.parametrize("bad", [-1, 11, 2.5])
def test_run_names_a_step_it_cannot_keep_before_assembling(monkeypatch, bad):
    def no_assembly(*args):
        raise AssertionError("run assembled before checking keep")

    mesh = generate_disk_mesh(20, 1.0)
    monkeypatch.setattr(integrator, "Stepper", no_assembly)
    with pytest.raises(ValueError, match=rf"step {bad}: the run has steps 0\.\.10"):
        run(manufactured_linear(), mesh, 0.01, 0.1, bdf_scheme(2), start_mode="exact",
            keep=[3, bad])


@pytest.mark.parametrize("problem", [manufactured_linear(), manufactured_nonlinear()],
                         ids=["linear", "nonlinear"])
def test_block_loads_equal_the_per_time_loads_bitwise(problem):
    mesh = generate_disk_mesh(320, 1.0)
    stepper = Stepper(problem, mesh, 0.0025, bdf_scheme(3))
    times = 0.0 + np.arange(3, 43) * 0.0025
    blocks = stepper.loads(times)
    forcings = ((problem.f1_bulk, problem.f1_surf), (problem.f2_bulk, problem.f2_surf))
    for block, (f_bulk, f_surf) in zip(blocks, forcings):
        assert block.shape == (mesh.node_count, 40)
        for col, t in enumerate(times.tolist()):
            one = (assembly.load_vector(stepper.M_bulk, assembly.nodal_interpolate(f_bulk, mesh, t))
                   + assembly.load_vector(stepper.M_surf, assembly.nodal_interpolate(f_surf, mesh, t)))
            assert block[:, col].tobytes() == one.tobytes(), (col, t)


@pytest.mark.parametrize("k, start_mode", [(3, "exact"), (2, "bootstrap")])
def test_final_state_does_not_depend_on_the_load_block_size(monkeypatch, k, start_mode):
    # 320 nodes: 12-step blocks by default; 100 steps, and 20 substeps per
    # bootstrap start, span several blocks
    problem, mesh = manufactured_nonlinear(), generate_disk_mesh(320, 1.0)
    assert integrator.LOAD_BLOCK_VALUES // mesh.node_count == 12

    def final(block_values):
        monkeypatch.setattr(integrator, "LOAD_BLOCK_VALUES", block_values)
        traj = run(problem, mesh, 0.0025, 0.25, bdf_scheme(k), start_mode=start_mode)
        return traj.u_final.tobytes(), traj.w_final.tobytes()

    default = final(integrator.LOAD_BLOCK_VALUES)
    assert final(1) == default  # one step per block
    assert final(2 ** 30) == default  # one block


def _same_csr(a, b):
    return (a.format == b.format == "csr" and a.shape == b.shape
            and a.indptr.tobytes() == b.indptr.tobytes()
            and a.indices.tobytes() == b.indices.tobytes()
            and a.data.tobytes() == b.data.tobytes())


@pytest.mark.parametrize("problem", [manufactured_linear(), evolution_problem()],
                         ids=["forced", "unforced"])
def test_stepper_mass_is_the_one_assemble_mass(problem):
    # the solver steps with the very matrix the brute-force oracle checks
    mesh = generate_disk_mesh(160, 1.0)
    stepper = Stepper(problem, mesh, 0.01, bdf_scheme(2))
    assert _same_csr(stepper.M, assembly.assemble_mass(mesh))


def test_a_forced_stepper_holds_the_assembled_mass_parts_bitwise(monkeypatch):
    calls = []
    for name in ("assemble_bulk_mass", "assemble_surface_mass"):
        part = getattr(assembly, name)
        monkeypatch.setattr(assembly, name, lambda mesh, name=name, part=part:
                            calls.append(name) or part(mesh))
    mesh = generate_disk_mesh(160, 1.0)
    stepper = Stepper(ProblemSpec(f2_surf=lambda x, y, t: 1.0), mesh, 0.01, bdf_scheme(1))
    assert sorted(calls) == ["assemble_bulk_mass", "assemble_surface_mass"]
    assert _same_csr(stepper.M_bulk, assembly.assemble_bulk_mass(mesh))
    assert _same_csr(stepper.M_surf, assembly.assemble_surface_mass(mesh))


def test_a_constant_forcing_loads_like_its_interpolant():
    mesh = generate_disk_mesh(40, 1.0)
    stepper = Stepper(ProblemSpec(f1_bulk=lambda x, y, t: 1.0), mesh, 0.01, bdf_scheme(1))
    b1, b2 = stepper.loads(np.array([0.0, 0.01, 0.02]))
    expected = stepper.M_bulk @ np.ones(mesh.node_count)
    for col in range(3):
        np.testing.assert_array_equal(b1[:, col], expected)
    assert not b2.any()


def _recording_f1_bulk(problem, seen):
    # the problem with its f1_bulk wrapped to record every t it is given
    def f1_bulk(x, y, t):
        seen.extend(np.ravel(t).tolist())
        return problem.f1_bulk(x, y, t)

    return dataclasses.replace(problem, f1_bulk=f1_bulk)


def test_stream_steps_and_loads_at_n_tau_bitwise():
    # 320 nodes: 40 steps in 12-step load blocks
    tau, n_steps = 0.01, 40
    seen = []
    problem = _recording_f1_bulk(manufactured_linear(), seen)
    stepper = Stepper(problem, generate_disk_mesh(320, 1.0), tau, bdf_scheme(3))
    times = [t for _, t, _, _ in stepper.stream(n_steps, stepper.starts("exact"))]
    expected = [n * tau for n in range(n_steps + 1)]
    assert times == expected
    assert set(seen) == set(expected[3:])


@pytest.mark.parametrize("k", [2, 3])
def test_bootstrap_starts_from_u0_at_zero_and_loads_from_there_bitwise(k):
    # 320 nodes: the substeps load in 12-step blocks
    tau = 0.01
    seen = []
    problem = _recording_f1_bulk(manufactured_linear(), seen)
    mesh = generate_disk_mesh(320, 1.0)
    stepper = Stepper(problem, mesh, tau, bdf_scheme(k))
    starts = stepper.starts("bootstrap")
    assert starts[0][0].tobytes() == assembly.nodal_interpolate(problem.u0, mesh, 0.0).tobytes()
    assert len(starts) == k
    m = integrator._bootstrap_substeps(tau, k)
    assert k != 3 or m == 22  # two load blocks per start
    assert seen == [(j - 1) * tau + s * (tau / m)
                    for j in range(1, k) for s in range(1, m + 1)]
