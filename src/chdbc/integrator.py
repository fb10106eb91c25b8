"""BDF time stepping for the coupled bulk/surface system.

Classical k-step BDF for linear problems; for nonlinear problems the
linearly implicit variant evaluates the nonlinearity at the extrapolated
value built from the k previous steps, so every step solves one constant
linear saddle system. `bdf_step` is that step. A `Stepper` feeds it for the
starting values and the main loop and streams the levels from t = 0; `run`
drives that stream into a `Trajectory` of diagnostics and kept states.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, inf, isfinite, lcm
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import assembly
from .mesh import Mesh2D
from .problems import ProblemSpec, zero_field, zero_map
from .saddle import StepMatrix, build_step_matrix, nested_dissection_order

MAX_ORDER = 5
BOOTSTRAP_SUBSTEP_CAP = 1000
# Forcing values per load block: a block spans LOAD_BLOCK_VALUES // N steps
# (at least one), so each (N, S) block array holds 32 KiB.
LOAD_BLOCK_VALUES = 2 ** 12


@dataclass(frozen=True)
class BDFScheme:
    """Step count with method and extrapolation coefficients."""

    k: int
    delta: np.ndarray
    gamma: np.ndarray


def bdf_scheme(k: int) -> BDFScheme:
    """The k-step BDF scheme, the one source of its coefficients.

    delta = (delta_0, ..., delta_k) are the method's and gamma = (gamma_0,
    ..., gamma_{k-1}) the extrapolant's, each the double nearest its exact
    rational value. k must be an integer in [1, MAX_ORDER].
    """
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_ORDER:
        raise ValueError(f"BDF order k must be an integer in [1, {MAX_ORDER}], got {k}")
    # delta(xi) = sum_{l=1..k} (1/l) (1 - xi)^l; as sum_{l=j..k} C(l, j)/l =
    # C(k, j)/j, delta_0 = H_k and delta_j = (-1)^j C(k, j)/j for j >= 1.
    # H_k is summed exactly over the common denominator L; int / int rounds
    # correctly, so delta_0 is the double nearest H_k.
    L = lcm(*range(1, k + 1))
    delta = [sum(L // l for l in range(1, k + 1)) / L]
    delta += [(-1) ** j * comb(k, j) / j for j in range(1, k + 1)]
    # gamma(xi) = (1 - (1 - xi)^k) / xi = sum_j (-1)^j C(k, j+1) xi^j
    gamma = [(-1) ** j * comb(k, j + 1) for j in range(k)]
    return BDFScheme(k=k, delta=np.array(delta), gamma=np.array(gamma, dtype=float))


@dataclass
class Trajectory:
    """What one run keeps: per-step diagnostics, the final state and snapshots.

    times, mass and energy (None when the problem has no potential) hold one
    entry per time level; u_final and w_final are the last level, and
    snapshots holds u at each step the caller asked `run` to keep, in step
    order.
    """

    times: np.ndarray
    mass: np.ndarray
    energy: Optional[np.ndarray]
    u_final: np.ndarray
    w_final: np.ndarray
    snapshots: List[np.ndarray]


def step_index(t: float, tau: float) -> int:
    """The n with n tau = t to within 1e-12 max(1, |t|): the one time-grid rule."""
    if not (0 < tau < inf):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not isfinite(t / tau):
        raise ValueError(f"time {t} is not a finite multiple of tau={tau}")
    n = round(t / tau)
    if abs(n * tau - t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError(f"tau={tau} does not divide the time {t}")
    return n


def step_count(tau: float, span: float, k: int) -> int:
    """Number of steps of size tau in span, by the `step_index` rule.

    The starting values fill the first k-1 steps, so a k-step run needs at
    least k-1 steps, and every run at least one.
    """
    n_steps = step_index(span, tau)
    need = max(1, k - 1)
    if n_steps < need:
        raise ValueError(f"tau={tau} gives {n_steps} step(s) over the time span "
                         f"{span}, but BDF{k} needs at least {need}")
    return n_steps


def bdf_step(problem: ProblemSpec, scheme: BDFScheme, K: StepMatrix, M,
             recent: Sequence[np.ndarray], b1: np.ndarray,
             b2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One k-step BDF step; every step of every run is solved here.

    `recent` holds the k previous values of u, newest first. The first block
    of the right-hand side is b1 - (1/tau) M sum_j delta_j u^{n-j}; 1/tau is
    recovered from the scalar delta0/tau stored in the step matrix. For a
    nonlinear problem b2 gains M F(sum_j gamma_j u^{n-j-1}), the
    nonlinearity at the extrapolant, so no nonlinear solve happens. Raises
    ValueError when the solution is not finite.
    """
    k = scheme.k
    if len(recent) != k:
        raise ValueError(f"history must hold exactly {k} vectors, got {len(recent)}")
    if problem.nonlinearity is not zero_map:
        extrapolant = sum((g * u for g, u in zip(scheme.gamma[1:], recent[1:])),
                          scheme.gamma[0] * recent[0])
        b2 = b2 + assembly.nonlinearity_vector(M, problem.nonlinearity, extrapolant)
    tail = sum((d * u for d, u in zip(scheme.delta[2:], recent[1:])),
               scheme.delta[1] * recent[0])
    inv_tau = K.delta0_over_tau / scheme.delta[0]
    # a disk whose areas fit in a double can still overflow M u / tau here;
    # K.solve refuses the non-finite right-hand side
    with np.errstate(over="ignore", invalid="ignore"):
        b1 = b1 - inv_tau * (M @ tail)
    u, w = K.solve(np.concatenate([b1, b2])).reshape(2, -1)
    if not np.isfinite(u).all():
        raise ValueError("non-finite solution; the extrapolated scheme is "
                         "likely outside its stability region")
    return u, w


def _bootstrap_substeps(tau: float, k: int) -> int:
    return min(BOOTSTRAP_SUBSTEP_CAP, max(1, ceil(tau ** (-(k - 1) / k))))


class Stepper:
    """One problem on one mesh with one step size and scheme, from t = 0.

    Built once, it owns M and A (and M's bulk and surface parts when the
    problem has a forcing), the mass weights, the load evaluator and the
    node order every factorization eliminates in. Level n lies at t = n tau,
    the starting values included. `starts` computes the k starting pairs,
    and `stream` factorizes the step matrix and yields the time levels one
    at a time.
    """

    def __init__(self, problem: ProblemSpec, mesh: Mesh2D, tau: float,
                 scheme: BDFScheme):
        step_index(0.0, tau)  # its tau rule, before anything is assembled
        self.problem, self.mesh, self.tau, self.scheme = problem, mesh, tau, scheme
        self._forcings = ((problem.f1_bulk, problem.f1_surf),
                          (problem.f2_bulk, problem.f2_surf))
        # M is the sum of its (bulk, surface) parts; only the loads read the
        # parts, so an unforced problem drops them at once.
        self.M_bulk = assembly.assemble_bulk_mass(mesh)
        self.M_surf = assembly.assemble_surface_mass(mesh)
        self.M = self.M_bulk + self.M_surf
        if all(f is zero_field for pair in self._forcings for f in pair):
            self.M_bulk = self.M_surf = None
        self.A = assembly.assemble_stiffness(mesh)
        # 1^T M: mass and the potential part of the energy integrate against it
        self.weights = np.asarray(self.M.sum(axis=0)).ravel()
        self.order = nested_dissection_order(mesh.nodes, self.M)

    def loads(self, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The loads (b1, b2) at the S given times, each of shape (N, S).

        Forcing pairs live on (bulk, surface), so each load is
        M_bulk @ F_bulk + M_surf @ F_surf. An unforced problem evaluates no
        forcing; a forced one all four, each once on the node x time grid.
        """
        if self.M_bulk is None:
            zero = np.broadcast_to(0.0, (self.mesh.node_count, len(times)))
            return zero, zero
        b1, b2 = (
            assembly.load_vector(self.M_bulk, assembly.nodal_interpolate(f_bulk, self.mesh, times))
            + assembly.load_vector(self.M_surf, assembly.nodal_interpolate(f_surf, self.mesh, times))
            for f_bulk, f_surf in self._forcings
        )
        return b1, b2

    def mass(self, u: np.ndarray) -> float:
        """The conserved scalar 1^T M u (bulk plus boundary content)."""
        return float(self.weights @ u)

    def energy(self, u: np.ndarray) -> float:
        """Discrete Ginzburg-Landau energy (1/2) u^T A u + 1^T M W(u).

        The potential is interpolated at the nodes before integration,
        matching the assembly convention for nonlinear terms. A diverging
        run overflows to inf or NaN here while u is still finite, often
        steps before the step kernel would abort; `run` aborts at that
        level, so overflow is not warned about.
        """
        W = self.problem.potential
        with np.errstate(over="ignore", invalid="ignore"):
            return float(0.5 * (u @ (self.A @ u)) + self.weights @ W(u))

    def _step_matrix(self, delta0: float, tau: float) -> StepMatrix:
        # a subnormal tau overflows delta0/tau, which build_step_matrix
        # refuses; Python's float division gives that inf without a warning
        return build_step_matrix(self.M, self.A, float(delta0) / tau, self.order)

    def _march(self, K: StepMatrix, scheme: BDFScheme, recent: List[np.ndarray],
               steps: range, t0: float, dt: float, label: Optional[int] = None
               ) -> Iterator[Tuple[int, float, np.ndarray, np.ndarray]]:
        """Yield (n, t, u, w) for each step n in `steps`, taken at t = t0 + n dt.

        `recent` holds the scheme's k newest u, newest first; an abort names
        step n, or step `label` and its substep n. The loads come a block of
        max(1, LOAD_BLOCK_VALUES // N) steps at a time, at the same doubles.
        """
        block = max(1, LOAD_BLOCK_VALUES // self.mesh.node_count)
        for first in range(steps.start, steps.stop, block):
            ns = range(first, min(first + block, steps.stop))
            b1, b2 = self.loads(t0 + np.arange(ns.start, ns.stop) * dt)
            for col, n in enumerate(ns):
                t = t0 + n * dt
                try:
                    u, w = bdf_step(self.problem, scheme, K, self.M, recent,
                                    b1[:, col], b2[:, col])
                except ValueError as exc:
                    where = (n if label is None else
                             f"{label}, BDF{scheme.k} substep {n} of {len(steps)}")
                    raise RuntimeError(f"aborted at step {where} (t = {t}): {exc}") from exc
                recent = [u] + recent[:-1]
                yield n, t, u, w

    def starts(self, mode: str) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
        """The k starting pairs (u^j, w^j) at t = j tau, j = 0..k-1, as a list.

        mode 'exact' interpolates the stated exact solution; 'bootstrap' takes
        u^0 from the initial data at t = 0, with w^0 None (no step reads it),
        and reaches each later start with m = ceil(tau^(-(k-1)/k)) BDF1
        substeps (at most BOOTSTRAP_SUBSTEP_CAP). Their error, about tau^2/m
        = tau^(2+(k-1)/k), is below the method order k for k >= 3. The BDF1
        factorization is released when the call returns.
        """
        problem, mesh, tau, k = self.problem, self.mesh, self.tau, self.scheme.k
        if mode == "exact":
            if not problem.has_exact_solution:
                raise ValueError("start mode 'exact' needs exact solutions")
            return [(assembly.nodal_interpolate(problem.exact_u, mesh, j * tau),
                     assembly.nodal_interpolate(problem.exact_w, mesh, j * tau))
                    for j in range(k)]
        if mode != "bootstrap":
            raise ValueError(f"start mode must be 'exact' or 'bootstrap', got {mode!r}")

        u = assembly.nodal_interpolate(problem.u0, mesh, 0.0)
        pairs = [(u, None)]
        if k == 1:
            return pairs
        m = _bootstrap_substeps(tau, k)
        sub = tau / m
        one = bdf_scheme(1)
        K1 = self._step_matrix(one.delta[0], sub)
        for j in range(1, k):
            for _, _, u, w in self._march(K1, one, [u], range(1, m + 1),
                                          (j - 1) * tau, sub, j):
                pass
            pairs.append((u, w))
        return pairs

    def stream(self, n_steps: int, starts: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]]
               ) -> Iterator[Tuple[int, float, np.ndarray, np.ndarray]]:
        """Yield (n, t, u, w) for n = 0..n_steps, holding only the k newest u.

        `starts` holds the first k pairs (w is None at a bootstrap level 0),
        and n_steps, at least k - 1, comes from `step_count`; both are
        checked before level 0 is yielded. The step matrix is factorized
        once the starting values have been yielded, and not at all when they
        fill the run (n_steps = k - 1).
        """
        k = self.scheme.k
        if n_steps < k - 1:
            raise ValueError(f"n_steps={n_steps} is fewer than the k - 1 = {k - 1} "
                             f"steps the starting values of BDF{k} fill")
        if len(starts) != k:
            raise ValueError(f"the starting values fill {len(starts)} level(s), "
                             f"but BDF{k} needs {k}")
        for n, (u, w) in enumerate(starts):
            yield n, n * self.tau, u, w
        if n_steps == k - 1:
            return
        K = self._step_matrix(self.scheme.delta[0], self.tau)
        recent = [u for u, _ in reversed(starts)]  # newest first
        yield from self._march(K, self.scheme, recent, range(k, n_steps + 1),
                               0.0, self.tau)


def run(problem: ProblemSpec, mesh: Mesh2D, tau: float, T: float,
        scheme: BDFScheme, start_mode: str,
        keep: Iterable[int] = ()) -> Trajectory:
    """Advance the problem from t = 0 to T, streaming its diagnostics.

    Each time level adds its time, mass and (when the problem has a
    potential) energy to the trajectory and is then dropped, unless its step
    index is in `keep`: those u are kept as snapshots. An index outside
    [0, n_steps] is a ValueError, raised before anything is assembled. A
    level whose mass or energy is not finite aborts the run with a
    RuntimeError naming its step, as a non-finite u does.
    start_mode is 'exact' or 'bootstrap' (`Stepper.starts`). A run seeded
    with other starting values is `Stepper.stream` with those values, and
    one from a later time steps the problem shifted in time. A level count
    too large to allocate is a MemoryError, raised before assembly too.
    """
    n_steps = step_count(tau, T, scheme.k)
    keep = set(keep)
    for n in keep:
        if n not in range(n_steps + 1):
            raise ValueError(f"cannot keep step {n!r}: the run has steps 0..{n_steps}")
    try:
        times, mass = np.empty(n_steps + 1), np.empty(n_steps + 1)
        energy = None if problem.potential is None else np.empty(n_steps + 1)
    except (ValueError, MemoryError) as exc:
        # NumPy raises ValueError for a length past its largest dimension
        raise MemoryError(f"cannot allocate the diagnostics of "
                          f"{n_steps + 1:.4g} time levels") from exc
    stepper = Stepper(problem, mesh, tau, scheme)
    snapshots = []
    for n, t, u, w in stepper.stream(n_steps, stepper.starts(start_mode)):
        times[n], mass[n] = t, stepper.mass(u)
        if energy is not None:
            energy[n] = stepper.energy(u)
        for name, values in (("mass", mass), ("energy", energy)):
            if values is not None and not isfinite(values[n]):
                raise RuntimeError(f"aborted at step {n} (t = {t}): the {name} is {values[n]}")
        if n in keep:
            snapshots.append(u)
    return Trajectory(times=times, mass=mass, energy=energy, u_final=u,
                      w_final=w, snapshots=snapshots)
