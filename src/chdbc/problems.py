"""Problem definitions: manufactured solutions and the phase-separation run.

The manufactured problems share the solution pair u = w = e^{-t} x y on the
unit disk. Since xy is harmonic, the bulk forcings are immediate; on the
unit circle xy restricts to (1/2) sin 2(theta), whose surface Laplacian is
-4xy, and the radial derivative of xy is 2xy, which fixes the surface
forcings. The hard-coded formulas are guarded by the finite-difference
residual oracle in tests/oracles.py.

Fields and nonlinearities are called on whole node arrays, so they must be
NumPy expressions with real values; `assembly.nodal_interpolate` refuses a
field that raises TypeError (`math.exp`) or returns complex values. A constant
result is broadcast. Every field, u0, the forcings and the exact solutions
alike, is called one way: on the node x time grid x[:, None], y[:, None],
t[None, :], one column of t for one time and a block for a block of steps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


def zero_field(x, y, t):
    """The zero forcing; vectorizes over coordinate arrays."""
    return 0.0 * x * y


def zero_map(u):
    """The zero nonlinearity (linear problems)."""
    return 0.0 * u


@dataclass(frozen=True)
class ProblemSpec:
    """One PDE instance: forcings, nonlinearity, initial and exact data.

    Forcings are split into bulk and surface parts; `nonlinearity` is the
    derivative of the chemical potential, and the problem is linear exactly
    when it is the zero map. `potential` is the potential itself, used only
    for energy diagnostics.
    """

    f1_bulk: Callable = zero_field
    f2_bulk: Callable = zero_field
    f1_surf: Callable = zero_field
    f2_surf: Callable = zero_field
    nonlinearity: Callable = zero_map
    u0: Callable = zero_field
    exact_u: Optional[Callable] = None
    exact_w: Optional[Callable] = None
    potential: Optional[Callable] = None

    @property
    def has_exact_solution(self) -> bool:
        return self.exact_u is not None and self.exact_w is not None


def _uw(x, y, t):
    return np.exp(-t) * x * y


def manufactured_linear() -> ProblemSpec:
    """Linear problem on the unit disk with solution u = w = e^{-t} x y."""
    return ProblemSpec(
        f1_bulk=lambda x, y, t: -np.exp(-t) * x * y,
        f2_bulk=lambda x, y, t: np.exp(-t) * x * y,
        f1_surf=lambda x, y, t: 5.0 * np.exp(-t) * x * y,
        f2_surf=lambda x, y, t: -5.0 * np.exp(-t) * x * y,
        u0=lambda x, y, t: x * y,
        exact_u=_uw,
        exact_w=_uw,
    )


def double_well_derivative(u):
    """F(u) = u^3 - u, the derivative of (1/4)(u^2-1)^2."""
    return u * u * u - u


def manufactured_nonlinear() -> ProblemSpec:
    """Same solution with F(u) = u^3 - u: the linear f2 forcings minus F(exact u)."""
    linear, F = manufactured_linear(), double_well_derivative
    return replace(
        linear,
        f2_bulk=lambda x, y, t: linear.f2_bulk(x, y, t) - F(linear.exact_u(x, y, t)),
        f2_surf=lambda x, y, t: linear.f2_surf(x, y, t) - F(linear.exact_u(x, y, t)),
        nonlinearity=F,
    )


# The manufactured problems `convergence --problem` offers, by name. An entry
# looks its factory up when called, so a rebound one (benchmarks/tracing.py) runs.
MANUFACTURED = {
    "linear": lambda: manufactured_linear(),
    "nonlinear": lambda: manufactured_nonlinear(),
}


def _mix64(z):
    """The splitmix64 finalizer, on Python ints or uint64 arrays."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _coin_flip_field(seed: int) -> Callable:
    """Per-point +/-1 draw: the top bit of mix(mix(mix(seed) ^ xbits) ^ ybits).

    Keyed on the coordinates' bit patterns, the field is re-entrant: a point
    gets the same value alone or inside any array, in any order.
    """
    key = _mix64(operator.index(seed))

    def u0(x, y, t):
        xbits = np.asarray(x, dtype=np.float64).view(np.uint64)
        ybits = np.asarray(y, dtype=np.float64).view(np.uint64)
        # uint64 arithmetic wraps by design; NumPy warns for 0-d operands
        with np.errstate(over="ignore"):
            h = _mix64(_mix64(key ^ xbits) ^ ybits)
        return (h >> 63) * 2.0 - 1.0

    return u0


def evolution_problem(strength: float = 10.0, seed: int = 0) -> ProblemSpec:
    """Homogeneous double-well problem with random +/-1 initial data.

    W(u) = strength*(u^2-1)^2, so F(u) = W'(u) = 4*strength*u*(u^2-1); the
    same potential acts in the bulk and on the boundary. Forcings are zero.
    The seed, in [0, 2^64), keys the hashed +/-1 draw `_coin_flip_field`.
    """
    if not (0 < strength < math.inf):
        raise ValueError(f"strength must be positive and finite, got {strength}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    s = float(strength)
    return ProblemSpec(
        nonlinearity=lambda u: 4.0 * s * u * (u * u - 1.0),
        u0=_coin_flip_field(seed),
        potential=lambda u: s * (u * u - 1.0) ** 2,
    )

