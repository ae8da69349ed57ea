"""The model-parameter rule: c and T positive and finite, sigma nonnegative
and finite, checked the same way at every library entry point that takes
them, with a message naming the parameter that breaks it."""

import inspect
import math

import numpy as np
import pytest

from graphflock.cooperative import coop_kernel, coop_value, coop_value_measure, coop_variance, coop_variance_measure
from graphflock.equilibrium import build_kernel, game_value, limit_value, limit_variance, player_variance
from graphflock.errors import ParameterError
from graphflock.flow import cycle_closed_form, solve_f
from graphflock.graphs import cycle
from graphflock.montecarlo import SimConfig, simulate
from graphflock.spectral import limit_measure
from graphflock.strategies import (
    LinearProfile,
    best_response,
    cost_under_profile,
    deviation_gap,
    epsilon_bounds,
    mf_profile,
    nash_audit,
    profile_costs,
    zero_profile,
)

G = cycle(6)
MU = limit_measure("cycle_limit")
SCHEDULE = solve_f(MU, 1.0, 1.0, 100)
PROFILE = mf_profile(G, 1.0, 1.0, 100)

#: Each entry point as a function of the model parameters it takes, by name.
ENTRY_POINTS = {
    "solve_f": lambda c=1.0, T=1.0: solve_f(MU, c, T, 100),
    "build_kernel": lambda c=1.0, T=1.0, sigma=1.0: build_kernel(G, c, T, sigma, 100),
    "coop_kernel": lambda c=1.0, T=1.0, sigma=1.0: coop_kernel(G, c, T, sigma),
    "cycle_closed_form": lambda c=1.0: cycle_closed_form(c, 0.5),
    "LinearProfile": lambda T=1.0: LinearProfile(G.n, T, 100, "custom", matrix_fn=lambda t: np.eye(G.n)),
    "zero_profile": lambda T=1.0: zero_profile(G, T, 100),
    "mf_profile": lambda c=1.0, T=1.0: mf_profile(G, c, T, 100),
    "profile_costs": lambda c=1.0, sigma=1.0: profile_costs(G, PROFILE, sigma, c),
    "cost_under_profile": lambda c=1.0, sigma=1.0: cost_under_profile(G, PROFILE, 0, sigma, c),
    "best_response": lambda c=1.0, sigma=1.0: best_response(G, PROFILE, 0, c, sigma),
    "deviation_gap": lambda c=1.0, sigma=1.0: deviation_gap(G, PROFILE, 0, c, sigma),
    "nash_audit": lambda c=1.0, sigma=1.0: nash_audit(G, PROFILE, c, sigma),
    "epsilon_bounds": lambda c=1.0, T=1.0, sigma=1.0: epsilon_bounds(G, c, T, sigma),
    "limit_variance": lambda sigma=1.0: limit_variance(SCHEDULE, sigma, 0.5),
    "limit_value": lambda sigma=1.0: limit_value(SCHEDULE, sigma),
    "coop_value_measure": lambda c=1.0, T=1.0, sigma=1.0: coop_value_measure(MU, c, T, sigma),
    "coop_variance_measure": lambda c=1.0, T=1.0, sigma=1.0: coop_variance_measure(MU, c, T, sigma, 0.5),
    "simulate": lambda sigma=1.0: simulate(G, PROFILE, sigma, SimConfig(3, 0.01, 0)),
}

#: Values that break the rule: 0 is allowed for sigma alone.
BAD = {"c": (-1.0, math.inf, math.nan, 0.0), "T": (-1.0, math.inf, math.nan, 0.0), "sigma": (-1.0, math.inf, math.nan)}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_parameter_by_name(name):
    call = ENTRY_POINTS[name]
    for param in inspect.signature(call).parameters:
        for bad in BAD[param]:
            with pytest.raises(ParameterError, match=f"^{param} must be (positive|nonnegative) and finite, got {bad}$"):
                call(**{param: bad})


def test_sigma_zero_is_the_deterministic_game():
    k = build_kernel(G, 1.0, 1.0, 0.0, 100)
    assert game_value(k) == 0.0 and np.all(player_variance(k, np.linspace(0.0, 1.0, 5)) == 0.0)
    assert game_value(k, np.arange(6.0)) > 0.0
    coop = coop_kernel(G, 1.0, 1.0, 0.0)
    assert coop_value(coop) == 0.0 and coop_variance(coop, 0.5) == 0.0
    assert profile_costs(G, PROFILE, 0.0, 1.0).max() == 0.0
