"""The model-parameter rule: c and T positive and finite, sigma nonnegative
and finite, checked the same way at every library entry point that takes
them, with a message naming the parameter that breaks it; and c*T, where
an entry point holds both, must not overflow.  Counts and seeds follow one
integer rule: an integer, not a bool nor a whole float."""

import functools
import inspect
import math

import numpy as np
import pytest

from graphflock.cooperative import coop_kernel, coop_value, coop_value_measure, coop_variance, coop_variance_measure
from graphflock.equilibrium import (
    build_kernel,
    equilibrium_control,
    game_value,
    limit_value,
    limit_variance,
    player_variance,
    state_law,
)
from graphflock.errors import NumericError, ParameterError
from graphflock.flow import cycle_closed_form, solve_f
from graphflock.graphs import complete, cycle, edge_list_graph, erdos_renyi, random_regular, torus
from graphflock.montecarlo import SimConfig, simulate
from graphflock.spectral import limit_measure
from graphflock.strategies import (
    LinearProfile,
    best_response,
    epsilon_bounds,
    mf_profile,
    nash_audit,
    profile_costs,
    zero_profile,
)

G = cycle(6)
MU = limit_measure("cycle_limit")
SCHEDULE = solve_f(MU, 1.0, 1.0)
PROFILE = mf_profile(G, 1.0, 1.0)

#: Each entry point as a function of the model parameters it takes, by name.
ENTRY_POINTS = {
    "solve_f": lambda c=1.0, T=1.0: solve_f(MU, c, T),
    "build_kernel": lambda c=1.0, T=1.0, sigma=1.0: build_kernel(G, c, T, sigma),
    "coop_kernel": lambda c=1.0, T=1.0, sigma=1.0: coop_kernel(G, c, T, sigma),
    "cycle_closed_form": lambda c=1.0: cycle_closed_form(c, 0.5),
    "LinearProfile": lambda T=1.0: LinearProfile(G.n, T, "custom", matrix_fn=lambda t: np.eye(G.n)),
    "zero_profile": lambda T=1.0: zero_profile(G, T),
    "mf_profile": lambda c=1.0, T=1.0: mf_profile(G, c, T),
    "profile_costs": lambda c=1.0, sigma=1.0: profile_costs(G, PROFILE, sigma, c),
    "best_response": lambda c=1.0, sigma=1.0: best_response(G, PROFILE, 0, c, sigma),
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


#: c = T = 1e200 are each finite, but c*T overflows.  The profile entry
#: points take T from the profile.
HUGE = 1e200
HUGE_PROFILE = zero_profile(G, HUGE)
OVERFLOWING = {
    **{
        name: functools.partial(ENTRY_POINTS[name], c=HUGE, T=HUGE)
        for name in ENTRY_POINTS
        if {"c", "T"} <= set(inspect.signature(ENTRY_POINTS[name]).parameters)
    },
    "profile_costs": lambda: profile_costs(G, HUGE_PROFILE, 1.0, HUGE),
    "best_response": lambda: best_response(G, HUGE_PROFILE, 0, HUGE, 1.0),
    "nash_audit": lambda: nash_audit(G, HUGE_PROFILE, HUGE, 1.0),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_entry_point_refuses_a_c_times_T_that_overflows(name):
    with pytest.raises(NumericError, match=r"^c\*T overflows at c=1e\+200, T=1e\+200$"):
        OVERFLOWING[name]()


def test_sigma_zero_is_the_deterministic_game():
    k = build_kernel(G, 1.0, 1.0, 0.0)
    assert game_value(k) == 0.0 and np.all(player_variance(k, np.linspace(0.0, 1.0, 5)) == 0.0)
    assert game_value(k, np.arange(6.0)) > 0.0
    coop = coop_kernel(G, 1.0, 1.0, 0.0)
    assert coop_value(coop) == 0.0 and coop_variance(coop, 0.5) == 0.0
    assert profile_costs(G, PROFILE, 0.0, 1.0).max() == 0.0


AUDIT_STEPS = "an audit needs an integer number of steps"

#: A count or seed that is not an integer -> the call, and the parameter its message names.
NOT_INTEGERS = {
    "cycle-n": (lambda: cycle(5.5), "cycle graph needs an integer n"),
    "complete-n": (lambda: complete(2.5), "complete graph needs an integer n"),
    "torus-d": (lambda: torus(3, True), "torus needs an integer d"),
    "torus-side": (lambda: torus(3.0, 2), "torus needs an integer side"),
    "erdos_renyi-n": (lambda: erdos_renyi(5.5, 0.5, 1), "erdos_renyi needs an integer n"),
    "erdos_renyi-seed": (lambda: erdos_renyi(5, 0.5, seed=1.7), "seed must be an integer"),
    "random_regular-d": (lambda: random_regular(6, 2.0, 1), "random_regular needs an integer degree d"),
    "edge_list-n": (lambda: edge_list_graph([(1, 2)], n=2.5), "edge_list graph needs an integer n"),
    "edge_list-label": (lambda: edge_list_graph([(1.5, 2.9)], n=3), "edge_list vertex label 1.5 is not an integer"),
    "edge_list-label-whole": (lambda: edge_list_graph([(1, 2.0)], n=3), "edge_list vertex label 2.0 is not an integer"),
    "edge_list-label-bool": (lambda: edge_list_graph([(True, 2)], n=3), "edge_list vertex label True is not an integer"),
    "edge_list-label-text": (lambda: edge_list_graph([("1", 2)], n=3), "edge_list vertex label '1' is not an integer"),
    "profile_costs-steps": (lambda: profile_costs(G, PROFILE, 1.0, 1.0, steps=2.5), AUDIT_STEPS),
    "best_response-steps-bool": (lambda: best_response(G, PROFILE, 0, 1.0, 1.0, steps=True), AUDIT_STEPS),
    "nash_audit-steps-zero": (lambda: nash_audit(G, PROFILE, 1.0, 1.0, steps=0), AUDIT_STEPS),
    "simulate-seed": (lambda: simulate(G, PROFILE, 1.0, SimConfig(3, 0.01, 1.5)), "seed must be an integer"),
    "simulate-paths": (lambda: simulate(G, PROFILE, 1.0, SimConfig(3.5, 0.01, 0)), "n_paths must be an integer"),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
def test_counts_and_seeds_are_integers(name):
    call, message = NOT_INTEGERS[name]
    with pytest.raises(ParameterError, match=f"^{message}"):
        call()


#: Each entry point that takes a state vector, as a function of it.
KERNEL = build_kernel(G, 1.0, 1.0, 1.0)
STATE_VECTORS = {
    "profile_costs": lambda x: profile_costs(G, PROFILE, 1.0, 1.0, x),
    "best_response": lambda x: best_response(G, PROFILE, 0, 1.0, 1.0, x),
    "nash_audit": lambda x: nash_audit(G, PROFILE, 1.0, 1.0, x),
    "game_value": lambda x: game_value(KERNEL, x),
    "state_law": lambda x: state_law(KERNEL, 0.5, x),
    "equilibrium_control": lambda x: equilibrium_control(KERNEL, 0, 0.5, x),
    "coop_value": lambda x: coop_value(coop_kernel(G, 1.0, 1.0, 1.0), x),
}


@pytest.mark.parametrize("name", sorted(STATE_VECTORS))
@pytest.mark.parametrize(
    "x, message",
    [([math.nan, 0, 0, 0, 0, 0], "entry 0 = nan"), ([0, 1, 2, -math.inf, math.nan, 5], "entry 3 = -inf")],
    ids=["nan", "inf"],
)
def test_a_state_vector_must_be_finite(name, x, message):
    # Refused by name, not blamed on the step count or returned as NaN.
    with pytest.raises(ParameterError, match=f"^a state vector must be finite, got {message}$"):
        STATE_VECTORS[name](x)
