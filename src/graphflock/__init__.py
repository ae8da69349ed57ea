"""Linear-quadratic flocking games on graphs.

Semi-explicit Nash equilibria on walk-regular graphs (vertex-transitive
ones among them) via the Laplacian spectrum, their large-population
limits, mean-field epsilon-Nash certificates on general graphs, the
cooperative benchmark, and the numerical verification machinery (Riccati
residuals, best-response audits, Monte Carlo simulation) that backs them.

The public names below are imported from their modules on first access
(PEP 562), so importing the package, or graphflock.cli, loads neither
numpy nor scipy.  That lets the CLI apply LG_THREADS before BLAS starts.
"""

import importlib

from .errors import (
    DomainError,
    GenerationError,
    GraphflockError,
    NumericError,
    ParameterError,
)

_EXPORTS = {
    "graphs": (
        "Graph",
        "build_graph",
        "complete",
        "cycle",
        "edge_list_graph",
        "erdos_renyi",
        "graph_distances",
        "random_regular",
        "read_edge_list",
        "torus",
    ),
    "spectral": (
        "EigenSystem",
        "SpectralMeasure",
        "eigendecompose",
        "empirical_measure",
        "laplacian",
        "laplacian_eigensystem",
        "limit_measure",
    ),
    "flow": ("FlockingSchedule", "cycle_closed_form", "q_eval", "solve_f"),
    "equilibrium": (
        "EquilibriumKernel",
        "GaussianLaw",
        "build_kernel",
        "covariance_bound",
        "equilibrium_control",
        "game_value",
        "limit_value",
        "limit_variance",
        "p_matrix",
        "player_variance",
        "riccati_residual",
        "riccati_terminal_residual",
        "state_law",
    ),
    "strategies": (
        "BestResponse",
        "EpsilonBounds",
        "LinearProfile",
        "best_response",
        "epsilon_bounds",
        "equilibrium_profile",
        "mf_profile",
        "nash_audit",
        "profile_costs",
        "zero_profile",
    ),
    "cooperative": ("CoopKernel", "coop_kernel", "coop_value", "coop_variance"),
    "montecarlo": (
        "PathEnsemble",
        "SimConfig",
        "empirical_measure_test",
        "ensemble_stats",
        "simulate",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "DomainError",
    "GenerationError",
    "GraphflockError",
    "NumericError",
    "ParameterError",
    *_MODULE_OF,
]

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
