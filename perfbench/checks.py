"""Output checks made apart from the program.

Every reference here is computed from closed forms or with scipy's own
integrators, never by calling graphflock: closed-form spectra of cycles,
tori and complete graphs; the flocking schedule f' = c Q'(f) solved by
``solve_ivp`` at tight tolerance; the dense-limit and mean-field laws in
closed form; and the 2x2 mean-field best-response Riccati.  Where no
closed form exists (random graphs, Monte Carlo), the checks test
properties the method must have, with tolerances that hold for any seed.

Each check takes the artifact path and the workload seed and raises
``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
from scipy.integrate import solve_ivp

# Every workload command runs at the CLI defaults c = T = sigma = 1.
C = T = SIGMA = 1.0

#: Gauss-Legendre nodes for time integrals over [0, t]; the integrands are
#: analytic in s, so this is exact to rounding.
TIME_NODES = 64

#: Trapezoid points per period for limit measures given by cosines; the
#: integrands are analytic and periodic, so the rule converges geometrically.
PERIODIC_NODES = 128

#: Monte Carlo: standard errors allowed for a population-averaged statistic.
MC_Z = 4.5
#: Monte Carlo: per-vertex rate of |z| > 3 assumed when bounding the count
#: of such vertices; a Gaussian gives 0.0027, the rest covers skew of the
#: variance estimator and correlation between neighbouring vertices.
MC_TAIL_RATE = 0.01
#: Monte Carlo: binomial tail probability below which a count is refused.
MC_TAIL_P = 1e-6


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(name: str, got, want, atol: float, rtol: float = 0.0) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    worst = int(np.argmax(err - limit)) if err.size else 0
    _require(
        bool(np.all(np.isfinite(got))) and bool(np.all(err <= limit)),
        f"{name}: off by {err.flat[worst]:.3e} (allowed {limit.flat[worst]:.1e})",
    )


# ---------------------------------------------------------------- artifacts


def read_csv(path):
    """(config, header, rows) of a graphflock CSV artifact."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        _require(first.startswith("# config: "), "CSV artifact lacks its config line")
        config = json.loads(first[len("# config: "):])
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(rows.shape[1] == len(header), "CSV rows do not match the header")
    return config, header, rows


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _column(header, rows, name):
    _require(name in header, f"CSV lacks column {name!r}")
    return rows[:, header.index(name)]


# ---------------------------------------------------------------- measures
# A measure is (nodes, weights) on [-2, 0].


@functools.lru_cache(maxsize=None)
def cycle_atoms(n: int):
    return np.cos(2.0 * np.pi * np.arange(n) / n) - 1.0, np.full(n, 1.0 / n)


@functools.lru_cache(maxsize=None)
def torus_atoms(side: int, d: int):
    cosines = np.cos(2.0 * np.pi * np.arange(side) / side)
    total = np.zeros(1)
    for _ in range(d):
        total = (total[:, None] + cosines[None, :]).ravel()
    return total / d - 1.0, np.full(total.size, 1.0 / total.size)


@functools.lru_cache(maxsize=None)
def complete_atoms(n: int):
    nodes = np.array([0.0, -n / (n - 1.0)])
    return nodes, np.array([1.0 / n, (n - 1.0) / n])


def cycle_limit():
    return cycle_atoms(PERIODIC_NODES)


@functools.lru_cache(maxsize=None)
def kesten_mckay(d: int, points: int = 4 * PERIODIC_NODES):
    """Kesten-McKay law of d-regular random-walk Laplacians.

    With 1 + lam = R cos(phi), R = 2 sqrt(d-1)/d, the density times dlam is
    d R^2 sin^2(phi) / (2 pi (1 - R^2 cos^2 phi)) dphi on [0, pi]; the
    integrand is even and periodic, so the trapezoid rule over the full
    period is spectrally accurate.
    """
    r = 2.0 * math.sqrt(d - 1.0) / d
    phi = 2.0 * np.pi * np.arange(points) / points
    weights = d * r**2 * np.sin(phi) ** 2 / (2.0 * points * (1.0 - (r * np.cos(phi)) ** 2))
    _require(abs(weights.sum() - 1.0) < 1e-12, "Kesten-McKay reference rule lost its mass")
    return r * np.cos(phi) - 1.0, weights


# ---------------------------------------------------------------- the flow


@functools.lru_cache(maxsize=None)
def _schedule_cached(key):
    nodes, weights, c = key[0], key[1], key[2]
    nodes, weights = np.frombuffer(nodes), np.frombuffer(weights)

    def rhs(_t, y):
        resolvent = 1.0 - y[0] * nodes
        q = math.exp(weights @ np.log(resolvent))
        return [c * q * (weights @ (-nodes / resolvent))]

    sol = solve_ivp(rhs, (0.0, T), [0.0], method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
    _require(sol.success, f"reference schedule failed: {sol.message}")
    return lambda t: sol.sol(np.asarray(t, dtype=float))[0]


def schedule(measure, c: float = C):
    """f with f' = c Q'(f), f(0) = 0, as a callable on [0, T]."""
    nodes, weights = measure
    return _schedule_cached((nodes.tobytes(), weights.tobytes(), float(c)))


def dense_variance(t, c: float = C):
    t = np.asarray(t, dtype=float)
    return SIGMA**2 * (1.0 + c * (T - t)) * t / (1.0 + c * T)


def complete_schedule(n: int, c: float = C):
    """Closed form for complete(n): ((1 + a(n+1)ct/n)^(n/(n+1)) - 1)/a."""
    a = n / (n - 1.0)
    return lambda t: ((1.0 + a * (n + 1.0) * c * np.asarray(t, dtype=float) / n) ** (n / (n + 1.0)) - 1.0) / a


def cycle_phi(x):
    root = np.sqrt(1.0 + 2.0 * np.asarray(x, dtype=float))
    return np.log1p(root) - root + x + 0.5


def value_of(measure, f) -> float:
    """-(sigma^2/2) log of the integral of -lam/(1 - f(T) lam)."""
    nodes, weights = measure
    f_T = float(f(T))
    return -0.5 * SIGMA**2 * math.log(weights @ (-nodes / (1.0 - f_T * nodes)))


def covariance_eigenvalues(nodes, f, t: float) -> np.ndarray:
    """sigma^2 (1 - f(T-t) lam)^2 int_0^t (1 - f(T-s) lam)^-2 ds per atom."""
    if t == 0.0:
        return np.zeros(nodes.size)
    x, w = np.polynomial.legendre.leggauss(TIME_NODES)
    s = 0.5 * t * (x + 1.0)
    f_s = f(T - s)
    inner = ((1.0 - np.outer(nodes, f_s)) ** -2) @ (0.5 * t * w)
    return SIGMA**2 * (1.0 - float(f(T - t)) * nodes) ** 2 * inner


def variance_curve(measure, f, ts) -> np.ndarray:
    nodes, weights = measure
    return np.array([weights @ covariance_eigenvalues(nodes, f, float(t)) for t in ts])


def coop_variance_curve(measure, ts, c: float = C) -> np.ndarray:
    """Planner's variance with nu = lam^2, integrated in closed form:
    sigma^2 int (1 + c(T-t) nu) t / (1 + cT nu) dmu."""
    nodes, weights = measure
    nu = nodes**2
    return np.array([SIGMA**2 * weights @ ((1.0 + c * (T - t) * nu) * t / (1.0 + c * T * nu)) for t in ts])


def coop_value(measure, c: float = C) -> float:
    nodes, weights = measure
    return 0.5 * SIGMA**2 * float(weights @ np.log1p(c * T * nodes**2))


# ---------------------------------------------------------------- finite-spectral


def check_spectrum(path, atoms):
    _, header, rows = read_csv(path)
    _require(header == ["index", "eigenvalue"], f"unexpected spectrum header {header}")
    got = np.sort(_column(header, rows, "eigenvalue"))
    _close("spectrum", got, np.sort(atoms[0]), atol=1e-12)


def check_value(path, measure):
    data = read_json(path)
    _close("value", data["value"], value_of(measure, schedule(measure)), atol=1e-10)


def check_variance(path, measure, f, ts_expected):
    _, header, rows = read_csv(path)
    ts = _column(header, rows, "t")
    _close("t grid", ts, ts_expected, atol=1e-12)
    _close("variance", _column(header, rows, "variance"), variance_curve(measure, f, ts), atol=1e-10, rtol=1e-9)


def check_coop(path, measure):
    config, header, rows = read_csv(path)
    ts = _column(header, rows, "t")
    _close("coop variance", _column(header, rows, "variance"), coop_variance_curve(measure, ts), atol=1e-10, rtol=1e-9)
    _close("coop value", config["value"], coop_value(measure), atol=1e-12)
    nash = value_of(measure, schedule(measure))
    _require(config["value"] <= nash + 1e-12, f"coop value {config['value']} exceeds the Nash value {nash}")


#: |value(random d-regular graph on n vertices) - value(Kesten-McKay law)|
#: allowed, keyed by (n, d).  Short cycles make finite graphs deviate by
#: O(1/n); the bounds sit far above every seed measured (see README).
RR_VALUE_TOL = {(1000, 3): 5e-4, (200, 8): 2e-3}


def check_random_regular_value(path, n, d, seed):
    data = read_json(path)
    graph = {"kind": "random_regular", "n": n, "d": d, "seed": seed}
    _require(data["config"]["graph"] == graph, f"value was computed for {data['config']['graph']}")
    km = kesten_mckay(d)
    _close(f"random_regular:{n},{d} value vs Kesten-McKay", data["value"], value_of(km, schedule(km)), atol=RR_VALUE_TOL[(n, d)])


def _t_grid(count):
    return np.linspace(0.0, T, count)


def finite_spectral_checks(seed):
    cyc, tor, comp = cycle_atoms(1000), torus_atoms(32, 2), complete_atoms(600)
    grid = _t_grid(26)
    return {
        "cycle-spectrum": lambda p: check_spectrum(p, cyc),
        "cycle-value": lambda p: check_value(p, cyc),
        "cycle-variance": lambda p: check_variance(p, cyc, schedule(cyc), grid),
        "cycle-coop": lambda p: check_coop(p, cyc),
        "torus-value": lambda p: check_value(p, tor),
        "rr3-value": lambda p: check_random_regular_value(p, 1000, 3, seed),
        "complete-solve-f": lambda p: check_solve_f(p, complete_schedule(600), atol=1e-12),
        "complete-variance": lambda p: check_variance(p, comp, complete_schedule(600), grid),
        "rr8-value": lambda p: check_random_regular_value(p, 200, 8, seed),
    }


# ---------------------------------------------------------------- limit-figures


def check_solve_f(path, f, atol):
    _, header, rows = read_csv(path)
    ts = _column(header, rows, "t")
    _close("schedule", _column(header, rows, "f"), f(ts), atol=atol)


def check_cycle_phi(path):
    """Phi(f(t)) = log 2 + (ct - 1)/2 on the cycle limit, Phi computed here."""
    _, header, rows = read_csv(path)
    ts, f = _column(header, rows, "t"), _column(header, rows, "f")
    _require(rows.shape[0] == 4001, f"solve-f returned {rows.shape[0]} rows, expected 4001")
    _close("cycle Phi(f(t))", cycle_phi(f), math.log(2.0) + 0.5 * (C * ts - 1.0), atol=1e-10)


def _strictly_decreasing(name, columns, ts):
    inner = ts > 0
    for hi, lo in zip(columns, columns[1:]):
        _require(bool(np.all(hi[0][inner] > lo[0][inner])), f"{name}: {hi[1]} does not exceed {lo[1]} for t > 0")


def check_fig1(path):
    _, header, rows = read_csv(path)
    ts = _column(header, rows, "t")
    _close("fig1 grid", ts, _t_grid(101), atol=1e-12)
    cyc = cycle_limit()
    dense_cols, cycle_cols = [], []
    for c in (0.5, 1.0, 2.0, 5.0):
        label = format(c, ".15g")
        dense = _column(header, rows, f"dense_c{label}")
        cycle = _column(header, rows, f"cycle_c{label}")
        _close(f"fig1 dense c={label}", dense, dense_variance(ts, c), atol=1e-12, rtol=1e-10)
        _close(f"fig1 cycle c={label}", cycle, variance_curve(cyc, schedule(cyc, c), ts), atol=1e-10, rtol=1e-9)
        dense_cols.append((dense, f"dense c={label}"))
        cycle_cols.append((cycle, f"cycle c={label}"))
    _strictly_decreasing("fig1 dense family", dense_cols, ts)
    _strictly_decreasing("fig1 cycle family", cycle_cols, ts)


def check_fig2(path):
    _, header, rows = read_csv(path)
    ts = _column(header, rows, "t")
    _close("fig2 grid", ts, _t_grid(101), atol=1e-12)
    cols = [(_column(header, rows, f"torus_d{d}"), f"torus d={d}") for d in (1, 2, 4)]
    dense = _column(header, rows, "dense")
    _close("fig2 dense", dense, dense_variance(ts), atol=1e-12, rtol=1e-10)
    cyc = cycle_limit()
    _close("fig2 torus d=1", cols[0][0], variance_curve(cyc, schedule(cyc), ts), atol=1e-10, rtol=1e-9)
    tor2 = torus_atoms(32, 2)  # periodic trapezoid rule of the torus limit
    _close("fig2 torus d=2", cols[1][0], variance_curve(tor2, schedule(tor2), ts), atol=1e-10, rtol=1e-9)
    tor4 = torus_atoms(14, 4)
    every = slice(0, None, 10)
    _close("fig2 torus d=4", cols[2][0][every], variance_curve(tor4, schedule(tor4), ts[every]), atol=1e-10, rtol=1e-9)
    _strictly_decreasing("fig2 family", cols + [(dense, "dense")], ts)


def check_fig3(path):
    _, header, rows = read_csv(path)
    ts = _column(header, rows, "t")
    comp, coop = _column(header, rows, "competitive"), _column(header, rows, "cooperative")
    cyc = cycle_limit()
    _close("fig3 competitive", comp, variance_curve(cyc, schedule(cyc), ts), atol=1e-10, rtol=1e-9)
    _close("fig3 cooperative", coop, coop_variance_curve(cyc, ts), atol=1e-10, rtol=1e-9)
    _require(bool(np.all(coop <= comp + 1e-12)), "fig3: cooperative variance exceeds competitive")


def limit_figures_checks(seed):
    km3, tor2 = kesten_mckay(3), torus_atoms(32, 2)
    return {
        "fig1": check_fig1,
        "fig2": check_fig2,
        "fig3": check_fig3,
        "km3-value": lambda p: check_value(p, km3),
        "torus2-variance": lambda p: check_variance(p, tor2, schedule(tor2), _t_grid(101)),
        "cycle-solve-f": check_cycle_phi,
    }


# ---------------------------------------------------------------- nash-audit


def erdos_renyi_degrees(n: int, p: float, seed: int) -> np.ndarray:
    """Degrees of the program's documented Erdos-Renyi stream: one Philox
    uniform per vertex pair, pairs in lexicographic order."""
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    rows, cols = np.triu_indices(n, k=1)
    mask = gen.random(rows.size) < p
    return np.bincount(rows[mask], minlength=n) + np.bincount(cols[mask], minlength=n)


def mean_field_cost(degree: int) -> float:
    """int 1/2 k^2 s dt + 1/2 c s(T)(1 + 1/deg), k = c/(1 + c(T-t)), s the
    dense-limit variance; in closed form (1/2)sigma^2 (log A - cT/A + cT q/A),
    A = 1 + cT, q = 1 + 1/deg (q = 1 for an isolated vertex)."""
    a = 1.0 + C * T
    q = 1.0 + 1.0 / degree if degree > 0 else 1.0
    return 0.5 * SIGMA**2 * (math.log(a) - C * T / a + C * T * q / a)


@functools.lru_cache(maxsize=None)
def mean_field_best_response(degree: int) -> float:
    """Best response to K = k(t) I with F = B G B^T, B = [l, e_i]:
    G' = G w w^T G + 2kG - k u w^T G - k G w u^T, h' = -(sigma^2/2) tr(G B^T B),
    G(T) = c e1 e1^T, h(T) = 0, solved backward; returns h(0)."""
    if degree > 0:
        gram, w, u = np.array([[1.0 + 1.0 / degree, 1.0], [1.0, 1.0]]), np.ones(2), np.array([0.0, 1.0])
    else:  # the functional is e_i itself
        gram, w, u = np.ones((1, 1)), np.ones(1), np.ones(1)
    m = w.size

    def rhs(t, y):
        g = y[:-1].reshape(m, m)
        k = C / (1.0 + C * (T - t))
        gw = g @ w
        dg = np.outer(gw, gw) + 2.0 * k * g - k * np.outer(u, gw) - k * np.outer(gw, u)
        return np.append(dg.ravel(), -0.5 * SIGMA**2 * np.trace(g @ gram))

    g_T = np.zeros((m, m))
    g_T[0, 0] = C
    sol = solve_ivp(rhs, (T, 0.0), np.append(g_T.ravel(), 0.0), method="DOP853", rtol=1e-12, atol=1e-14)
    _require(sol.success, f"reference Riccati failed: {sol.message}")
    return float(sol.y[-1, -1])


def epsilon_bound(degree: int) -> float:
    if degree == 0:
        return 0.0
    return SIGMA**2 * (C * T / (1.0 + C * T)) * math.sqrt(C * T * (2.0 + C * T) / degree)


#: Tolerances for the audit's RK4 solves at --steps 100 against the
#: references above; both measured well below these (see README).
AUDIT_COST_TOL = 1e-7
AUDIT_GAP_TOL = 1e-5


def _audit_common(report, profile, n):
    _require(report["profile"] == profile, f"audit profile {report['profile']!r}, expected {profile!r}")
    players = report["players"]
    _require([p["vertex"] for p in players] == list(range(n)), "audit does not list every vertex once")
    gaps = np.array([p["gap"] for p in players])
    _close("gap = cost - best response", gaps, [p["cost"] - p["best_response_value"] for p in players], atol=1e-12)
    _require(report["max_gap"] == float(gaps.max()), "max_gap is not the largest gap")
    _require(report["all_satisfied"] is True, "audit reports an unsatisfied player")
    _require(all(p["satisfied"] for p in players), "audit marks a player unsatisfied")
    return players, gaps


def check_mean_field_audit(path, n, p, seed):
    report = read_json(path)
    _require(report["graph"] == {"kind": "erdos_renyi", "n": n, "p": p, "seed": seed}, f"audit graph {report['graph']}")
    players, gaps = _audit_common(report, "mean_field", n)
    degrees = erdos_renyi_degrees(n, p, seed)
    _close("mean-field costs", [q["cost"] for q in players], [mean_field_cost(d) for d in degrees], atol=AUDIT_COST_TOL)
    _close(
        "mean-field best responses",
        [q["best_response_value"] for q in players],
        [mean_field_best_response(int(d)) for d in degrees],
        atol=AUDIT_COST_TOL,
    )
    eps = np.array([epsilon_bound(int(d)) for d in degrees])
    _close("epsilon bounds", [q["epsilon_bound"] for q in players], eps, atol=1e-13, rtol=1e-12)
    _require(bool(np.all(gaps <= eps + AUDIT_GAP_TOL)), "a mean-field gap exceeds its epsilon certificate")


def check_equilibrium_audit(path, measure, n):
    report = read_json(path)
    players, gaps = _audit_common(report, "equilibrium", n)
    _require(bool(np.all(np.abs(gaps) <= AUDIT_GAP_TOL)), f"equilibrium gap {np.abs(gaps).max():.3e} is not ~0")
    value = value_of(measure, schedule(measure))
    _close("equilibrium costs vs the graph's value", [q["cost"] for q in players], np.full(n, value), atol=AUDIT_COST_TOL)
    _require(all(q["epsilon_bound"] == 0.0 for q in players), "equilibrium audit carries epsilon bounds")


def nash_audit_checks(seed):
    return {
        "er50-mean-field": lambda p: check_mean_field_audit(p, 50, 0.3, seed),
        "torus3-equilibrium": lambda p: check_equilibrium_audit(p, torus_atoms(3, 2), 9),
        "cycle20-equilibrium": lambda p: check_equilibrium_audit(p, cycle_atoms(20), 20),
    }


# ---------------------------------------------------------------- monte-carlo


def _tail_limit(n: int) -> int:
    """Smallest count of |z| > 3 vertices whose binomial tail is below MC_TAIL_P."""
    p = MC_TAIL_RATE
    k, tail = 0, 1.0  # tail = P(Binomial(n, p) >= k)
    while tail > MC_TAIL_P:
        tail -= math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        k += 1
    return k


def check_ensemble(path, n, paths, reference):
    """reference(t) -> (per-vertex variance, ||Sigma||_F^2, 1^T Sigma 1).

    For Gaussian states the unbiased sample variances s_j^2 satisfy
    Cov(s_j^2, s_k^2) = 2 Sigma_jk^2 / (P - 1), so the population average
    has standard error sqrt(2 ||Sigma||_F^2 / (n^2 (P - 1))).  The mean of
    the vertex means is the path average of the population mean, whose
    variance 1^T Sigma 1 / (n^2 P) is the sum of all covariances.
    """
    data = read_json(path)
    _require(data["config"]["sim"]["n_paths"] == paths, "simulate used another path count")
    limit = _tail_limit(n)
    for key, stats in sorted(data["times"].items()):
        t = float(key)
        var_ref, frob2, ones_sigma_ones = reference(t)
        mean, mean_se = np.asarray(stats["mean"]), np.asarray(stats["mean_se"])
        var, var_se = np.asarray(stats["variance"]), np.asarray(stats["variance_se"])
        _require(mean.shape == (n,) and var.shape == (n,), f"t={key}: expected {n} vertices")
        _require(bool(np.all(np.isfinite(var)) and np.all(var_se > 0) and np.all(mean_se > 0)), f"t={key}: bad moments")
        se_var = math.sqrt(2.0 * frob2 / (n**2 * (paths - 1)))
        z_var = (var.mean() - var_ref) / se_var
        _require(abs(z_var) <= MC_Z, f"t={key}: population variance {var.mean():.6g} vs {var_ref:.6g} is {z_var:.2f} SE off")
        z_mean = mean.mean() / math.sqrt(ones_sigma_ones / (n**2 * paths))
        _require(abs(z_mean) <= MC_Z, f"t={key}: population mean is {z_mean:.2f} SE off zero")
        for name, z in (("mean", mean / mean_se), ("variance", (var - var_ref) / var_se)):
            outside = int(np.sum(np.abs(z) > 3.0))
            _require(outside < limit, f"t={key}: {outside} of {n} vertex {name}s beyond 3 SE (limit {limit})")


def equilibrium_reference(measure):
    """Spectral route for a transitive graph: the covariance eigenvalues are
    per-atom, the all-ones direction (lam = 0) carries sigma^2 t."""
    nodes, _ = measure
    f = schedule(measure)

    def reference(t):
        eig = covariance_eigenvalues(nodes, f, t)
        return float(eig.mean()), float(eig @ eig), nodes.size * SIGMA**2 * t

    return reference


def mean_field_reference(n):
    def reference(t):
        s = float(dense_variance(t))
        return s, n * s * s, n * s

    return reference


def monte_carlo_checks(seed):
    return {
        "cycle200-equilibrium": lambda p: check_ensemble(p, 200, 400, equilibrium_reference(cycle_atoms(200))),
        "er100-mean-field": lambda p: check_ensemble(p, 100, 400, mean_field_reference(100)),
    }


CHECKS = {
    "finite-spectral": finite_spectral_checks,
    "limit-figures": limit_figures_checks,
    "nash-audit": nash_audit_checks,
    "monte-carlo": monte_carlo_checks,
}
