"""Command-line front end.

Subcommands build graphs, run the equilibrium/cooperative solvers and
audits, and emit self-describing CSV/JSON artifacts (each output embeds
the fully resolved configuration).  Exit codes: 0 success, 1 malformed
configuration, 2 domain error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DomainError, GenerationError, NumericError, ParameterError

_FIG_GRID_POINTS = 101


def _apply_thread_cap() -> None:
    # LG_THREADS caps BLAS parallelism; must be set before numpy loads.
    cap = os.environ.get("LG_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ParameterError(message)


#: Every option and its argparse keywords.  A subcommand accepts only the
#: options it reads (_COMMANDS_SPEC); for the rest its namespace keeps these
#: defaults, which the resolved configuration still records.
_OPTIONS = {
    "--graph": dict(help="graph spec KIND:ARGS, e.g. complete:300 or torus:3,2"),
    "--measure": dict(help="limit measure KIND[:ARGS], e.g. dirac, cycle, torus:2, kesten_mckay:3"),
    "--c": dict(type=float, default=1.0),
    "--T": dict(type=float, default=1.0),
    "--sigma": dict(type=float, default=1.0),
    "--steps": dict(type=int, default=2000),
    "--paths": dict(type=int, default=10000),
    "--dt": dict(type=float, default=None),
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None, help="output file (stdout when omitted)"),
    "--t": dict(type=float, default=None),
    "--t-grid": dict(dest="t_grid", default=None, help="START:STOP:COUNT"),
    "--config": dict(default=None, help="JSON file whose entries override flags"),
    "--profile": dict(choices=("mean_field", "equilibrium", "zero"), default="mean_field"),
    "--record-times": dict(dest="record_times", default=None, help="comma-separated times"),
    "--dump-samples": dict(dest="dump_samples", default=None, help="raw sample CSV path"),
}

_GRAPH = ("--graph", "--seed")
_SOURCE = ("--graph", "--measure", "--seed")
_GAME = ("--c", "--T", "--sigma", "--steps")
_TIMES = ("--t", "--t-grid")

#: Subcommand -> (help, the options it reads besides --out and --config).
_COMMANDS_SPEC = {
    "spectrum": ("eigenvalues of the graph Laplacian as CSV", _GRAPH),
    "solve-f": ("flocking schedule f(t) as CSV", _SOURCE + ("--c", "--T", "--steps")),
    "variance-curve": ("player variance over time (finite graph or limit measure)", _SOURCE + _GAME + _TIMES),
    "value": ("average equilibrium value as JSON", _SOURCE + _GAME),
    "fig1": ("dense vs cycle variance families for c in {0.5, 1, 2, 5}", ("--steps",)),
    "fig2": ("torus variance for d in {1, 2, 4} plus the dense limit", ("--steps",)),
    "fig3": ("competitive vs cooperative variance on the cycle limit", ("--steps",)),
    "nash-audit": ("per-player deviation audit as JSON", _GRAPH + _GAME + ("--profile",)),
    "simulate": (
        "Monte Carlo ensemble summary as JSON",
        _GRAPH + _GAME + ("--profile", "--paths", "--dt", "--record-times", "--dump-samples"),
    ),
    "coop": ("cooperative variance curve as CSV", _GRAPH + _GAME + _TIMES),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphflock", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS_SPEC.items():
        p = sub.add_parser(name, help=help_text)
        accepted = (*flags, "--out", "--config")
        for flag in accepted:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(**{kw.get("dest", f[2:]): kw.get("default") for f, kw in _OPTIONS.items() if f not in accepted})
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """Parse one config entry as the command line parses its flag."""
    if action.dest == "graph" and isinstance(value, dict):
        return value  # an already-parsed graph spec
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ParameterError(f"config option {key!r} must be a string or a number, got {value!r}")
    text = str(value)
    try:
        parsed = action.type(text) if action.type else text
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"config option {key!r}: invalid {action.type.__name__} value {value!r}") from exc
    if action.choices is not None and parsed not in action.choices:
        raise ParameterError(f"config option {key!r}: {value!r} is not one of {sorted(action.choices)}")
    return parsed


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ParameterError("config file must contain a JSON object")
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[args.command]._actions
    options = {a.dest: a for a in actions if a.default is not argparse.SUPPRESS}  # all but --help
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr not in options:
            raise ParameterError(f"config file sets option {key!r}, which {args.command} does not take")
        setattr(args, attr, _config_value(options[attr], key, value))


def _positive(args) -> None:
    for name in ("c", "T", "sigma"):
        if getattr(args, name) <= 0:
            raise ParameterError(f"--{name} must be positive, got {getattr(args, name)}")
    if args.steps < 100:
        raise ParameterError(f"--steps must be >= 100, got {args.steps}")


def _parse_graph_spec(args) -> dict:
    text = args.graph
    if text is None:
        raise ParameterError("this command needs --graph")
    if isinstance(text, dict):
        return text
    kind, _, rest = text.partition(":")
    parts = [p for p in rest.replace(",", " ").split()] if rest else []
    kind = {"er": "erdos_renyi", "rr": "random_regular", "edgelist": "edge_list"}.get(kind, kind)
    try:
        if kind == "complete" or kind == "cycle":
            return {"kind": kind, "n": int(parts[0])}
        if kind == "torus":
            return {"kind": kind, "side": int(parts[0]), "d": int(parts[1])}
        if kind == "erdos_renyi":
            return {"kind": kind, "n": int(parts[0]), "p": float(parts[1]), "seed": args.seed}
        if kind == "random_regular":
            return {"kind": kind, "n": int(parts[0]), "d": int(parts[1]), "seed": args.seed}
        if kind == "edge_list":
            return {"kind": kind, "path": parts[0]}
    except (IndexError, ValueError) as exc:
        raise ParameterError(f"malformed graph spec {text!r}") from exc
    raise ParameterError(f"unknown graph kind {kind!r}")


def _measure_from_spec(args):
    from . import spectral

    text = args.measure
    if text is None:
        raise ParameterError("this command needs --measure (or --graph)")
    kind, _, rest = text.partition(":")
    aliases = {
        "dirac": "dirac_minus_one",
        "dirac_minus_one": "dirac_minus_one",
        "cycle": "cycle_limit",
        "cycle_limit": "cycle_limit",
        "torus": "torus_limit",
        "torus_limit": "torus_limit",
        "km": "kesten_mckay",
        "kesten_mckay": "kesten_mckay",
    }
    if kind not in aliases:
        raise ParameterError(f"unknown measure kind {kind!r}")
    kind = aliases[kind]
    d = None
    if rest:
        try:
            d = int(rest)
        except ValueError as exc:
            raise ParameterError(f"malformed measure spec {text!r}") from exc
    return spectral.limit_measure(kind, d=d)


def _t_grid(args) -> "np.ndarray":
    import numpy as np

    if args.t is not None:
        return np.array([args.t])
    spec = args.t_grid or f"0:{args.T}:{_FIG_GRID_POINTS}"
    try:
        start, stop, count = spec.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ParameterError(f"malformed t-grid {spec!r}, expected START:STOP:COUNT") from exc


def _fmt(x) -> str:
    return format(float(x), ".15g")


def _resolved_config(args, command: str, **extra) -> dict:
    config = {
        "command": command,
        "c": args.c,
        "T": args.T,
        "sigma": args.sigma,
        "steps": args.steps,
        "seed": args.seed,
    }
    if args.graph is not None:
        config["graph"] = _parse_graph_spec(args)
    if args.measure is not None:
        config["measure"] = args.measure
    config.update(extra)
    return config


def _emit_csv(args, header: list[str], rows, config: dict) -> None:
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> None:
    from . import graphs, spectral

    g = graphs.build_graph(_parse_graph_spec(args))
    es = spectral.laplacian_eigensystem(g)
    rows = [(i, lam) for i, lam in enumerate(es.eigenvalues)]
    _emit_csv(args, ["index", "eigenvalue"], rows, _resolved_config(args, "spectrum"))


def _schedule_for(args):
    from . import flow, graphs, spectral

    if args.graph is not None:
        g = graphs.build_graph(_parse_graph_spec(args))
        mu = spectral.empirical_measure(g)
    else:
        mu = _measure_from_spec(args)
    return mu, flow.solve_f(mu, args.c, args.T, args.steps)


def _cmd_solve_f(args) -> None:
    _, schedule = _schedule_for(args)
    rows = zip(schedule.grid, schedule.f_values)
    _emit_csv(args, ["t", "f"], rows, _resolved_config(args, "solve-f"))


def _cmd_variance_curve(args) -> None:
    from . import equilibrium, graphs

    ts = _t_grid(args)
    config = _resolved_config(args, "variance-curve")
    if args.graph is not None:
        g = graphs.build_graph(_parse_graph_spec(args))
        kernel = equilibrium.build_kernel(g, args.c, args.T, args.sigma, args.steps)
        rows = [(t, equilibrium.player_variance(kernel, t)) for t in ts]
    else:
        mu, schedule = _schedule_for(args)
        rows = [(t, equilibrium.limit_variance(mu, schedule, args.sigma, t)) for t in ts]
    _emit_csv(args, ["t", "variance"], rows, config)


def _cmd_value(args) -> None:
    from . import equilibrium, graphs

    config = _resolved_config(args, "value")
    if args.graph is not None:
        g = graphs.build_graph(_parse_graph_spec(args))
        kernel = equilibrium.build_kernel(g, args.c, args.T, args.sigma, args.steps)
        value = equilibrium.game_value(kernel)
    else:
        mu, schedule = _schedule_for(args)
        value = equilibrium.limit_value(mu, schedule, args.sigma)
    _emit_json(args, {"config": config, "value": value})


def _limit_curve(kind: str, d: int | None, c: float, T: float, sigma: float, steps: int, ts):
    from . import equilibrium, flow, spectral

    mu = spectral.limit_measure(kind, d=d)
    schedule = flow.solve_f(mu, c, T, steps)
    return [equilibrium.limit_variance(mu, schedule, sigma, t) for t in ts]


def _cmd_fig1(args) -> None:
    import numpy as np

    ts = np.linspace(0.0, 1.0, _FIG_GRID_POINTS)
    c_values = (0.5, 1.0, 2.0, 5.0)
    columns, header = [ts], ["t"]
    for c in c_values:
        for kind, label in (("dirac_minus_one", "dense"), ("cycle_limit", "cycle")):
            header.append(f"{label}_c{_fmt(c)}")
            columns.append(_limit_curve(kind, None, c, 1.0, 1.0, args.steps, ts))
    config = {"command": "fig1", "T": 1.0, "sigma": 1.0, "c_values": list(c_values), "steps": args.steps}
    _emit_csv(args, header, zip(*columns), config)


def _cmd_fig2(args) -> None:
    import numpy as np

    ts = np.linspace(0.0, 1.0, _FIG_GRID_POINTS)
    columns, header = [ts], ["t"]
    for d in (1, 2, 4):
        header.append(f"torus_d{d}")
        columns.append(_limit_curve("torus_limit", d, 1.0, 1.0, 1.0, args.steps, ts))
    header.append("dense")
    columns.append(_limit_curve("dirac_minus_one", None, 1.0, 1.0, 1.0, args.steps, ts))
    config = {"command": "fig2", "T": 1.0, "sigma": 1.0, "c": 1.0, "d_values": [1, 2, 4], "steps": args.steps}
    _emit_csv(args, header, zip(*columns), config)


def _cmd_fig3(args) -> None:
    import numpy as np

    from . import cooperative, equilibrium, flow, spectral

    ts = np.linspace(0.0, 1.0, _FIG_GRID_POINTS)
    mu = spectral.limit_measure("cycle_limit")
    schedule = flow.solve_f(mu, 1.0, 1.0, args.steps)
    competitive = [equilibrium.limit_variance(mu, schedule, 1.0, t) for t in ts]
    cooperative_curve = [cooperative.coop_variance_measure(mu, 1.0, 1.0, 1.0, t, steps=args.steps) for t in ts]
    config = {"command": "fig3", "T": 1.0, "sigma": 1.0, "c": 1.0, "steps": args.steps}
    _emit_csv(args, ["t", "competitive", "cooperative"], zip(ts, competitive, cooperative_curve), config)


def _profile_for(args, g):
    from . import equilibrium, strategies

    if args.profile == "mean_field":
        return strategies.mf_profile(g, args.c, args.T, args.steps)
    if args.profile == "zero":
        return strategies.zero_profile(g, args.T, args.steps)
    kernel = equilibrium.build_kernel(g, args.c, args.T, args.sigma, args.steps)
    return strategies.equilibrium_profile(kernel)


def _cmd_nash_audit(args) -> None:
    from . import graphs, strategies

    g = graphs.build_graph(_parse_graph_spec(args))
    prof = _profile_for(args, g)
    report = strategies.nash_audit(g, prof, args.c, args.sigma)
    report["config"] = _resolved_config(args, "nash-audit", profile=args.profile)
    _emit_json(args, report)


def _cmd_simulate(args) -> None:
    from . import graphs, montecarlo

    g = graphs.build_graph(_parse_graph_spec(args))
    prof = _profile_for(args, g)
    dt = args.dt if args.dt is not None else args.T / montecarlo.DEFAULT_STEPS_PER_HORIZON
    if args.record_times:
        try:
            record = tuple(float(v) for v in args.record_times.split(","))
        except ValueError as exc:
            raise ParameterError(f"malformed record times {args.record_times!r}") from exc
    else:
        record = (args.T,)
    cfg = montecarlo.SimConfig(n_paths=args.paths, dt=dt, seed=args.seed, record_times=record)
    ensemble = montecarlo.simulate(g, prof, args.sigma, cfg)
    summary = {}
    for t in ensemble.times:
        stats = montecarlo.ensemble_stats(ensemble, t)
        summary[_fmt(t)] = {
            "mean": [float(v) for v in stats.mean],
            "mean_se": [float(v) for v in stats.mean_se],
            "variance": [float(v) for v in stats.variance],
            "variance_se": [float(v) for v in stats.variance_se],
        }
    config = _resolved_config(args, "simulate", profile=args.profile, sim=cfg.to_dict())
    if args.dump_samples:
        with open(args.dump_samples, "w", encoding="utf-8") as fh:
            fh.write("path,player,t,x\n")
            for t in ensemble.times:
                block = ensemble.states[t]
                for path in range(block.shape[0]):
                    for player in range(block.shape[1]):
                        fh.write(f"{path},{player},{_fmt(t)},{_fmt(block[path, player])}\n")
    _emit_json(args, {"config": config, "times": summary})


def _cmd_coop(args) -> None:
    from . import cooperative, graphs

    g = graphs.build_graph(_parse_graph_spec(args))
    kernel = cooperative.coop_kernel(g, args.c, args.T, args.sigma, args.steps)
    ts = _t_grid(args)
    rows = [(t, cooperative.coop_variance(kernel, t)) for t in ts]
    config = _resolved_config(args, "coop", value=cooperative.coop_value(kernel))
    _emit_csv(args, ["t", "variance"], rows, config)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "solve-f": _cmd_solve_f,
    "variance-curve": _cmd_variance_curve,
    "value": _cmd_value,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "nash-audit": _cmd_nash_audit,
    "simulate": _cmd_simulate,
    "coop": _cmd_coop,
}


def main(argv=None) -> int:
    _apply_thread_cap()
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        _apply_config_file(parser, args)
        _positive(args)
        _COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 2
    except (NumericError, GenerationError) as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
