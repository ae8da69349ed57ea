"""Command-line front end.

Subcommands build graphs, run the equilibrium/cooperative solvers and
audits, and emit self-describing CSV/JSON artifacts (each output embeds
the fully resolved configuration).  Exit codes: 0 success, 1 malformed
configuration, 2 domain error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import warnings

from .errors import DomainError, GenerationError, NumericError, ParameterError

_FIG_GRID_POINTS = 101


def _apply_thread_cap() -> None:
    # LG_THREADS caps BLAS parallelism (and the Monte Carlo draw pool);
    # the BLAS variables must be set before numpy loads.
    if os.environ.get("LG_THREADS"):
        from .threads import thread_count

        cap = str(thread_count())
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ParameterError(message)


def _checked(parse, wanted: str, ok=lambda value: True):
    """An argparse type: the text parsed by parse, which must succeed and
    satisfy ok; wanted says what the option takes."""

    def check(text: str):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")

    return check


def _grid(text: str) -> tuple[float, float, int]:
    start, stop, count = text.split(":")
    return float(start), float(stop), int(count)


def _graph(text):
    """--graph: KIND:ARGS text, or a JSON object from --config, as its checked dict."""
    from .graphs import graph_spec

    return graph_spec(text)


def _measure(text: str) -> str:
    """--measure: KIND[:D] text, checked and kept as given."""
    from .spectral import measure_spec

    measure_spec(text)
    return text


_positive_float = _checked(float, "a positive finite number", lambda x: 0.0 < x < math.inf)
_t_grid = _checked(_grid, "START:STOP:COUNT with COUNT >= 1", lambda grid: grid[2] >= 1)
_steps = _checked(int, "an integer >= 100", lambda k: k >= 100)
_record_times = _checked(lambda text: tuple(map(float, text.split(","))), "comma-separated times")

#: Every option and its argparse keywords.  Each type is the option's one
#: check, on the command line and in --config alike, and raises only
#: ArgumentTypeError (or ParameterError, from a spec grammar).
_OPTIONS = {
    "--graph": dict(type=_graph, help="graph spec KIND:ARGS, e.g. complete:300 or torus:3,2"),
    "--measure": dict(type=_measure, help="limit measure KIND[:ARGS], e.g. dirac, cycle, torus:2, kesten_mckay:3"),
    "--c": dict(type=_positive_float, default=1.0),
    "--T": dict(type=_positive_float, default=1.0),
    "--sigma": dict(type=_positive_float, default=1.0),
    "--steps": dict(type=_steps, default=2000, help="grid intervals: solve-f's output rows, nash-audit's RK4 steps"),
    "--paths": dict(type=_checked(int, "an integer >= 3", lambda k: k >= 3), default=10000),
    "--dt": dict(type=_checked(float, "a number"), default=None),
    "--seed": dict(type=_checked(int, "an integer"), default=0),
    "--out": dict(default=None, help="output file (stdout when omitted)"),
    "--t": dict(type=_checked(float, "a number"), default=None),
    "--t-grid": dict(dest="t_grid", type=_t_grid, default=None, help="START:STOP:COUNT"),
    "--config": dict(default=None, help="JSON file whose entries override flags"),
    "--profile": dict(choices=("mean_field", "equilibrium", "zero"), default="mean_field"),
    "--record-times": dict(dest="record_times", type=_record_times, default=None, help="comma-separated times"),
    "--dump-samples": dict(dest="dump_samples", default=None, help="raw sample CSV path"),
}


@functools.cache  # built once per process: nothing mutates it
def _build_parser() -> _Parser:
    parser = _Parser(prog="graphflock", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in (*flags, "--out", "--config"):
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """Parse one config entry as the command line parses its flag: a string
    or a number as its text, a JSON object as a --graph spec."""
    if isinstance(value, dict) and action.type is _graph:
        text = value
    elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ParameterError(f"config option {key!r} must be a string or a number, got {value!r}")
    else:
        text = str(value)
    try:
        parsed = action.type(text) if action.type else text
    except argparse.ArgumentTypeError as exc:
        raise ParameterError(f"config option {key!r}: {exc}") from exc
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


def _graph_spec(args) -> dict:
    """The --graph spec, with --seed as the seed of a random kind."""
    from .graphs import graph_spec

    if args.graph is None:
        raise ParameterError("this command needs --graph")
    return graph_spec(args.graph, seed=args.seed)


def _times(args) -> "np.ndarray":
    import numpy as np

    if args.t is not None and args.t_grid is not None:
        raise ParameterError("--t and --t-grid exclude each other; give one")
    if args.t is not None:
        return np.array([args.t])
    return np.linspace(*(args.t_grid or (0.0, args.T, _FIG_GRID_POINTS)))


#: Rows of a CSV body per format call: the text of a long table is made,
#: and written, a block of rows at a time.
_CSV_BLOCK_ROWS = 1024


def _fmt(x) -> str:
    if not math.isfinite(x := float(x)):
        raise NumericError("output holds a non-finite number")
    return format(x, ".15g")


def _csv_rows(table):
    """The rows of a 2-D table as CSV text, every cell as _fmt writes it,
    one string per block of _CSV_BLOCK_ROWS rows; a non-finite cell raises
    NumericError before any text is made."""
    import numpy as np

    table = np.asarray(table, dtype=float)
    if not np.isfinite(table).all():
        raise NumericError("output holds a non-finite number")
    line = ",".join(["%.15g"] * table.shape[1]) + "\n"
    blocks = (table[i : i + _CSV_BLOCK_ROWS] for i in range(0, len(table), _CSV_BLOCK_ROWS))
    return ((line * len(rows)) % tuple(rows.ravel().tolist()) for rows in blocks)


def _resolved_config(args, command: str, **extra) -> dict:
    taken = vars(args)
    config = {"command": command, **{k: v for k, v in taken.items() if k in ("c", "T", "sigma", "steps", "seed")}}
    config.update({k: taken[k] for k in ("t", "t_grid") if taken.get(k) is not None})  # the one given, if any
    if getattr(args, "graph", None) is not None:
        config["graph"] = _graph_spec(args)
    if getattr(args, "measure", None) is not None:
        config["measure"] = args.measure
    config.update(extra)
    return config


def _write_file(path: str, flag: str, write) -> None:
    """Open path for writing and pass the file to write; a file that cannot
    be written is a configuration error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ParameterError(f"cannot write {flag} {path}: {exc.strerror or exc}") from exc


def _emit(args, texts) -> None:
    """Write the strings texts to --out, or to stdout without it."""
    if args.out:
        _write_file(args.out, "--out", lambda fh: fh.writelines(texts))
    else:
        sys.stdout.writelines(texts)


def _dumps(payload: dict, **kwargs) -> str:
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:  # a NaN or an infinity
        raise NumericError("output holds a non-finite number") from exc


def _emit_csv(args, header: list[str], columns, config: dict) -> None:
    """The columns (equal-length vectors) as CSV under a config line and the header."""
    import numpy as np

    head = "# config: " + _dumps(config) + "\n" + ",".join(header) + "\n"
    _emit(args, itertools.chain([head], _csv_rows(np.column_stack(columns))))


def _emit_json(args, payload: dict) -> None:
    _emit(args, [_dumps(payload, indent=2) + "\n"])


def _cmd_spectrum(args) -> None:
    from . import graphs, spectral

    g = graphs.build_graph(_graph_spec(args))
    es = spectral.laplacian_eigensystem(g)
    columns = [range(es.eigenvalues.size), es.eigenvalues]
    _emit_csv(args, ["index", "eigenvalue"], columns, _resolved_config(args, "spectrum"))


def _schedule_for(args):
    """The flocking schedule on --graph's empirical measure or --measure's limit measure."""
    from . import flow, graphs, spectral

    if args.graph is not None:
        mu = spectral.empirical_measure(graphs.build_graph(_graph_spec(args)))
    elif args.measure is not None:
        mu = spectral.limit_measure(*spectral.measure_spec(args.measure))
    else:
        raise ParameterError("this command needs --measure (or --graph)")
    return flow.solve_f(mu, args.c, args.T, getattr(args, "steps", flow.DEFAULT_ODE_STEPS))


def _game_schedule(args):
    """The schedule of value and variance-curve: build_kernel's for --graph,
    with its checks and its transitivity warning, else _schedule_for's."""
    from . import equilibrium, graphs

    if args.graph is None:
        return _schedule_for(args)
    g = graphs.build_graph(_graph_spec(args))
    return equilibrium.build_kernel(g, args.c, args.T, args.sigma).schedule


def _cmd_solve_f(args) -> None:
    schedule = _schedule_for(args)
    _emit_csv(args, ["t", "f"], [schedule.grid, schedule.f_values], _resolved_config(args, "solve-f"))


def _cmd_variance_curve(args) -> None:
    from . import equilibrium

    ts = _times(args)
    config = _resolved_config(args, "variance-curve")
    variance = equilibrium.limit_variance(_game_schedule(args), args.sigma, ts)
    _emit_csv(args, ["t", "variance"], [ts, variance], config)


def _cmd_value(args) -> None:
    from . import equilibrium

    config = _resolved_config(args, "value")
    value = equilibrium.limit_value(_game_schedule(args), args.sigma)
    _emit_json(args, {"config": config, "value": value})


#: Figure -> (its config beyond command and T = sigma = 1; its curves,
#: each a column header, a KIND[:D] measure spec, c, and True on the planner's).
_FIGURES = {
    "fig1": ({"c_values": [0.5, 1.0, 2.0, 5.0]},
             [(f"{name}_c{c:g}", spec, c, False) for c in (0.5, 1.0, 2.0, 5.0)
              for name, spec in (("dense", "dirac"), ("cycle", "cycle"))]),
    "fig2": ({"c": 1.0, "d_values": [1, 2, 4]},
             [(f"torus_d{d}", f"torus:{d}", 1.0, False) for d in (1, 2, 4)] + [("dense", "dirac", 1.0, False)]),
    "fig3": ({"c": 1.0}, [("competitive", "cycle", 1.0, False), ("cooperative", "cycle", 1.0, True)]),
}


def _cmd_figure(args) -> None:
    """fig1-fig3: _FIGURES' curves at 101 times in [0, 1], each distinct
    measure built once; a game's curve is one solve_f, then its variance."""
    import numpy as np

    from . import cooperative, equilibrium, flow, spectral

    extra, curves = _FIGURES[args.command]
    ts = np.linspace(0.0, 1.0, _FIG_GRID_POINTS)
    mu = {spec: spectral.limit_measure(*spectral.measure_spec(spec)) for _, spec, _, _ in curves}
    columns = [
        cooperative.coop_variance_measure(mu[s], c, 1.0, 1.0, ts) if planner
        else equilibrium.limit_variance(flow.solve_f(mu[s], c, 1.0), 1.0, ts)
        for _, s, c, planner in curves
    ]
    config = {"command": args.command, "T": 1.0, "sigma": 1.0, **extra}
    _emit_csv(args, ["t"] + [header for header, *_ in curves], [ts] + columns, config)


def _profile_for(args, g):
    """--profile on g, on nash-audit's --steps grid, else on the library's default one."""
    from . import equilibrium, flow, strategies

    steps = getattr(args, "steps", flow.DEFAULT_ODE_STEPS)
    if args.profile == "mean_field":
        return strategies.mf_profile(g, args.c, args.T, steps)
    if args.profile == "zero":
        return strategies.zero_profile(g, args.T, steps)
    kernel = equilibrium.build_kernel(g, args.c, args.T, args.sigma, steps)
    return strategies.equilibrium_profile(kernel)


def _cmd_nash_audit(args) -> None:
    from . import graphs, strategies

    g = graphs.build_graph(_graph_spec(args))
    prof = _profile_for(args, g)
    report = strategies.nash_audit(g, prof, args.c, args.sigma)
    report["config"] = _resolved_config(args, "nash-audit", profile=args.profile)
    _emit_json(args, report)


def _cmd_simulate(args) -> None:
    import dataclasses

    from . import graphs, montecarlo

    g = graphs.build_graph(_graph_spec(args))
    prof = _profile_for(args, g)
    dt = args.dt if args.dt is not None else args.T / montecarlo.DEFAULT_STEPS_PER_HORIZON
    record = args.record_times or (args.T,)
    cfg = montecarlo.SimConfig(n_paths=args.paths, dt=dt, seed=args.seed, record_times=record)
    ensemble = montecarlo.simulate(g, prof, args.sigma, cfg)
    summary = {}
    for t in ensemble.times:
        stats = montecarlo.ensemble_stats(ensemble, t)
        fields = ("mean", "mean_se", "variance", "variance_se")
        summary[_fmt(t)] = {k: [float(v) for v in getattr(stats, k)] for k in fields}
    config = _resolved_config(args, "simulate", profile=args.profile, sim=dataclasses.asdict(cfg))
    if args.dump_samples:
        import numpy as np

        def dump(fh) -> None:
            fh.write("path,player,t,x\n")
            for t in ensemble.times:
                states = ensemble.states[t]
                paths = max(1, _CSV_BLOCK_ROWS // states.shape[1])  # a block of rows' worth of paths at a time
                for start in range(0, states.shape[0], paths):
                    x = states[start : start + paths]
                    path, player = np.indices(x.shape)
                    table = (path.ravel() + start, player.ravel(), np.full(x.size, t), x.ravel())
                    fh.writelines(_csv_rows(np.column_stack(table)))

        _write_file(args.dump_samples, "--dump-samples", dump)
    _emit_json(args, {"config": config, "times": summary})


def _cmd_coop(args) -> None:
    from . import cooperative, graphs

    ts = _times(args)
    g = graphs.build_graph(_graph_spec(args))
    kernel = cooperative.coop_kernel(g, args.c, args.T, args.sigma)
    variance = cooperative.coop_variance(kernel, ts)
    config = _resolved_config(args, "coop", value=cooperative.coop_value(kernel))
    _emit_csv(args, ["t", "variance"], [ts, variance], config)


_GRAPH = ("--graph", "--seed")
_SOURCE = ("--graph", "--measure", "--seed")
_MODEL = ("--c", "--T", "--sigma")
_TIMES = ("--t", "--t-grid")

#: Subcommand -> (its function, help, the options it reads besides --out and --config).
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "eigenvalues of the graph Laplacian as CSV", _GRAPH),
    "solve-f": (_cmd_solve_f, "flocking schedule f(t) as CSV", _SOURCE + ("--c", "--T", "--steps")),
    "variance-curve": (
        _cmd_variance_curve,
        "player variance over time (finite graph or limit measure)",
        _SOURCE + _MODEL + _TIMES,
    ),
    "value": (_cmd_value, "average equilibrium value as JSON", _SOURCE + _MODEL),
    "fig1": (_cmd_figure, "dense vs cycle variance families for c in {0.5, 1, 2, 5}", ()),
    "fig2": (_cmd_figure, "torus variance for d in {1, 2, 4} plus the dense limit", ()),
    "fig3": (_cmd_figure, "competitive vs cooperative variance on the cycle limit", ()),
    "nash-audit": (_cmd_nash_audit, "per-player deviation audit as JSON", _GRAPH + _MODEL + ("--steps", "--profile")),
    "simulate": (
        _cmd_simulate,
        "Monte Carlo ensemble summary as JSON",
        _GRAPH + _MODEL + ("--profile", "--paths", "--dt", "--record-times", "--dump-samples"),
    ),
    "coop": (_cmd_coop, "cooperative variance curve as CSV", _GRAPH + _MODEL + _TIMES),
}


def main(argv=None) -> int:
    with warnings.catch_warnings():  # restores showwarning for an in-process caller
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)  # no source line
        try:
            _apply_thread_cap()
            parser = _build_parser()
            args = parser.parse_args(argv)
            _apply_config_file(parser, args)
            _COMMANDS[args.command][0](args)
        except ParameterError as exc:
            print(f"error[config]: {exc}", file=sys.stderr)
            return 1
        except DomainError as exc:
            print(f"error[domain]: {exc}", file=sys.stderr)
            return 2
        except (NumericError, GenerationError) as exc:
            print(f"error[numeric]: {exc}", file=sys.stderr)
            return 3
        except MemoryError as exc:  # numpy's array allocations name their size; its linalg solvers say nothing
            print(f"error[numeric]: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
            return 3
        except OverflowError as exc:  # Python float arithmetic past 1.8e308, as sigma**2 at a huge --sigma
            print(f"error[numeric]: float overflow: {exc}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
