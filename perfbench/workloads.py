"""The benchmark's workloads: fixed lists of graphflock CLI commands.

One operation is one CLI command.  Every command writes its artifact to
an ``--out`` file, which the checks in ``checks.py`` read back.  The
workload seed reaches the program only through ``--seed`` (random graphs
and Monte Carlo streams); everything else is fixed.  Sizes are chosen so
that one round of each workload takes 1.5-4 s with two BLAS threads while
the layer named in the workload's ``why`` still does most of its work.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    suffix: str  # artifact extension


def _op(label: str, cmd: str, suffix: str) -> Op:
    return Op(label, tuple(cmd.split()), suffix)


def ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round of a workload, in the order they run."""
    s = str(seed)
    if workload == "finite-spectral":
        grid = "--t-grid 0:1:26"
        return [
            _op("cycle-spectrum", "spectrum --graph cycle:1000", "csv"),
            _op("cycle-value", "value --graph cycle:1000", "json"),
            _op("cycle-variance", f"variance-curve --graph cycle:1000 {grid}", "csv"),
            _op("cycle-coop", f"coop --graph cycle:1000 {grid}", "csv"),
            _op("torus-value", "value --graph torus:32,2", "json"),
            _op("rr3-value", f"value --graph random_regular:1000,3 --seed {s}", "json"),
            _op("complete-solve-f", "solve-f --graph complete:600", "csv"),
            _op("complete-variance", f"variance-curve --graph complete:600 {grid}", "csv"),
            # Fails today (exit 3): the pairing model cannot build d >= 8.
            _op("rr8-value", f"value --graph random_regular:200,8 --seed {s}", "json"),
        ]
    if workload == "limit-figures":
        return [
            _op("fig1", "fig1", "csv"),
            _op("fig2", "fig2", "csv"),
            _op("fig3", "fig3", "csv"),
            _op("km3-value", "value --measure kesten_mckay:3", "json"),
            _op("torus2-variance", "variance-curve --measure torus:2", "csv"),
            _op("cycle-solve-f", "solve-f --measure cycle --steps 4000", "csv"),
        ]
    if workload == "nash-audit":
        return [
            _op("er50-mean-field", f"nash-audit --graph erdos_renyi:50,0.3 --seed {s} --profile mean_field --steps 100", "json"),
            _op("torus3-equilibrium", "nash-audit --graph torus:3,2 --profile equilibrium --steps 100", "json"),
            _op("cycle20-equilibrium", "nash-audit --graph cycle:20 --profile equilibrium --steps 100", "json"),
        ]
    if workload == "monte-carlo":
        return [
            _op("cycle200-equilibrium", f"simulate --profile equilibrium --graph cycle:200 --record-times 0.5,1 --paths 400 --seed {s}", "json"),
            _op("er100-mean-field", f"simulate --profile mean_field --graph erdos_renyi:100,0.1 --paths 400 --seed {s}", "json"),
        ]
    raise KeyError(workload)


WORKLOADS = ("finite-spectral", "limit-figures", "nash-audit", "monte-carlo")
