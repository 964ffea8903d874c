"""Command-line front end: ``adiabatic-lab <two-state|n-state> <subcommand>``.

Batch tool: reads JSON model files (or inline two-state flags), runs the
requested computation, prints a plain-text summary, and optionally emits a
CSV/JSON report. Exit codes: 0 ok, 2 domain error, 3 integration failure,
4 degeneracy, 5 continuation failure, 10 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import logging
import math
import os
import sys
import time

import numpy as np

from . import nstate, twostate
from .errors import (
    ContinuationError,
    DegeneracyError,
    DomainError,
    IntegrationError,
    LabError,
)
from .modelio import generate_nstate_model, load_model, save_model
from .report import RunReport, Table, emit

log = logging.getLogger("adiabatic_lab")

_RECURSION_SIGN_NOTE = (
    "second-order coefficient is negative when tracking the lowest level; "
    "the sign is fixed by the projector recursion and cross-checked against "
    "exact diagonalization"
)

# failure -> (exit code, message prefix); the first class that matches wins
_EXITS = (
    (DegeneracyError, 4, "degeneracy: "),
    (ContinuationError, 5, "continuation: "),
    (IntegrationError, 3, "integration: "),
    (LabError, 2, ""),
    (OSError, 10, "i/o: "),
)


# ---------------------------------------------------------------------------
# helpers


def _split_complex(z):
    return float(z.real), float(z.imag)


def _complex_rows(labels, values) -> list:
    """One ``[label, re, im, abs]`` row per complex value."""
    return [[label, *_split_complex(z), abs(z)] for label, z in zip(labels, values)]


def _two_state_model(args) -> twostate.TwoStateModel:
    if args.model:
        model = load_model(args.model)
        if not isinstance(model, twostate.TwoStateModel):
            raise DomainError(f"{args.model} is not a two-state model file")
        return model
    return twostate.TwoStateModel(mu=args.mu, delta=args.delta, x=args.x, eps=args.eps)


def _n_state_model(args) -> nstate.NStateModel:
    if not args.model:
        raise DomainError("n-state commands need --model FILE")
    model = load_model(args.model)
    if not isinstance(model, nstate.NStateModel):
        raise DomainError(f"{args.model} is not an n-state model file")
    return model


def _generated_model(args) -> nstate.NStateModel:
    if not args.out:
        raise DomainError("n-state gen needs --out FILE for the model")
    return generate_nstate_model(
        seed=args.seed,
        levels=args.levels,
        gap=args.gap,
        vscale=args.vscale,
        x=args.x,
        eps=args.eps,
    )


def _parameters(args, model) -> dict:
    """The command's own flags that are set (but not --out and --format),
    then the model's float fields: mu, delta, x, eps for two-state, x, eps
    for n-state."""
    params = {dest: getattr(args, dest) for dest in args.echo}
    params.update((k, v) for k, v in vars(model).items() if isinstance(v, float))
    return {k: v for k, v in params.items() if v is not None}


def _parse_eps_grid(text: str):
    try:
        start_s, factor_s, count_s = text.split(":")
        start, factor, count = float(start_s), float(factor_s), int(count_s)
    except ValueError:
        raise DomainError(
            f"--eps-grid must be start:factor:count, got {text!r}"
        ) from None
    if not (start > 0 and factor > 0 and count >= 1):
        raise DomainError(f"--eps-grid values out of range: {text!r}")
    try:
        grid = [start * factor**i for i in range(count)]
    except OverflowError:
        grid = [math.inf]
    # every point is checked before the first rate runs
    bad = [eps for eps in grid if not 0 < eps < math.inf]
    if bad:
        raise DomainError(
            f"--eps-grid points must be finite positive doubles: {text!r} reaches {bad[0]:g}"
        )
    return grid


def _trajectory_table(traj, labels) -> Table:
    columns = ["t", *(f"{part}_{lab}" for lab in labels for part in ("re", "im")), "norm"]
    # a complex array viewed as floats holds re and im side by side
    rows = np.column_stack([traj.times, traj.states.view(float), traj.norms()])
    return Table("trajectory", columns, rows.tolist())


def _print_report(report: RunReport) -> None:
    print(f"command: {report.command}")
    if report.parameters:
        pairs = ", ".join(f"{k}={v}" for k, v in report.parameters.items())
        print(f"parameters: {pairs}")
    for key, value in report.values.items():
        print(f"  {key} = {format(value, '.17g') if isinstance(value, float) else value}")
    for key, value in report.residuals.items():
        print(f"  residual {key} = {format(value, '.17g') if isinstance(value, float) else value}")
    for key, value in report.flags.items():
        print(f"  flag {key} = {value}")
    for table in report.tables:
        if len(table.rows) > 12:
            print(f"table {table.name}: {len(table.rows)} rows (use --out to save)")
            continue
        print(f"table {table.name}:")
        print("  " + ", ".join(str(c) for c in table.columns))
        for row in table.rows:
            print(
                "  "
                + ", ".join(
                    format(c, ".10g") if isinstance(c, float) else str(c) for c in row
                )
            )


# ---------------------------------------------------------------------------
# two-state subcommands
#
# A handler takes the loaded model and the parsed flags and returns the
# report's values, residuals, flags and tables; ``main`` adds the command
# name and the parameter echo.


def _cmd_two_exact(model, args) -> dict:
    es = twostate.exact_eigensystem(model)
    return dict(
        values={
            "delta_e[exact]": es.delta_e,
            "norm_n[exact]": es.norm_n,
            "e0[exact]": es.e0,
            "e1[exact]": es.e1,
        },
        tables=[
            Table(
                "eigensystem",
                ["level", "energy[exact]", "re_component_0", "re_component_1"],
                [
                    [0, es.e0, float(es.psi0[0].real), float(es.psi0[1].real)],
                    [1, es.e1, float(es.psi1[0].real), float(es.psi1[1].real)],
                ],
            )
        ],
    )


def _cmd_two_evolve(model, args) -> dict:
    traj = twostate.evolve_two_state(model, args.t_end, args.tol)
    a_re, a_im = _split_complex(traj.final_state[0])
    return dict(
        values={
            "a_re[ode]": a_re,
            "a_im[ode]": a_im,
            "accepted_steps[ode]": traj.accepted_steps,
            "rejected_steps[ode]": traj.rejected_steps,
        },
        tables=[_trajectory_table(traj, ["a", "c"])],
    )


def _cmd_two_series(model, args) -> dict:
    result = twostate.bessel_series_a(model, args.t)
    re, im = _split_complex(result.value)
    return dict(
        values={
            "a_re[bessel-series]": re,
            "a_im[bessel-series]": im,
            "max_term_magnitude[bessel-series]": result.max_term,
        },
        flags={"converged[bessel-series]": bool(result.converged)},
        tables=[
            Table(
                "series-terms",
                ["k", "term_magnitude[bessel-series]"],
                [[k + 1, float(m)] for k, m in enumerate(result.term_magnitudes)],
            )
        ],
    )


def _cmd_two_phase(model, args) -> dict:
    split = twostate.phase_split(model, args.order)
    return dict(
        values={
            "f_a[phase-recursion]": split.f_a,
            "delta_e_a[phase-recursion]": split.delta_e_a,
            "f_b[phase-recursion]": split.f_b,
            "f_c[phase-recursion]": split.f_c,
            "exp_f_b[phase-recursion]": math.exp(split.f_b),
            "norm_n[exact]": split.norm_n,
            "max_imag_residue[phase-recursion]": split.max_imag_residue,
        },
        residuals={
            "normalization-identity": split.normalization_residual,
            "shift-quadratic": split.shift_quadratic_residual,
            "rate-balance": split.rate_balance_residual,
        },
        flags={"converged[phase-recursion]": split.converged},
        tables=[
            Table(
                "phase-split",
                ["f_a", "delta_e_a", "f_b", "f_c", "order", "eps_used"],
                [[split.f_a, split.delta_e_a, split.f_b, split.f_c,
                  args.order, model.eps]],
            )
        ],
    )


def _three_way(model, t, tol, order):
    """The amplitude a(t) by the ODE, Bessel-series and phase-recursion
    routes, keyed by route; their pairwise residuals; the series result; and
    whether the phase recursion converged."""
    # the cheap phase recursion first: past its reach it fails before the ODE
    phase = twostate.phase_series(model, t, order)
    if not cmath.isfinite(phase.value / model.eps):
        raise DomainError(f"switching rate eps = {model.eps:.6g} is too small: the "
                          "divergent phase f / eps is not a finite number; raise eps")
    with np.errstate(over="ignore", invalid="ignore"):
        a_rec = complex(np.exp(-1j * phase.value / model.eps))
    if not cmath.isfinite(a_rec):
        ramp = twostate.ramped_coupling(model.x, model.eps, t)
        raise DomainError(
            f"phase-recursion amplitude is not finite at t = {t:.6g}: the ramped "
            f"coupling x * exp(eps * t) = {ramp:.6g} is beyond the reach of the "
            f"order-{order} series"
        )
    traj = twostate.evolve_two_state(model, t, tol)
    series = twostate.bessel_series_a(model, t)
    amps = {
        "ode": complex(traj.final_state[0]),
        "bessel-series": series.value,
        "phase-recursion": a_rec,
    }
    pairs = itertools.combinations(amps, 2)
    residuals = {f"{p}-vs-{q}": abs(amps[p] - amps[q]) for p, q in pairs}
    return amps, residuals, series, phase.converged


def _cmd_two_compare(model, args) -> dict:
    amps, residuals, series, converged = _three_way(model, args.t, args.tol, args.order)
    rows = _complex_rows(amps, amps.values())
    return dict(
        tables=[Table("methods", ["method", "re", "im", "abs"], rows)],
        residuals=residuals,
        values={"max_cross_residual": max(residuals.values())},
        flags={
            "converged[bessel-series]": bool(series.converged),
            "converged[phase-recursion]": converged,
        },
    )


def _cmd_two_sweep(base, args) -> dict:
    grid = _parse_eps_grid(args.eps_grid)
    limit = twostate.exact_eigensystem(base).norm_n
    rows = []
    for eps in grid:
        model = twostate.TwoStateModel(mu=base.mu, delta=base.delta, x=base.x, eps=eps)
        amps, residuals, series, converged = _three_way(model, 0.0, args.tol, args.order)
        # the terms rise to one peak and then fall, so the series summed to
        # its own stop has already passed the largest term; a row whose
        # cancellation costs more than 1e-12 reads converged[bessel-series] false
        abs_a0 = abs(amps["ode"])
        rows.append([eps, series.max_term, abs_a0, abs(abs_a0 - limit),
                     max(residuals.values()), bool(series.converged), converged])
    max_terms = [r[1] for r in rows]
    errors = [r[3] for r in rows]
    return dict(
        tables=[
            Table(
                "sweep",
                [
                    "eps",
                    "max_term_magnitude[bessel-series]",
                    "abs_a0[ode]",
                    "abs_a0_error_vs_limit[ode]",
                    "max_cross_residual",
                    "converged[bessel-series]",
                    "converged[phase-recursion]",
                ],
                rows,
            )
        ],
        values={"norm_n[exact]": limit},
        flags={
            "max_term_monotone_increasing": all(
                b > a for a, b in zip(max_terms, max_terms[1:])
            ),
            "ode_error_monotone_decreasing": all(
                b < a for a, b in zip(errors, errors[1:])
            ),
            "converged[bessel-series]": all(r[5] for r in rows),
            "converged[phase-recursion]": all(r[6] for r in rows),
        },
    )


# ---------------------------------------------------------------------------
# n-state subcommands


def _state_table(route, vec) -> Table:
    columns = ["component", f"re[{route}]", f"im[{route}]", f"abs[{route}]"]
    return Table("state", columns, _complex_rows(range(vec.size), vec))


def _cmd_n_dyson(model, args) -> dict:
    return dict(
        tables=[_state_table("dyson2", nstate.dyson2(model, args.t))],
        values={"free_phase_energy": model.ground_energy},
    )


def _cmd_n_recursion(model, args) -> dict:
    xi, phi = nstate.rs_recursion(model, args.order, 1)
    # the slopes in the rate are 1j times those in s (the + 0.0 keeps a zero
    # real part unsigned); hypot scales its arguments, so the norm is finite
    # wherever the entries are, where squaring them would overflow past 1e154
    rows = [
        [n, *_split_complex(value), *_split_complex(1j * slope + 0.0),
         math.hypot(*phi[n - 1, :, 0].real, *phi[n - 1, :, 0].imag)]
        for n, (value, slope) in enumerate(xi, 1)
    ]
    finite = np.isfinite([row[1:] for row in rows]).all(axis=1)
    if not finite.all():
        raise DomainError(
            f"phase-recursion terms are not finite from order "
            f"{int(np.argmin(finite)) + 1} of {args.order}: the recursion overflows; "
            "lower the order"
        )
    return dict(
        tables=[
            Table(
                "coefficients",
                ["n", "xi_re", "xi_im", "dxi_deps_re", "dxi_deps_im", "phi_norm"],
                rows,
            )
        ],
        flags={"sign_note": _RECURSION_SIGN_NOTE},
    )


def _cmd_n_split(model, args) -> dict:
    split = nstate.g_split(model, args.order)
    return dict(
        values={
            "g_a[phase-recursion]": split.g_a,
            "delta_e[phase-recursion]": split.delta_e,
            "g_b[phase-recursion]": split.g_b,
            "last_term_magnitude[phase-recursion]": split.last_term_magnitude,
            "max_imag_residue[phase-recursion]": split.max_imag_residue,
        },
        tables=[
            Table(
                "split",
                ["g_a", "delta_e", "g_b", "order", "last_term_magnitude"],
                [[split.g_a, split.delta_e, split.g_b, args.order,
                  split.last_term_magnitude]],
            )
        ],
    )


def _cmd_n_assemble(model, args) -> dict:
    assembled = nstate.assemble_state(model, args.order)
    return dict(
        tables=[_state_table("phase-recursion", assembled.state)],
        values={
            "energy[phase-recursion]": assembled.energy,
            # hypot scales its arguments, so a state whose squared entries
            # underflow (components near 1e-210 past the radius) keeps its norm
            "norm[phase-recursion]": math.hypot(
                *assembled.state.real, *assembled.state.imag
            ),
            "g_a[phase-recursion]": assembled.split.g_a,
            "delta_e[phase-recursion]": assembled.split.delta_e,
            "g_b[phase-recursion]": assembled.split.g_b,
        },
    )


def _cmd_n_evolve(model, args) -> dict:
    traj = nstate.evolve_nstate(model, args.t_end, args.tol)
    return dict(
        values={
            "accepted_steps[ode]": traj.accepted_steps,
            "rejected_steps[ode]": traj.rejected_steps,
            "final_norm[ode]": float(np.linalg.norm(traj.final_state)),
        },
        tables=[_trajectory_table(traj, [f"c{k}" for k in range(model.dim)])],
    )


def _cmd_n_oracle(model, args) -> dict:
    shift = nstate.oracle_shift(model)
    table = Table("shift", ["shift[oracle]"], [[shift]])
    return dict(values={"shift[oracle]": shift}, tables=[table])


def _cmd_n_compare(model, args) -> dict:
    assembled = nstate.assemble_state(model, args.order)
    split = assembled.split
    shift_oracle = nstate.oracle_shift(model)
    psi = nstate.evolve_nstate(model, 0.0, args.tol).final_state
    g = model.ground_index
    rows = []
    for comp in range(model.dim):
        if comp == g:
            continue
        r_ode = abs(psi[comp] / psi[g])
        r_rec = abs(assembled.state[comp] / assembled.state[g])
        rows.append([comp, r_ode, r_rec, abs(r_ode - r_rec)])
    return dict(
        values={
            "delta_e[phase-recursion]": split.delta_e,
            "shift[oracle]": shift_oracle,
            "last_term_magnitude[phase-recursion]": split.last_term_magnitude,
        },
        residuals={
            "delta_e[phase-recursion]-vs-shift[oracle]": abs(
                split.delta_e - shift_oracle
            ),
            "max_component_ratio[ode]-vs-[phase-recursion]": max(r[3] for r in rows),
        },
        tables=[
            Table(
                "component-ratios",
                ["component", "ratio[ode]", "ratio[phase-recursion]", "residual"],
                rows,
            )
        ],
    )


def _cmd_n_gen(model, args) -> dict:
    save_model(model, args.out)
    return dict(values={"min_gap": model.min_gap})


# ---------------------------------------------------------------------------
# argument parsing and dispatch


# add_argument keywords per flag; a subcommand may override some of them
_FLAGS = {
    "--model": {"default": None},
    "--mu": {"type": float, "default": 0.0},
    "--delta": {"type": float, "default": 1.0},
    "--x": {"type": float, "default": 0.5},
    "--eps": {"type": float, "default": 0.25},
    "--out": {"default": None, "help": "write the report to this file"},
    "--format": {"choices": ("csv", "json"), "default": "json"},
    "--t": {"type": float, "default": 0.0},
    "--t-end": {"type": float, "default": 0.0},
    "--tol": {"type": float, "default": 1e-10},
    "--order": {"type": int, "default": twostate.DEFAULT_ORDER},
    "--eps-grid": {"default": "0.5:0.5:4", "help": "start:factor:count"},
    "--seed": {"type": int, "required": True},
    "--levels": {"type": int, "required": True},
    "--gap": {"type": float, "default": 1.0},
    "--vscale": {"type": float, "default": 1.0},
}
_OUTPUT = ("--out", "--format")
_TWO = (("--model", {"help": "two-state model JSON file"}), "--mu", "--delta", "--x",
        "--eps", *_OUTPUT)
_N = ("--model", *_OUTPUT)

# group -> (help, model loader, [(subcommand, help, handler, flags)]); a fifth
# item in a subcommand's entry replaces the group's model loader
_COMMANDS = {
    "two-state": ("exactly solvable two-level model", _two_state_model, [
        ("exact", "closed-form eigensystem", _cmd_two_exact, _TWO),
        ("evolve", "integrate the amplitude pair", _cmd_two_evolve,
         _TWO + ("--t-end", "--tol")),
        ("series", "divergent amplitude series", _cmd_two_series, _TWO + ("--t",)),
        ("phase", "phase split and normalization identity", _cmd_two_phase,
         _TWO + ("--order",)),
        ("compare", "all three routes at one point", _cmd_two_compare,
         _TWO + ("--t", "--tol", "--order")),
        ("sweep-eps", "compare over a geometric switching-rate grid", _cmd_two_sweep,
         _TWO + ("--eps-grid", "--tol", "--order")),
    ]),
    "n-state": ("general finite level count", _n_state_model, [
        ("dyson", "second-order Dyson state", _cmd_n_dyson, _N + ("--t",)),
        ("recursion", "projector-recursion coefficients", _cmd_n_recursion,
         _N + (("--order", {"default": 8}),)),
        ("split", "divergent/secular/finite phase split", _cmd_n_split,
         _N + ("--order",)),
        ("assemble", "slow-switching limit state", _cmd_n_assemble,
         _N + ("--order",)),
        ("evolve", "full switched-coupling evolution", _cmd_n_evolve,
         _N + ("--t-end", "--tol")),
        ("oracle", "exact-diagonalization level shift", _cmd_n_oracle, _N),
        ("compare", "series vs oracle vs ODE ratios", _cmd_n_compare,
         _N + (("--order", {"default": 12}), "--tol")),
        ("gen", "seeded random model to file", _cmd_n_gen,
         (("--out", {"help": "write the model to this file"}), "--seed", "--levels",
          "--gap", "--vscale", ("--x", {"default": None}), "--eps"), _generated_model),
    ]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole ``adiabatic-lab`` argument tree, built on the first call and
    shared by every later one in the process.

    Each subcommand's defaults carry its handler, its model loader and the
    ``echo`` list of flags ``_parameters`` reports; they are bound at the
    first build. ``parse_args`` returns a fresh namespace and leaves the
    tree as it was, so sharing it is safe as long as callers do not mutate
    the returned parser.
    """
    # no parser expands an abbreviated flag: one that a subcommand lacks
    # would otherwise set another, as --t sets sweep-eps's --tol
    parser = argparse.ArgumentParser(
        prog="adiabatic-lab",
        allow_abbrev=False,
        description="Switched-coupling perturbation experiments: exact, series, "
        "phase-recursion and ODE routes with cross-validation.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, load, commands) in _COMMANDS.items():
        sub = groups.add_parser(group, help=group_help, allow_abbrev=False)
        sub = sub.add_subparsers(dest="command", required=True)
        for name, help_text, func, flags, *own_load in commands:
            p = sub.add_parser(name, help=help_text, allow_abbrev=False)
            echo = []
            for flag in flags:
                flag, overrides = (flag, {}) if isinstance(flag, str) else flag
                action = p.add_argument(flag, **{**_FLAGS[flag], **overrides})
                if flag not in _OUTPUT:
                    echo.append(action.dest)
            p.set_defaults(func=func, load=own_load[0] if own_load else load, echo=echo)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code. The parser is built on the
    first call in a process and reused by later ones."""
    level = os.environ.get("ADIABATIC_LAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    command = f"{args.group} {args.command}"
    started = time.perf_counter()
    try:
        model = args.load(args)
        report = RunReport(command, _parameters(args, model), **args.func(model, args))
        log.info("%s finished in %.3f s", command, time.perf_counter() - started)
        _print_report(report)
        # gen writes the model to --out and has no --format
        if args.out and "format" in args:
            emit(report, args.format, args.out)
    except (LabError, OSError) as exc:
        code, prefix = next((c, p) for cls, c, p in _EXITS if isinstance(exc, cls))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
