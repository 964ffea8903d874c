"""Command-line front end: ``adiabatic-lab <two-state|n-state> <subcommand>``.

Batch tool: reads JSON model files (or inline two-state flags), runs the
requested computation, prints a plain-text summary, and optionally emits a
CSV/JSON report. Exit codes: 0 ok, 2 domain error, 3 integration failure,
4 degeneracy, 5 continuation failure, 10 I/O error.
"""

from __future__ import annotations

import argparse
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


# ---------------------------------------------------------------------------
# helpers


def _split_complex(z):
    return float(z.real), float(z.imag)


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
    return [start * factor**i for i in range(count)]


def _trajectory_table(traj, labels) -> Table:
    columns = ["t"]
    for lab in labels:
        columns += [f"re_{lab}", f"im_{lab}"]
    columns.append("norm")
    rows = []
    norms = traj.norms()
    for i, t in enumerate(traj.times):
        row = [float(t)]
        for comp in traj.states[i]:
            row += [float(comp.real), float(comp.imag)]
        row.append(float(norms[i]))
        rows.append(row)
    return Table("trajectory", columns, rows)


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
        if table.name == "trajectory" and len(table.rows) > 12:
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


def _cmd_two_exact(args) -> RunReport:
    model = _two_state_model(args)
    es = twostate.exact_eigensystem(model)
    report = RunReport(
        command="two-state exact",
        parameters={"mu": model.mu, "delta": model.delta, "x": model.x, "eps": model.eps},
    )
    report.values = {
        "delta_e[exact]": es.delta_e,
        "norm_n[exact]": es.norm_n,
        "e0[exact]": es.e0,
        "e1[exact]": es.e1,
    }
    report.tables = [
        Table(
            "eigensystem",
            ["level", "energy[exact]", "re_component_0", "re_component_1"],
            [
                [0, es.e0, float(es.psi0[0].real), float(es.psi0[1].real)],
                [1, es.e1, float(es.psi1[0].real), float(es.psi1[1].real)],
            ],
        )
    ]
    return report


def _cmd_two_evolve(args) -> RunReport:
    model = _two_state_model(args)
    traj = twostate.evolve_two_state(
        model, args.t_end, args.tol, start_threshold=args.start_threshold
    )
    a_re, a_im = _split_complex(traj.final_state[0])
    report = RunReport(
        command="two-state evolve",
        parameters={
            "mu": model.mu, "delta": model.delta, "x": model.x, "eps": model.eps,
            "t_end": args.t_end, "tol": args.tol,
            "start_threshold": args.start_threshold,
        },
    )
    report.values = {
        "a_re[ode]": a_re,
        "a_im[ode]": a_im,
        "accepted_steps[ode]": traj.accepted_steps,
        "rejected_steps[ode]": traj.rejected_steps,
    }
    report.tables = [_trajectory_table(traj, ["a", "c"])]
    return report


def _cmd_two_series(args) -> RunReport:
    model = _two_state_model(args)
    result = twostate.bessel_series_a(model, args.t, args.terms)
    re, im = _split_complex(result.value)
    report = RunReport(
        command="two-state series",
        parameters={
            "mu": model.mu, "delta": model.delta, "x": model.x, "eps": model.eps,
            "t": args.t, "terms": args.terms,
        },
    )
    report.values = {
        "a_re[bessel-series]": re,
        "a_im[bessel-series]": im,
        "max_term_magnitude[bessel-series]": result.max_term,
    }
    report.flags = {"converged[bessel-series]": bool(result.converged)}
    report.tables = [
        Table(
            "series-terms",
            ["k", "term_magnitude[bessel-series]"],
            [[k + 1, float(m)] for k, m in enumerate(result.term_magnitudes)],
        )
    ]
    return report


def _cmd_two_phase(args) -> RunReport:
    model = _two_state_model(args)
    split = twostate.phase_split(model, args.order)
    report = RunReport(
        command="two-state phase",
        parameters={
            "mu": model.mu, "delta": model.delta, "x": model.x, "eps": model.eps,
            "order": args.order,
        },
    )
    report.values = {
        "f_a[phase-recursion]": split.f_a,
        "delta_e_a[phase-recursion]": split.delta_e_a,
        "f_b[phase-recursion]": split.f_b,
        "f_c[phase-recursion]": split.f_c,
        "exp_f_b[phase-recursion]": math.exp(split.f_b),
        "norm_n[exact]": split.norm_n,
        "max_imag_residue[phase-recursion]": split.max_imag_residue,
    }
    report.residuals = {
        "normalization-identity": split.normalization_residual,
        "shift-quadratic": split.shift_quadratic_residual,
        "rate-balance": split.rate_balance_residual,
    }
    report.tables = [
        Table(
            "phase-split",
            ["f_a", "delta_e_a", "f_b", "f_c", "order", "eps_used"],
            [[split.f_a, split.delta_e_a, split.f_b, split.f_c,
              split.truncation_order, split.eps_used]],
        )
    ]
    return report


def _three_way(model, t, tol, order, terms):
    traj = twostate.evolve_two_state(model, t, tol)
    a_ode = complex(traj.final_state[0])
    series = twostate.bessel_series_a(model, t, terms, stop_below=1e-12)
    a_series = series.value
    a_rec = complex(np.exp(-1j * twostate.phase_f(model, t, order) / model.eps))
    return a_ode, a_series, a_rec, series


def _cmd_two_compare(args) -> RunReport:
    model = _two_state_model(args)
    a_ode, a_series, a_rec, series = _three_way(
        model, args.t, args.tol, args.order, args.terms
    )
    rows = []
    for method, val in (
        ("ode", a_ode), ("bessel-series", a_series), ("phase-recursion", a_rec),
    ):
        re, im = _split_complex(val)
        rows.append([method, re, im, abs(val)])
    residuals = {
        "ode-vs-bessel-series": abs(a_ode - a_series),
        "ode-vs-phase-recursion": abs(a_ode - a_rec),
        "bessel-series-vs-phase-recursion": abs(a_series - a_rec),
    }
    report = RunReport(
        command="two-state compare",
        parameters={
            "mu": model.mu, "delta": model.delta, "x": model.x, "eps": model.eps,
            "t": args.t, "tol": args.tol, "order": args.order, "terms": args.terms,
        },
    )
    report.tables = [Table("methods", ["method", "re", "im", "abs"], rows)]
    report.residuals = residuals
    report.values = {"max_cross_residual": max(residuals.values())}
    report.flags = {"converged[bessel-series]": bool(series.converged)}
    return report


def _cmd_two_sweep(args) -> RunReport:
    base = _two_state_model(args)
    grid = _parse_eps_grid(args.eps_grid)
    limit = twostate.exact_eigensystem(base).norm_n
    rows = []
    for eps in grid:
        model = twostate.TwoStateModel(mu=base.mu, delta=base.delta, x=base.x, eps=eps)
        a_ode, a_series, a_rec, series = _three_way(
            model, 0.0, args.tol, args.order, args.terms
        )
        # the terms rise to one peak and then fall, so the series summed to
        # its 1e-12 stop has already passed the largest term
        cross = max(
            abs(a_ode - a_series), abs(a_ode - a_rec), abs(a_series - a_rec)
        )
        rows.append(
            [eps, series.max_term, abs(a_ode), abs(abs(a_ode) - limit), cross]
        )
    max_terms = [r[1] for r in rows]
    errors = [r[3] for r in rows]
    report = RunReport(
        command="two-state sweep-eps",
        parameters={
            "mu": base.mu, "delta": base.delta, "x": base.x,
            "eps_grid": args.eps_grid, "t": 0.0, "tol": args.tol,
            "order": args.order, "terms": args.terms,
        },
    )
    report.tables = [
        Table(
            "sweep",
            [
                "eps",
                "max_term_magnitude[bessel-series]",
                "abs_a0[ode]",
                "abs_a0_error_vs_limit[ode]",
                "max_cross_residual",
            ],
            rows,
        )
    ]
    report.values = {"norm_n[exact]": limit}
    report.flags = {
        "max_term_monotone_increasing": all(
            b > a for a, b in zip(max_terms, max_terms[1:])
        ),
        "ode_error_monotone_decreasing": all(
            b < a for a, b in zip(errors, errors[1:])
        ),
    }
    return report


# ---------------------------------------------------------------------------
# n-state subcommands


def _cmd_n_dyson(args) -> RunReport:
    model = _n_state_model(args)
    vec = nstate.dyson2(model, args.t)
    rows = []
    for comp, val in enumerate(vec):
        re, im = _split_complex(val)
        rows.append([comp, re, im, abs(val)])
    report = RunReport(
        command="n-state dyson",
        parameters={"model": args.model, "t": args.t, "x": model.x, "eps": model.eps},
    )
    report.tables = [
        Table("state", ["component", "re[dyson2]", "im[dyson2]", "abs[dyson2]"], rows)
    ]
    report.values = {"free_phase_energy": model.ground_energy}
    return report


def _cmd_n_recursion(args) -> RunReport:
    model = _n_state_model(args)
    rs = nstate.rs_recursion(model, args.order, 1)
    rows = []
    for n in range(1, args.order + 1):
        value, slope = rs.xi[n - 1]
        rows.append(
            [
                n,
                float(value.real),
                float(value.imag),
                float(slope.real),
                float(slope.imag),
                float(np.linalg.norm(rs.phi_n(n))),
            ]
        )
    report = RunReport(
        command="n-state recursion",
        parameters={"model": args.model, "order": args.order},
    )
    report.tables = [
        Table(
            "coefficients",
            ["n", "xi_re", "xi_im", "dxi_deps_re", "dxi_deps_im", "phi_norm"],
            rows,
        )
    ]
    report.flags = {"sign_note": _RECURSION_SIGN_NOTE}
    return report


def _cmd_n_split(args) -> RunReport:
    model = _n_state_model(args)
    split = nstate.g_split(model, args.order)
    report = RunReport(
        command="n-state split",
        parameters={"model": args.model, "order": args.order, "x": model.x},
    )
    report.values = {
        "g_a[phase-recursion]": split.g_a,
        "delta_e[phase-recursion]": split.delta_e,
        "g_b[phase-recursion]": split.g_b,
        "last_term_magnitude[phase-recursion]": split.last_term_magnitude,
        "max_imag_residue[phase-recursion]": split.max_imag_residue,
    }
    report.tables = [
        Table(
            "split",
            ["g_a", "delta_e", "g_b", "order", "last_term_magnitude"],
            [[split.g_a, split.delta_e, split.g_b, split.order,
              split.last_term_magnitude]],
        )
    ]
    return report


def _cmd_n_assemble(args) -> RunReport:
    model = _n_state_model(args)
    assembled = nstate.assemble_state(model, args.order)
    rows = []
    for comp, val in enumerate(assembled.state):
        re, im = _split_complex(val)
        rows.append([comp, re, im, abs(val)])
    report = RunReport(
        command="n-state assemble",
        parameters={"model": args.model, "order": args.order},
    )
    report.tables = [
        Table(
            "state",
            ["component", "re[phase-recursion]", "im[phase-recursion]",
             "abs[phase-recursion]"],
            rows,
        )
    ]
    report.values = {
        "energy[phase-recursion]": assembled.energy,
        "norm[phase-recursion]": float(np.linalg.norm(assembled.state)),
        "g_a[phase-recursion]": assembled.split.g_a,
        "delta_e[phase-recursion]": assembled.split.delta_e,
        "g_b[phase-recursion]": assembled.split.g_b,
    }
    return report


def _cmd_n_evolve(args) -> RunReport:
    model = _n_state_model(args)
    traj = nstate.evolve_nstate(
        model, args.t_end, args.tol, start_threshold=args.start_threshold
    )
    report = RunReport(
        command="n-state evolve",
        parameters={
            "model": args.model, "t_end": args.t_end, "tol": args.tol,
            "start_threshold": args.start_threshold,
        },
    )
    report.values = {
        "accepted_steps[ode]": traj.accepted_steps,
        "rejected_steps[ode]": traj.rejected_steps,
        "final_norm[ode]": float(np.linalg.norm(traj.final_state)),
    }
    report.tables = [
        _trajectory_table(traj, [f"c{k}" for k in range(model.dim)])
    ]
    return report


def _cmd_n_oracle(args) -> RunReport:
    model = _n_state_model(args)
    shift = nstate.oracle_shift(model)
    report = RunReport(
        command="n-state oracle",
        parameters={"model": args.model, "x": model.x},
    )
    report.values = {"shift[oracle]": shift}
    return report


def _cmd_n_compare(args) -> RunReport:
    model = _n_state_model(args)
    assembled = nstate.assemble_state(model, args.order)
    split = assembled.split
    shift_oracle = nstate.oracle_shift(model)
    traj = nstate.evolve_nstate(model, 0.0, args.tol)
    psi = traj.final_state
    g = model.ground_index
    rows = []
    ratio_resid = 0.0
    for comp in range(model.dim):
        if comp == g:
            continue
        r_ode = abs(psi[comp] / psi[g])
        r_rec = abs(assembled.state[comp] / assembled.state[g])
        ratio_resid = max(ratio_resid, abs(r_ode - r_rec))
        rows.append([comp, r_ode, r_rec, abs(r_ode - r_rec)])
    report = RunReport(
        command="n-state compare",
        parameters={
            "model": args.model, "order": args.order, "tol": args.tol,
            "x": model.x, "eps": model.eps,
        },
    )
    report.values = {
        "delta_e[phase-recursion]": split.delta_e,
        "shift[oracle]": shift_oracle,
        "last_term_magnitude[phase-recursion]": split.last_term_magnitude,
    }
    report.residuals = {
        "delta_e[phase-recursion]-vs-shift[oracle]": abs(
            split.delta_e - shift_oracle
        ),
        "max_component_ratio[ode]-vs-[phase-recursion]": ratio_resid,
    }
    report.tables = [
        Table(
            "component-ratios",
            ["component", "ratio[ode]", "ratio[phase-recursion]", "residual"],
            rows,
        )
    ]
    return report


def _cmd_n_gen(args) -> RunReport:
    if not args.out:
        raise DomainError("n-state gen needs --out FILE for the model")
    model = generate_nstate_model(
        seed=args.seed,
        levels=args.levels,
        gap=args.gap,
        vscale=args.vscale,
        x=args.x,
        eps=args.eps,
    )
    save_model(model, args.out)
    report = RunReport(
        command="n-state gen",
        parameters={
            "seed": args.seed, "levels": args.levels, "gap": args.gap,
            "vscale": args.vscale, "x": model.x, "eps": model.eps,
            "out": str(args.out),
        },
    )
    report.values = {"min_gap": model.min_gap}
    return report


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
    "--start-threshold": {"type": float, "default": 1e-8},
    "--terms": {"type": int, "default": 60},
    "--order": {"type": int, "default": 30},
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
_EVOLVE = ("--t-end", "--tol", "--start-threshold")

# group -> (help, [(subcommand, help, handler, flags)])
_COMMANDS = {
    "two-state": ("exactly solvable two-level model", [
        ("exact", "closed-form eigensystem", _cmd_two_exact, _TWO),
        ("evolve", "integrate the amplitude pair", _cmd_two_evolve, _TWO + _EVOLVE),
        ("series", "divergent amplitude series", _cmd_two_series,
         _TWO + ("--t", "--terms")),
        ("phase", "phase split and normalization identity", _cmd_two_phase,
         _TWO + ("--order",)),
        ("compare", "all three routes at one point", _cmd_two_compare,
         _TWO + ("--t", "--tol", "--order", "--terms")),
        ("sweep-eps", "compare over a geometric switching-rate grid", _cmd_two_sweep,
         _TWO + ("--eps-grid", "--tol", "--order", "--terms")),
    ]),
    "n-state": ("general finite level count", [
        ("dyson", "second-order Dyson state", _cmd_n_dyson, _N + ("--t",)),
        ("recursion", "projector-recursion coefficients", _cmd_n_recursion,
         _N + (("--order", {"default": 8}),)),
        ("split", "divergent/secular/finite phase split", _cmd_n_split,
         _N + ("--order",)),
        ("assemble", "slow-switching limit state", _cmd_n_assemble,
         _N + ("--order",)),
        ("evolve", "full switched-coupling evolution", _cmd_n_evolve, _N + _EVOLVE),
        ("oracle", "exact-diagonalization level shift", _cmd_n_oracle, _N),
        ("compare", "series vs oracle vs ODE ratios", _cmd_n_compare,
         _N + (("--order", {"default": 12}), "--tol")),
        ("gen", "seeded random model to file", _cmd_n_gen,
         (("--out", {"help": "write the model to this file"}), "--seed", "--levels",
          "--gap", "--vscale", ("--x", {"default": None}), "--eps")),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiabatic-lab",
        description="Switched-coupling perturbation experiments: exact, series, "
        "phase-recursion and ODE routes with cross-validation.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in _COMMANDS.items():
        sub = groups.add_parser(group, help=group_help)
        sub = sub.add_subparsers(dest="command", required=True)
        for name, help_text, func, flags in commands:
            p = sub.add_parser(name, help=help_text)
            for flag in flags:
                flag, overrides = (flag, {}) if isinstance(flag, str) else flag
                p.add_argument(flag, **{**_FLAGS[flag], **overrides})
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("ADIABATIC_LAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.func(args)
        report.timing_s = time.perf_counter() - started
        log.info("%s finished in %.3f s", report.command, report.timing_s)
        _print_report(report)
        if args.out and args.func is not _cmd_n_gen:
            emit(report, args.format, args.out)
    except DegeneracyError as exc:
        print(f"error: degeneracy: {exc}", file=sys.stderr)
        return 4
    except ContinuationError as exc:
        print(f"error: continuation: {exc}", file=sys.stderr)
        return 5
    except IntegrationError as exc:
        print(f"error: integration: {exc}", file=sys.stderr)
        return 3
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: i/o: {exc}", file=sys.stderr)
        return 10
    return 0


if __name__ == "__main__":
    sys.exit(main())
