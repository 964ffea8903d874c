import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from adiabatic_lab import nstate, twostate
from adiabatic_lab.cli import _parse, build_parser, main
from adiabatic_lab.modelio import (
    ModelFileError,
    generate_nstate_model,
    load_model,
    model_to_dict,
    save_model,
)
from adiabatic_lab.nstate import NStateModel
from adiabatic_lab.numkit import Ramp, ode
from adiabatic_lab.report import RunReport, Table, emit, report_from_json
from adiabatic_lab.twostate import TwoStateModel
from test_twostate import state_oracle


def run(*argv):
    return main(list(argv))


EMBED = {
    "kind": "n-state",
    "energies": [-1.0, 1.0],
    "v_real": [[0.0, 1.0], [1.0, 0.0]],
    "v_imag": [[0.0, 0.0], [0.0, 0.0]],
    "x": 0.5,
    "eps": 0.25,
}
TWO = {"kind": "two-state", "mu": 0.0, "delta": 1.0, "x": 0.5, "eps": 0.25}


def write_model(tmp_path, base=EMBED, **fields):
    """The model ``base`` with ``fields`` replaced, as a JSON file."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**base, **fields}))
    return path


def column(table, name):
    """The entries of the column called ``name``, one per row."""
    index = table.columns.index(name)
    return [row[index] for row in table.rows]


# ---------------------------------------------------------------------------
# model files


def test_two_state_model_round_trip(tmp_path):
    path = tmp_path / "two.json"
    save_model(TwoStateModel(mu=0.1, delta=1.5, x=0.4, eps=0.2), path)
    model = load_model(path)
    assert isinstance(model, TwoStateModel)
    assert (model.mu, model.delta, model.x, model.eps) == (0.1, 1.5, 0.4, 0.2)


def test_n_state_model_round_trip(tmp_path):
    path = tmp_path / "n.json"
    original = generate_nstate_model(seed=3, levels=4, vscale=0.5)
    save_model(original, path)
    model = load_model(path)
    assert isinstance(model, NStateModel)
    np.testing.assert_allclose(model.energies, original.energies)
    np.testing.assert_allclose(model.v.entries, original.v.entries)


def test_model_file_errors_carry_location(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"kind": "two-state",\n  "mu": }\n')
    with pytest.raises(ModelFileError, match="line 2"):
        load_model(bad_json)

    missing_field = tmp_path / "missing.json"
    missing_field.write_text('{"kind": "two-state", "mu": 0.0, "delta": 1.0, "x": 0.5}')
    with pytest.raises(ModelFileError, match="'eps'"):
        load_model(missing_field)

    bad_kind = tmp_path / "kind.json"
    bad_kind.write_text('{"kind": "three-state"}')
    with pytest.raises(ModelFileError, match="kind"):
        load_model(bad_kind)

    bad_type = tmp_path / "type.json"
    bad_type.write_text(
        '{"kind": "two-state", "mu": 0.0, "delta": "one", "x": 0.5, "eps": 0.25}'
    )
    with pytest.raises(ModelFileError, match="'delta'"):
        load_model(bad_type)


def test_model_file_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"kind": "two-state", "mu": 0.0, "delta": 1.0, "x": 0.5, "eps": 0.25}\xff')
    assert run("two-state", "exact", "--model", str(path)) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not UTF-8 text: invalid start byte at byte 69\n"
    )


# ---------------------------------------------------------------------------
# the one-entry model store


def test_same_model_text_under_two_paths_loads_one_model(tmp_path):
    text = json.dumps(EMBED)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(text)
    second.write_text(text)
    assert load_model(first) is load_model(second)


def test_same_size_rewrite_with_the_same_timestamp_is_parsed_again(tmp_path):
    # the store is keyed by content: a rewrite that keeps the size and the
    # modification time still loads the new model
    path = write_model(tmp_path, x=0.5)
    text = path.read_text()
    before = path.stat()
    assert load_model(path).x == 0.5
    rewritten = text.replace('"x": 0.5', '"x": 0.7')
    assert len(rewritten) == len(text) and rewritten != text
    path.write_text(rewritten)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert load_model(path).x == 0.7


def test_failed_loads_keep_the_stored_model_and_name_their_own_path(tmp_path):
    good = write_model(tmp_path)
    model = load_model(good)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ModelFileError, match=f"^{re.escape(str(bad_json))}: invalid JSON"):
        load_model(bad_json)
    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({**EMBED, "x": -0.5}))
    with pytest.raises(ModelFileError,
                       match=f"^{re.escape(str(degenerate))}: coupling x must be > 0"):
        load_model(degenerate)
    assert load_model(good) is model


@pytest.mark.parametrize("base", [EMBED, TWO], ids=["n-state", "two-state"])
def test_stored_model_cannot_be_changed(tmp_path, base):
    # one model serves every load of its text, so no load can change it
    model = load_model(write_model(tmp_path, base))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.x = 1.0
    if base is EMBED:
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.v.entries = np.zeros((2, 2))
        with pytest.raises(ValueError, match="read-only"):
            model.energies[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            model.v.entries[0, 1] = 0.0
        # a read-only flag alone could be set back
        for array in (model.energies, model.v.entries):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.flags.writeable = True
    assert load_model(write_model(tmp_path, base)) is model
    saved = model_to_dict(model)
    assert {key: saved[key] for key in base} == base


# ---------------------------------------------------------------------------
# exit codes


def test_exit_ok_and_domain_error(capsys):
    assert run("two-state", "exact", "--mu", "0", "--delta", "1", "--x", "0.5") == 0
    out = capsys.readouterr().out
    assert "-0.11803398874989485" in out

    assert run("two-state", "exact", "--x", "0") == 2
    err = capsys.readouterr().err
    assert "x must be > 0" in err


def test_exit_code_missing_model_file(capsys):
    assert run("n-state", "oracle", "--model", "/nonexistent/m.json") == 10
    assert "i/o" in capsys.readouterr().err


def test_exit_code_malformed_model_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run("n-state", "oracle", "--model", str(path)) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_exit_code_degeneracy(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text(
        json.dumps(
            {
                "kind": "n-state",
                "energies": [0.0, 1e-13, 1.0],
                "v_real": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                "v_imag": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                "x": 0.1,
                "eps": 0.25,
            }
        )
    )
    assert run("n-state", "oracle", "--model", str(path)) == 4
    assert "degeneracy" in capsys.readouterr().err


def test_exit_code_continuation(tmp_path, capsys):
    model = generate_nstate_model(seed=1, levels=8, x=200.0)
    path = tmp_path / "strong.json"
    save_model(model, path)
    assert run("n-state", "oracle", "--model", str(path)) == 5
    assert "continuation" in capsys.readouterr().err


def test_exit_code_two_state_end_inside_the_switch_on_tail(tmp_path):
    # at t_end -35 the coupling is 4e-5 of the gap, below the two-state
    # start of 1e-4: the run starts ln(100) / eps before t_end instead
    out = tmp_path / "report.json"
    assert run("two-state", "evolve", "--t-end", "-35", "--out", str(out)) == 0
    (table,) = report_from_json(out).tables
    t, a_re, a_im, c_re, c_im, _ = table.rows[-1]
    assert t == -35.0
    m = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25)
    a, c = state_oracle(m, -35)
    assert abs(complex(a_re, a_im) - a) <= 1e-11
    assert abs(complex(c_re, c_im) - c) <= 1e-11


@pytest.mark.parametrize("command", ["compare", "sweep-eps"])
def test_two_state_routes_compared_below_the_default_start(tmp_path, command):
    # at x 1e-4 the coupling at t 0 is 5e-5 of the gap, below the ODE's
    # start of 1e-4: the ODE starts at 1e-2 of that coupling instead
    out = tmp_path / "report.json"
    assert run("two-state", command, "--x", "1e-4", "--out", str(out)) == 0
    report = report_from_json(out)
    if command == "compare":
        residuals = report.residuals.values()
    else:
        residuals = column(report.tables[0], "max_cross_residual")
    assert max(residuals) <= 1e-12
    assert "start_threshold" not in report.parameters


@pytest.mark.parametrize("command", ["compare", "sweep-eps", "evolve"])
def test_two_state_commands_where_the_coupling_over_the_gap_underflows(
    tmp_path, command
):
    # at x 5e-324 the coupling over the gap is 0 in doubles; the ODE's start
    # is found in log space, and every route reads a = 1
    out = tmp_path / "report.json"
    assert run("two-state", command, "--x", "5e-324", "--out", str(out)) == 0
    report = report_from_json(out)
    (table,) = report.tables
    if command == "compare":
        assert column(table, "re") == [1.0, 1.0, 1.0]
    elif command == "evolve":
        assert (report.values["a_re[ode]"], report.values["a_im[ode]"]) == (1.0, 0.0)
    else:
        assert column(table, "abs_a0[ode]") == [1.0] * 4
        assert column(table, "max_cross_residual") == [0.0] * 4


@pytest.mark.parametrize("index", ["1", 1.0, True])
def test_exit_code_non_integer_ground_index(tmp_path, capsys, index):
    path = write_model(tmp_path, ground_index=index)
    assert run("n-state", "oracle", "--model", str(path)) == 2
    assert "'ground_index' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, fields",
    [
        (EMBED, {"energies": ["a", 1]}),
        (EMBED, {"energies": [-1.0, float("nan")]}),
        (EMBED, {"v_real": [[0.0, float("inf")], [float("inf"), 0.0]]}),
        (EMBED, {"v_imag": [[0.0, float("inf")], [-float("inf"), 0.0]]}),
        (EMBED, {"x": float("inf")}),
        (TWO, {"mu": float("nan")}),
        (TWO, {"eps": 10**400}),
    ],
    ids=["string-energy", "nan-energy", "inf-v_real", "inf-v_imag", "inf-x", "nan-mu",
         "huge-int-eps"],
)
def test_exit_code_model_numbers_not_finite(tmp_path, capsys, base, fields):
    path = write_model(tmp_path, base, **fields)
    group = "n-state oracle" if base is EMBED else "two-state exact"
    assert run(*group.split(), "--model", str(path)) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, fields",
    [
        (EMBED, {"energies": [-1.0, True]}),
        (EMBED, {"v_real": [[0.0, "1.0"], [1.0, 0.0]]}),
        (EMBED, {"energies": [None, 1.0]}),
        (EMBED, {"v_real": [[0.0, 1.0], [1.0]]}),
        (EMBED, {"v_real": [[[0.0], [1.0]], [[1.0], [0.0]]]}),
        (EMBED, {"v_real": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]],
                 "v_imag": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}),
        (EMBED, {"v_imag": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}),
        (EMBED, {"energies": [-1.0, 0.0, 1.0]}),
        (EMBED, {"x": float("nan")}),
        (EMBED, {"x": float("inf")}),
        (TWO, {"delta": float("nan")}),
        (TWO, {"eps": float("inf")}),
        (EMBED, {"energies": [-1.0, 10**400]}),
        (EMBED, {"energies": 1.0}),
        (EMBED, {"ground_index": 5}),
        (EMBED, {"x": True}),
        (EMBED, {"x": [0.5]}),
        (EMBED, {"v_real": [[0.0, 1.0], [0.5, 0.0]]}),
    ],
    ids=["bool-energy", "string-v_real", "null-energy", "ragged-v_real",
         "nested-v_real", "non-square-v", "v-parts-differ", "size-mismatch",
         "nan-x", "inf-x", "nan-delta", "inf-eps", "huge-int-energy",
         "scalar-energies", "ground-index-range", "bool-x", "list-x",
         "non-hermitian-v"],
)
def test_malformed_model_file_exits_2_naming_the_file(tmp_path, capsys, base, fields):
    path = write_model(tmp_path, base, **fields)
    group = "n-state oracle" if base is EMBED else "two-state exact"
    assert run(*group.split(), "--model", str(path)) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["two-state", "evolve", "--delta", "1", "--x", "0.5", "--eps", "0.25",
         "--t-end", "3000"],
        ["n-state", "evolve", "--t-end", "5000"],
        ["two-state", "series", "--delta", "1", "--x", "0.5", "--eps", "0.25",
         "--t", "3000"],
        ["n-state", "dyson", "--t", "5000"],
        # the ramp is a float here but its square is not
        ["n-state", "dyson", "--t", "1500"],
        ["two-state", "compare", "--delta", "1", "--x", "0.5", "--eps", "0.25",
         "--t", "1500"],
    ],
    ids=["two-state", "n-state", "two-state-series", "n-state-dyson",
         "n-state-dyson-square", "two-state-compare-square"],
)
def test_exit_code_ramp_overflow(tmp_path, capsys, argv):
    if argv[:2] == ["n-state", "dyson"]:
        path = tmp_path / "gen.json"
        save_model(generate_nstate_model(seed=7, levels=6), path)
        argv = [*argv, "--model", str(path)]
    elif argv[0] == "n-state":
        argv = [*argv, "--model", str(write_model(tmp_path))]
    assert run(*argv) == 2
    assert "overflows" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["two-state", "compare", "--delta", "1", "--x", "0.5", "--eps", "0.25",
         "--t", "5"],
        ["two-state", "sweep-eps", "--x", "3"],
    ],
    ids=["compare", "sweep-eps"],
)
def test_exit_code_phase_recursion_not_finite(capsys, argv):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: phase-recursion amplitude is not finite at t = ")
    assert "ramped coupling" in err



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, first",
    [
        # the projector recursion overflows
        (["n-state", "split", "--order", "1200"], 626),
        (["n-state", "recursion", "--order", "1200"], 626),
    ],
    ids=["n-state", "n-state-recursion"],
)
def test_exit_code_split_not_finite(tmp_path, capsys, argv, first):
    path = tmp_path / "gen.json"
    save_model(generate_nstate_model(seed=3, levels=5, x=0.5), path)
    assert run(*argv, "--model", str(path)) == 2
    err = capsys.readouterr().err
    assert f"phase-recursion terms are not finite from order {first} of " in err
    assert "RuntimeWarning" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [30, 100, 300])
@pytest.mark.parametrize("command", ["assemble", "compare"])
def test_exit_code_assembled_norm_not_finite(tmp_path, capsys, command, order):
    # past the recursion's radius g_b runs to +5709 (order 30), -3.2e16
    # (order 100) and +5.5e54 (order 300): exp(g_b) overflows or is 0
    path = tmp_path / "gen.json"
    save_model(generate_nstate_model(seed=3, levels=5, x=0.5), path)
    assert run("n-state", command, "--model", str(path), "--order", str(order)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exp(g_b) is not a finite positive double: g_b = ")
    assert f"at order {order};" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert len(err.splitlines()) == 1


def test_assembled_norm_of_a_tiny_state_is_positive(tmp_path):
    # past the recursion's radius, order 25 gives g_b = -488 and components
    # near 1e-210, whose squares underflow; the norm must not read 0
    model = generate_nstate_model(seed=3, levels=5, x=0.5)
    path, out = tmp_path / "gen.json", tmp_path / "out.json"
    save_model(model, path)
    assert run("n-state", "assemble", "--model", str(path), "--order", "25",
               "--out", str(out)) == 0
    norm = report_from_json(out).values["norm[phase-recursion]"]
    state = nstate.assemble_state(model, 25).state
    top = np.abs(state).max()
    assert 1e-215 < top < 1e-200
    assert norm == pytest.approx(top * np.linalg.norm(state / top), rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "delta, x",
    [
        # in absolute units the jet table would overflow from order 51
        ("0.001", "0.0009"),
        # and x**(2n) from order 91
        ("100", "50"),
    ],
    ids=["table", "powers"],
)
def test_two_state_phase_far_from_unit_delta(tmp_path, delta, x):
    out = tmp_path / "phase.json"
    argv = ["two-state", "phase", "--delta", delta, "--x", x, "--order", "200"]
    assert run(*argv, "--out", str(out)) == 0
    values = report_from_json(out).values
    shift = twostate.delta_e_closed(float(delta), float(x))
    assert abs(values["delta_e_a[phase-recursion]"] - shift) <= 1e-14 * abs(shift)
    assert abs(values["exp_f_b[phase-recursion]"] - values["norm_n[exact]"]) <= 1e-14


def test_two_state_phase_reports_whether_the_recursion_converged(tmp_path):
    out = tmp_path / "phase.json"
    argv = ["two-state", "phase", "--delta", "1", "--x", "0.95", "--order", "30"]
    assert run(*argv, "--out", str(out)) == 0
    assert report_from_json(out).flags == {"converged[phase-recursion]": False}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta, x", [("2", "5e-324"), ("1e300", "1e-30")])
def test_two_state_phase_where_the_coupling_ratio_underflows(tmp_path, delta, x):
    # x / delta rounds to 0: the split is the x = 0 one, with zero residuals
    out = tmp_path / "phase.json"
    assert run("two-state", "phase", "--delta", delta, "--x", x, "--out", str(out)) == 0
    report = report_from_json(out)
    assert report.values["delta_e_a[phase-recursion]"] == 0.0
    assert report.values["norm_n[exact]"] == 1.0
    assert report.residuals == {
        "normalization-identity": 0.0, "rate-balance": 0.0, "shift-quadratic": 0.0
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["exact", "phase"])
@pytest.mark.parametrize(
    "delta, x",
    [("1e300", "5e299"), ("1e-300", "5e-301"), ("1e-160", "5e-161"), ("1e-320", "5e-321")],
    ids=["huge", "tiny", "square-underflows", "subnormal"],
)
def test_two_state_exact_route_far_from_unit_delta(tmp_path, command, delta, x):
    # in absolute units x * x overflows or underflows here, and at 1e-320
    # the shift is subnormal; the closed form and the eigenvector ratio work
    # in units of a power of two, so the normalization is the delta = 1
    # value up to the rounding of the decimal inputs
    out = tmp_path / f"{command}.json"
    assert run("two-state", command, "--delta", delta, "--x", x, "--out", str(out)) == 0
    norm = report_from_json(out).values["norm_n[exact]"]
    unit = twostate.exact_eigensystem(TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.25))
    assert abs(norm - unit.norm_n) <= 4 * math.ulp(unit.norm_n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta, x", [("1e-300", "1"), ("1e-300", "1e10")])
def test_two_state_exact_strong_coupling_at_tiny_delta(tmp_path, delta, x):
    # x / delta is 1e300 or more: the shift is -x and the eigenvectors are
    # the equal mixtures, to every digit
    out = tmp_path / "exact.json"
    assert run("two-state", "exact", "--delta", delta, "--x", x, "--out", str(out)) == 0
    values = report_from_json(out).values
    assert values["delta_e[exact]"] == -float(x)
    assert abs(values["norm_n[exact]"] - math.sqrt(0.5)) <= 2 * math.ulp(math.sqrt(0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["two-state", "compare", "--delta", "0.01", "--x", "0.005", "--eps", "0.01",
         "--order", "200"],
        ["two-state", "sweep-eps", "--delta", "0.01", "--x", "0.005", "--order", "200",
         "--eps-grid", "0.05:0.5:2"],
    ],
    ids=["compare", "sweep-eps"],
)
def test_finite_rate_coefficients_at_small_delta(tmp_path, argv):
    # in absolute units the finite-rate coefficients at delta = 0.01 would
    # leave the range of doubles
    out = tmp_path / "report.json"
    assert run(*argv, "--out", str(out)) == 0
    report = report_from_json(out)
    if argv[1] == "compare":
        cross = [report.values["max_cross_residual"]]
    else:
        cross = column(report.tables[0], "max_cross_residual")
    assert max(cross) <= 1e-9
    assert report.flags["converged[phase-recursion]"] is True


def _compare_at_scale(tmp_path, delta, x_share, eps_share):
    """``two-state compare`` at half-gap ``delta``, x = ``x_share`` * delta and
    eps = ``eps_share`` * delta: the amplitude by route, and the flags."""
    out = tmp_path / f"compare-{delta!r}.json"
    argv = ["two-state", "compare", "--delta", repr(delta), "--x", repr(x_share * delta),
            "--eps", repr(eps_share * delta), "--out", str(out)]
    assert run(*argv) == 0
    report = report_from_json(out)
    (table,) = report.tables
    amps = {row[0]: complex(row[1], row[2]) for row in table.rows}
    return amps, report.flags


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta", [1e-300, 1e-160, 1e200, 1e300])
@pytest.mark.parametrize(
    "x_share, eps_share, phase_converged",
    [(0.5, 1.0, True), (1.5, 0.25, False)],
    ids=["inside-radius", "past-radius"],
)
def test_two_state_compare_is_scale_covariant(
    tmp_path, delta, x_share, eps_share, phase_converged
):
    # scaling delta, x and eps together leaves a(t = 0) as it is; each route
    # works in units of delta or in a rescaled time, so none overflows,
    # underflows or judges its convergence in absolute units
    base, base_flags = _compare_at_scale(tmp_path, 1.0, x_share, eps_share)
    amps, flags = _compare_at_scale(tmp_path, delta, x_share, eps_share)
    assert flags == base_flags
    assert flags["converged[phase-recursion]"] is phase_converged
    for route, value in amps.items():
        assert abs(value - base[route]) <= 1e-12, route


@pytest.mark.parametrize(
    "grid, reached", [("1e300:1e10:2", "inf"), ("1e-5:1e10:40", "inf"),
                      ("1e-300:1e-30:2", "0"), ("inf:0.5:2", "inf")],
    ids=["overflows", "power-overflows", "underflows", "infinite-start"],
)
def test_exit_code_eps_grid_leaves_the_doubles(capsys, grid, reached):
    # refused before the first rate runs: nothing is printed
    assert run("two-state", "sweep-eps", "--eps-grid", grid) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --eps-grid points must be finite positive doubles: "
                            f"{grid!r} reaches {reached}\n")


@pytest.mark.parametrize(
    "command, base, message",
    [
        ("two-state exact", EMBED, "is not a two-state model file"),
        ("n-state oracle", TWO, "is not an n-state model file"),
    ],
    ids=["n-state-file-to-two-state", "two-state-file-to-n-state"],
)
def test_exit_code_model_file_of_the_wrong_kind(tmp_path, capsys, command, base, message):
    path = write_model(tmp_path, base)
    assert run(*command.split(), "--model", str(path)) == 2
    assert capsys.readouterr().err == f"error: {path} {message}\n"


def test_exit_code_gen_without_out(capsys):
    assert run("n-state", "gen", "--seed", "1", "--levels", "3") == 2
    assert capsys.readouterr().err == "error: n-state gen needs --out FILE for the model\n"


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0.5:0.5", "--eps-grid must be start:factor:count, got '0.5:0.5'"),
        ("a:b:c", "--eps-grid must be start:factor:count, got 'a:b:c'"),
        ("0:0.5:4", "--eps-grid values out of range: '0:0.5:4'"),
        ("0.5:0.5:0", "--eps-grid values out of range: '0.5:0.5:0'"),
    ],
    ids=["two-fields", "not-numbers", "zero-start", "zero-count"],
)
def test_exit_code_malformed_eps_grid(capsys, grid, message):
    assert run("two-state", "sweep-eps", "--eps-grid", grid) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_exit_code_integration_failure(monkeypatch, capsys):
    monkeypatch.setattr(ode, "MAX_STEPS", 50)
    assert run("two-state", "evolve", "--eps", "0.05") == 3
    assert capsys.readouterr().err.startswith("error: integration: step budget exhausted")


def test_exit_code_step_budget_estimate_fails_at_once(capsys):
    # about 7.1e6 steps, 1.4x the budget: refused before the first step
    started = time.perf_counter()
    assert run("two-state", "evolve", "--eps", "0.25", "--t-end", "60") == 3
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith(
        "error: integration: step budget exhausted before the start: "
        "about 7.09e+06 steps from t = 2.77259 to 60 exceed the budget of 5000000; "
        "raise tol or move the end earlier\n"
    )


def test_exit_code_n_state_step_budget_estimate_fails_at_once(tmp_path, capsys):
    # about 1.5e8 steps at t_end 80 and 1.2e7 at 70, 30x and 2.5x the
    # budget: refused before the first step
    path = tmp_path / "model.json"
    save_model(generate_nstate_model(seed=7, levels=6), path)
    started = time.perf_counter()
    assert run("n-state", "evolve", "--model", str(path), "--t-end", "80") == 3
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith(
        "error: integration: step budget exhausted before the start: about 1.52e+08 steps "
        "from t = -0.921144 to 80 exceed the budget of 5000000; "
    )
    started = time.perf_counter()
    assert run("n-state", "evolve", "--model", str(path), "--t-end", "70") == 3
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith(
        "error: integration: step budget exhausted before the start: about 1.25e+07 steps "
    )


def test_n_state_basis_start_with_a_gap_far_below_the_coupling(tmp_path, capsys):
    # the coupling at 1e-8 of the gap over x, 1e-338, underflows to 0; the
    # start is formed from the logs, so the run gets to the step budget
    # check, which refuses it, in place of a traceback from log(0)
    path = write_model(tmp_path, energies=[0.0, 1e-300], v_real=[[0.0, 1.0], [1.0, 0.5]],
                       x=1e30)
    assert run("n-state", "evolve", "--model", str(path)) == 3
    assert capsys.readouterr().err.startswith(
        "error: integration: step budget exhausted before the start: about 1.28e+30 steps "
        "from t = -282.845 to 0 "
    )


@pytest.mark.parametrize("group", ["two-state", "n-state"])
def test_exit_code_step_estimate_that_overflows_fails_at_once(tmp_path, capsys, group):
    # at x = 1e308 the coupling x exp(eps t) stays finite over the run, but
    # the angle x ||V|| times the growth over the span overflows: the
    # estimate is inf, over any budget, and the run is refused before its
    # first step instead of stepping toward the budget
    argv = [group, "evolve", "--x", "1e308"]
    if group == "n-state":
        path = tmp_path / "model.json"
        save_model(generate_nstate_model(seed=7, levels=6, x=1e308), path)
        argv = [group, "evolve", "--model", str(path)]
    started = time.perf_counter()
    assert run(*argv) == 3
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith(
        "error: integration: step budget exhausted before the start: about inf steps "
    )


@pytest.mark.parametrize("eps", [1e-200, 5e-324])
def test_exit_code_n_state_dyson_not_finite(tmp_path, capsys, eps):
    # the terms carry (x / eps)**2: past the range of doubles the state is
    # refused, with no overflow warning
    path = tmp_path / "model.json"
    save_model(generate_nstate_model(seed=7, levels=6, eps=eps), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("n-state", "dyson", "--model", str(path)) == 2
    assert capsys.readouterr().err == (
        f"error: second-order Dyson state is not finite at eps = {eps:.6g}: its terms "
        "carry (x / eps)**2; raise eps\n"
    )


def test_exit_code_n_state_oracle_coupling_overflows_without_a_warning(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_model(generate_nstate_model(seed=7, levels=6, x=1e308), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("n-state", "oracle", "--model", str(path)) == 2
    assert capsys.readouterr().err == "error: matrix entries must be finite numbers\n"


def test_exit_code_non_finite_mu(capsys):
    assert run("two-state", "exact", "--mu", "nan") == 2
    assert "mu must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--levels", "1"], ["--gap", "-1"], ["--vscale", "nan"]],
    ids=["one-level", "negative-gap", "nan-vscale"],
)
def test_exit_code_gen_domain_errors(tmp_path, capsys, flags):
    out = tmp_path / "model.json"
    argv = ["--seed", "1", "--levels", "3", *flags, "--out", str(out)]
    assert run("n-state", "gen", *argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "1", "10", "inf", "nan"])
@pytest.mark.parametrize("command", ["two-state compare", "n-state evolve"])
def test_exit_code_tol_outside_unit_interval(tmp_path, capsys, command, tol):
    # from tol 1 up error control is off: at tol 10 the runs would report
    # |a(0)| of 5.9e10 (two levels) and a final norm of 4.3e7 (six levels)
    argv = command.split()
    if argv[0] == "n-state":
        path = tmp_path / "gen.json"
        save_model(generate_nstate_model(seed=7, levels=6), path)
        argv += ["--model", str(path)]
    assert run(*argv, "--tol", tol) == 2
    assert capsys.readouterr().err == f"error: tol must be in (0, 1), got {float(tol)}\n"
    assert run(*argv, "--tol", "0.5") == 0


@pytest.mark.parametrize(
    "argv, model, message",
    [
        (["n-state", "oracle"], [1, 2], "top level must be a JSON object"),
        (["n-state", "oracle"], {**EMBED, "energies": [1.0], "v_real": [[0.0]],
                                 "v_imag": [[0.0]]},
         "energies must be a 1-d sequence of length >= 2"),
        (["n-state", "oracle"], {**EMBED, "energies": [[-1.0, 1.0]]},
         "energies must be a 1-d sequence of length >= 2"),
        (["n-state", "oracle"], {**EMBED, "x": 0.0}, "coupling x must be > 0, got 0.0"),
        (["n-state", "oracle"], {**EMBED, "eps": -0.1},
         "switching rate eps must be > 0, got -0.1"),
        (["n-state", "split", "--order", "0"], EMBED, "order must be >= 1, got 0"),
        (["n-state", "recursion", "--order", "0"], EMBED, "order must be >= 1, got 0"),
        (["two-state", "phase", "--order", "0"], None, "order must be >= 1, got 0"),
        (["two-state", "compare", "--order", "0"], None, "order must be >= 1, got 0"),
        (["two-state", "series", "--eps", "1e-160"], None,
         "squared ramped coupling over the rate (x * exp(eps * t) / eps)**2 overflows "
         "at t = 0; raise eps or move t earlier"),
        # a NaN time is not a number, not an overflow
        (["two-state", "evolve", "--t-end", "nan"], None,
         "t_end is not a number, got nan"),
        (["two-state", "compare", "--t", "nan"], None, "t is not a number, got nan"),
        (["n-state", "evolve", "--t-end", "nan"], EMBED,
         "t_end is not a number, got nan"),
        # no run can start before an infinite end, or end at it
        (["two-state", "evolve", "--t-end", "inf"], None, "t_end must be finite, got inf"),
        (["two-state", "evolve", "--t-end=-inf"], None, "t_end must be finite, got -inf"),
        (["two-state", "compare", "--t=-inf"], None, "t must be finite, got -inf"),
        (["n-state", "evolve", "--t-end", "inf"], EMBED, "t_end must be finite, got inf"),
        (["n-state", "evolve", "--t-end=-inf"], EMBED, "t_end must be finite, got -inf"),
        # the two-state start ln(100) / eps before the end rounds to the end
        (["two-state", "evolve", "--t-end=-1e300"], None,
         "end time -1e+300 is so far in the past that a start ln(100) / eps before "
         "it rounds to it; move the end time later"),
        (["two-state", "compare", "--t=-1e300"], None,
         "end time -1e+300 is so far in the past that a start ln(100) / eps before "
         "it rounds to it; move the end time later"),
        # a rate so slow that the start a multiple of 1 / eps before the end,
        # or f / eps, is not a finite number is refused in terms of eps
        (["two-state", "evolve", "--eps", "5e-324"], None,
         "switching rate eps = 4.94066e-324 is too small: the start of stepping is "
         "not a finite time; raise eps"),
        (["two-state", "compare", "--eps", "1e-306"], None,
         "switching rate eps = 1e-306 is too small: the start of stepping is not a "
         "finite time; raise eps"),
        (["two-state", "compare", "--eps", "1e-310"], None,
         "switching rate eps = 1e-310 is too small: the divergent phase f / eps is "
         "not a finite number; raise eps"),
        (["two-state", "sweep-eps", "--eps-grid", "1e-306:0.5:2"], None,
         "switching rate eps = 1e-306 is too small: the start of stepping is not a "
         "finite time; raise eps"),
        (["n-state", "evolve"], {**EMBED, "eps": 5e-324},
         "switching rate eps = 4.94066e-324 is too small: the start of stepping is "
         "not a finite time; raise eps"),
    ],
    ids=["top-level-list", "one-level", "energies-2d", "n-state-x-zero",
         "n-state-eps-negative", "n-state-split-order-0", "n-state-recursion-order-0",
         "two-state-phase-order-0", "two-state-compare-order-0",
         "two-state-series-argument-overflow", "two-state-evolve-t-end-nan",
         "two-state-compare-t-nan", "n-state-evolve-t-end-nan",
         "two-state-evolve-t-end-inf", "two-state-evolve-t-end-minus-inf",
         "two-state-compare-t-minus-inf", "n-state-evolve-t-end-inf",
         "n-state-evolve-t-end-minus-inf",
         "two-state-evolve-far-past", "two-state-compare-far-past",
         "two-state-evolve-subnormal-eps", "two-state-compare-tiny-eps",
         "two-state-compare-subnormal-eps", "two-state-sweep-eps-tiny-eps",
         "n-state-evolve-subnormal-eps"],
)
def test_exit_code_refusals(tmp_path, capsys, argv, model, message):
    if model is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        argv = [*argv, "--model", str(path)]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda path: emit(RunReport("demo"), "xml", path), ValueError,
         "unknown format 'xml'"),
        (lambda path: model_to_dict(object()), TypeError, "unsupported model type"),
    ],
    ids=["emit-xml", "model-to-dict-object"],
)
def test_report_and_model_io_refusals(tmp_path, call, error, message):
    path = tmp_path / "report.xml"
    with pytest.raises(error, match=message):
        call(path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# subcommand behavior


def test_compare_reports_small_residuals(tmp_path):
    out = tmp_path / "compare.json"
    assert (
        run(
            "two-state", "compare",
            "--delta", "1", "--x", "0.5", "--eps", "0.25", "--t", "0",
            "--out", str(out),
        )
        == 0
    )
    report = report_from_json(out)
    assert report.values["max_cross_residual"] <= 1e-6
    methods = [row[0] for row in report.tables[0].rows]
    assert methods == ["ode", "bessel-series", "phase-recursion"]


def test_sweep_eps_verdicts_computed(tmp_path):
    out = tmp_path / "sweep.json"
    assert (
        run(
            "two-state", "sweep-eps",
            "--delta", "1", "--x", "0.5",
            "--eps-grid", "0.5:0.5:4",
            "--out", str(out),
        )
        == 0
    )
    report = report_from_json(out)
    assert report.flags["max_term_monotone_increasing"] is True
    assert report.flags["ode_error_monotone_decreasing"] is True
    eps_column = column(report.tables[0], "eps")
    np.testing.assert_allclose(eps_column, [0.5, 0.25, 0.125, 0.0625])


@pytest.mark.parametrize("eps", [0.2, 0.05, 0.0125, 0.003125])
def test_compare_flags_converged_phase_recursion(tmp_path, eps):
    out = tmp_path / "compare.json"
    assert (
        run(
            "two-state", "compare",
            "--delta", "1", "--x", "0.5", "--eps", repr(eps), "--t", "0",
            "--out", str(out),
        )
        == 0
    )
    assert report_from_json(out).flags["converged[phase-recursion]"] is True


def test_sweep_eps_flags_phase_recursion_past_its_reach(tmp_path):
    # x = 1.5 is past the radius x = delta of the shift series: at eps
    # 0.125 and 0.0625 the phase recursion's amplitude is finite but wrong
    out = tmp_path / "sweep.json"
    assert run("two-state", "sweep-eps", "--x", "1.5", "--out", str(out)) == 0
    report = report_from_json(out)
    assert report.flags["converged[phase-recursion]"] is False
    cross = column(report.tables[0], "max_cross_residual")
    assert cross[2] > 0.8 and cross[3] > 0.8


@pytest.mark.parametrize(
    "x, verdicts",
    [("0.9", [True, True, False, False]), ("1.5", [False] * 4)],
    ids=["x0.9", "x1.5"],
)
def test_sweep_eps_reports_phase_recursion_verdict_per_row(tmp_path, x, verdicts):
    out = tmp_path / "sweep.json"
    assert run("two-state", "sweep-eps", "--x", x, "--out", str(out)) == 0
    report = report_from_json(out)
    assert column(report.tables[0], "converged[phase-recursion]") == verdicts
    assert report.flags["converged[phase-recursion]"] is all(verdicts)


@pytest.mark.parametrize(
    "grid, verdicts",
    [("0.05:0.25:3", [True, True, False]), ("0.5:0.5:4", [True] * 4)],
    ids=["truncated-at-0.003125", "default-grid"],
)
def test_sweep_eps_reports_bessel_series_verdict_per_row(tmp_path, grid, verdicts):
    # at eps = 0.003125 the terms peak near 4.3e7, so cancellation leaves
    # about 1e-8 of rounding: the series runs to its own stop and is
    # flagged, and max_cross_residual carries only that rounding
    out = tmp_path / "sweep.json"
    argv = ["two-state", "sweep-eps", "--delta", "1", "--x", "0.5", "--eps-grid", grid]
    assert run(*argv, "--out", str(out)) == 0
    report = report_from_json(out)
    table = report.tables[0]
    assert table.columns == [
        "eps",
        "max_term_magnitude[bessel-series]",
        "abs_a0[ode]",
        "abs_a0_error_vs_limit[ode]",
        "max_cross_residual",
        "converged[bessel-series]",
        "converged[phase-recursion]",
    ]
    assert column(table, "converged[bessel-series]") == verdicts
    assert report.flags["converged[bessel-series]"] is all(verdicts)
    assert column(table, "converged[phase-recursion]") == [True] * len(verdicts)
    if not all(verdicts):
        assert column(table, "max_cross_residual")[-1] <= 3e-8


def test_trajectory_csv_schema(tmp_path):
    out = tmp_path / "traj.csv"
    assert (
        run(
            "two-state", "evolve", "--x", "0.5", "--eps", "0.25",
            "--tol", "1e-8", "--out", str(out), "--format", "csv",
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_a,im_a,re_c,im_c,norm"
    first = [float(cell) for cell in lines[1].split(",")]
    # the first row is the switch-on tail state two decades of the ramp
    # before the end, where the coupling is 1e-2 of its value there, its c
    # turned back from the tracked frame
    t0 = first[0]
    lam = twostate.ramped_coupling(0.5, 0.25, t0)
    assert lam == pytest.approx(5e-3, rel=1e-13)
    ramp = Ramp((0.0, 2.0), [[0.0, 1.0], [1.0, 0.0]], 0.5, 0.25)
    a, c = ramp.tail(lam, 1e-8)[:, 0]
    assert complex(first[1], first[2]) == a
    assert complex(first[3], first[4]) == pytest.approx(c * np.exp(2j * t0), rel=1e-15)
    assert first[5] == pytest.approx(1.0, abs=1e-12)


def test_trajectory_table_rows_are_the_trajectory(tmp_path):
    # reference: one row per time, built element by element
    path, out = write_model(tmp_path, EMBED), tmp_path / "traj.json"
    assert run("n-state", "evolve", "--model", str(path), "--t-end", "-2",
               "--out", str(out)) == 0
    traj = nstate.evolve_nstate(load_model(path), -2.0, 1e-10)
    expected = [
        [float(t), *(float(part) for z in state for part in (z.real, z.imag)),
         float(norm)]
        for t, state, norm in zip(traj.times, traj.states, traj.norms())
    ]
    assert report_from_json(out).tables[0].rows == expected


def test_n_state_oracle_on_embed_file(tmp_path, capsys):
    path = tmp_path / "embed.json"
    path.write_text(
        json.dumps(
            {
                "kind": "n-state",
                "energies": [-1.0, 1.0],
                "v_real": [[0.0, 1.0], [1.0, 0.0]],
                "v_imag": [[0.0, 0.0], [0.0, 0.0]],
                "x": 0.5,
                "eps": 0.25,
            }
        )
    )
    assert run("n-state", "oracle", "--model", str(path)) == 0
    assert "-0.118033988749894" in capsys.readouterr().out


def test_n_state_oracle_accepts_the_perturbation_the_loader_accepted(tmp_path):
    # V's anti-Hermitian part 5e-12 passes at V's scale (limit 1e-11); H has
    # largest entry 1 (limit 1e-12), so H built from V as given would fail
    path = write_model(
        tmp_path,
        energies=[-10.0, 11.0],
        v_real=[[10.0, 0.001], [0.001, -10.0]],
        v_imag=[[0.0, 5e-12], [0.0, 0.0]],
        x=1.0,
    )
    out = tmp_path / "oracle.json"
    for command in ("compare", "oracle"):
        assert run("n-state", command, "--model", str(path), "--out", str(out)) == 0
    model = load_model(path)
    exact = np.linalg.eigvalsh(model.hamiltonian())[0] - model.ground_energy
    shift = report_from_json(out).values["shift[oracle]"]
    assert shift == pytest.approx(exact, rel=1e-15, abs=0)
    assert shift == pytest.approx(9.999999, rel=1e-7)


def test_two_state_model_file_replaces_inline_flags(tmp_path):
    path = write_model(tmp_path, TWO, mu=0.1, delta=1.5, x=0.4, eps=0.2)
    out = tmp_path / "exact.json"
    argv = ["--model", str(path), "--delta", "9", "--x", "9", "--out", str(out)]
    assert run("two-state", "exact", *argv) == 0
    report = report_from_json(out)
    assert report.parameters == {
        "model": str(path), "mu": 0.1, "delta": 1.5, "x": 0.4, "eps": 0.2
    }
    es = twostate.exact_eigensystem(TwoStateModel(mu=0.1, delta=1.5, x=0.4, eps=0.2))
    assert report.values["delta_e[exact]"] == es.delta_e
    assert report.values["e0[exact]"] == es.e0


def test_two_state_series_report_is_the_library_result(tmp_path):
    out = tmp_path / "series.json"
    argv = ["--delta", "1", "--x", "0.5", "--eps", "0.1", "--t", "-0.5"]
    assert run("two-state", "series", *argv, "--out", str(out)) == 0
    report = report_from_json(out)
    model = TwoStateModel(mu=0.0, delta=1.0, x=0.5, eps=0.1)
    result = twostate.bessel_series_a(model, -0.5)
    assert report.values == {
        "a_re[bessel-series]": result.value.real,
        "a_im[bessel-series]": result.value.imag,
        "max_term_magnitude[bessel-series]": result.max_term,
    }
    assert report.flags == {"converged[bessel-series]": result.converged}
    (table,) = report.tables
    assert table.rows == [[k, m] for k, m in enumerate(result.term_magnitudes.tolist(), 1)]


def test_long_tables_are_summarized_on_stdout_but_saved_whole(tmp_path, capsys):
    # at eps 1e-4 the series runs 403 terms, up to its 1e250 gate
    out = tmp_path / "series.json"
    argv = ["--delta", "1", "--x", "0.5", "--eps", "1e-4", "--out", str(out)]
    assert run("two-state", "series", *argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) < 20
    assert "table series-terms: 403 rows (use --out to save)" in printed
    (table,) = report_from_json(out).tables
    assert len(table.rows) == 403


@pytest.mark.parametrize("eps", ["0.25", "0.003125"])
def test_two_state_series_equals_compare_bessel_row(tmp_path, eps):
    # both sum the series to its own stop, so they report the same bits
    argv = ["--delta", "1", "--x", "0.5", "--eps", eps]
    series, compare = tmp_path / "series.json", tmp_path / "compare.json"
    assert run("two-state", "series", *argv, "--out", str(series)) == 0
    assert run("two-state", "compare", *argv, "--out", str(compare)) == 0
    values = report_from_json(series).values
    (row,) = [r for r in report_from_json(compare).tables[0].rows if r[0] == "bessel-series"]
    assert row[1:3] == [values["a_re[bessel-series]"], values["a_im[bessel-series]"]]


def test_n_state_dyson_table_is_the_library_state(tmp_path):
    path, out = write_model(tmp_path), tmp_path / "dyson.json"
    assert run("n-state", "dyson", "--model", str(path), "--t", "-1", "--out", str(out)) == 0
    (table,) = report_from_json(out).tables
    state = nstate.dyson2(load_model(path), -1.0)
    assert table.columns == ["component", "re[dyson2]", "im[dyson2]", "abs[dyson2]"]
    assert table.rows == [
        [k, float(z.real), float(z.imag), float(abs(z))] for k, z in enumerate(state)
    ]


def test_n_state_oracle_csv_holds_the_shift(tmp_path):
    path, out = write_model(tmp_path), tmp_path / "oracle.csv"
    argv = ["--model", str(path), "--format", "csv", "--out", str(out)]
    assert run("n-state", "oracle", *argv) == 0
    header, value = out.read_text().splitlines()
    assert header == "shift[oracle]"
    assert float(value) == nstate.oracle_shift(load_model(path))


def test_n_state_recursion_prints_sign_note(tmp_path, capsys):
    path = tmp_path / "embed.json"
    path.write_text(
        json.dumps(
            {
                "kind": "n-state",
                "energies": [-1.0, 1.0],
                "v_real": [[0.0, 1.0], [1.0, 0.0]],
                "v_imag": [[0.0, 0.0], [0.0, 0.0]],
                "x": 0.5,
                "eps": 0.25,
            }
        )
    )
    assert run("n-state", "recursion", "--model", str(path), "--order", "2") == 0
    out = capsys.readouterr().out
    assert "-0.5" in out
    assert "sign" in out


def test_n_state_recursion_slopes_are_first_order_jets(tmp_path):
    path, out = write_model(tmp_path), tmp_path / "recursion.json"
    assert run("n-state", "recursion", "--model", str(path), "--out", str(out)) == 0
    rows = np.array(report_from_json(out).tables[0].rows)
    # the columns are slopes in the rate: 1j times the slopes in s
    slopes = 1j * nstate.rs_recursion(load_model(path), 8, 1)[0][:, 1]
    np.testing.assert_array_equal(rows[:, 3], slopes.real)
    np.testing.assert_array_equal(rows[:, 4], slopes.imag)
    assert np.any(rows[:, 3:5] != 0.0)
    assert not np.signbit(rows[:, 3]).any()


def test_two_state_phase_builds_one_table(monkeypatch):
    calls, gtilde_table = [], twostate.gtilde_table

    def counted(*args, **kwargs):
        calls.append(args)
        return gtilde_table(*args, **kwargs)

    monkeypatch.setattr(twostate, "gtilde_table", counted)
    assert run("two-state", "phase", "--order", "40") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["recursion", "split", "assemble", "compare"])
def test_n_state_commands_run_one_first_order_recursion(tmp_path, monkeypatch, command):
    jet_orders, rs_recursion = [], nstate.rs_recursion

    def counted(model, order, jet_order, *args, **kwargs):
        jet_orders.append(jet_order)
        return rs_recursion(model, order, jet_order, *args, **kwargs)

    monkeypatch.setattr(nstate, "rs_recursion", counted)
    assert run("n-state", command, "--model", str(write_model(tmp_path))) == 0
    assert jet_orders == [1]


# ---------------------------------------------------------------------------
# determinism and serialization


def test_gen_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert (
            run("n-state", "gen", "--seed", "7", "--levels", "6", "--out", str(path))
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_identical_command_lines_emit_identical_json(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["two-state", "compare", "--delta", "1", "--x", "0.5", "--eps", "0.25"]
    assert run(*argv, "--out", str(a)) == 0
    assert run(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("n-state", "gen", "--seed", "7", "--levels", "6", "--out", str(a))
    run("n-state", "gen", "--seed", "8", "--levels", "6", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_report_json_round_trip(tmp_path):
    report = RunReport(
        command="demo",
        parameters={"x": 0.5, "label": "run"},
        tables=[Table("t", ["a", "b"], [[1.0, -2.5e-17], [0.1 + 0.2, 3]])],
        values={"v[ode]": 0.123456789012345678},
        residuals={"r": 1e-300},
        flags={"ok": True},
    )
    path = tmp_path / "report.json"
    emit(report, "json", path)
    loaded = report_from_json(path)
    assert loaded == report
    emit(loaded, "json", tmp_path / "second.json")
    assert (tmp_path / "second.json").read_bytes() == path.read_bytes()


def test_emit_csv_empty_table(tmp_path):
    report = RunReport(command="demo", tables=[Table("t", ["a", "b"], [])])
    path = tmp_path / "empty.csv"
    emit(report, "csv", path)
    assert path.read_text() == "a,b\n"


def test_emit_csv_two_tables(tmp_path):
    # each table after a "# table:" line, the tables apart by one blank line
    report = RunReport(
        command="demo",
        tables=[Table("first", ["a", "b"], [[1, 0.5]]), Table("second", ["c"], [[True], [2.5]])],
    )
    path = tmp_path / "two.csv"
    emit(report, "csv", path)
    assert path.read_text() == "# table: first\na,b\n1,0.5\n\n# table: second\nc\nTrue\n2.5\n"


def test_emit_csv_full_precision(tmp_path):
    value = 0.1234567890123456789
    report = RunReport(command="demo", tables=[Table("t", ["v"], [[value]])])
    path = tmp_path / "prec.csv"
    emit(report, "csv", path)
    assert float(path.read_text().splitlines()[1]) == value


def test_model_dict_is_json_natural():
    model = generate_nstate_model(seed=2, levels=3)
    d = model_to_dict(model)
    assert json.loads(json.dumps(d)) == d


# ---------------------------------------------------------------------------
# command-line surface

# flag -> (type, default, choices, required), per subcommand
_OUTPUT = {"--out": (None, None, None, False), "--format": (None, "json", ("csv", "json"), False)}
_TWO_MODEL = {
    "--model": (None, None, None, False),
    "--mu": (float, 0.0, None, False),
    "--delta": (float, 1.0, None, False),
    "--x": (float, 0.5, None, False),
    "--eps": (float, 0.25, None, False),
}
_N_MODEL = {"--model": (None, None, None, False)}
_TOL = {"--tol": (float, 1e-10, None, False)}
_EVOLVE = {"--t-end": (float, 0.0, None, False), **_TOL}
_ORDER = {"--order": (int, 30, None, False)}
_T = {"--t": (float, 0.0, None, False)}
EXPECTED_FLAGS = {
    ("two-state", "exact"): {**_TWO_MODEL, **_OUTPUT},
    ("two-state", "evolve"): {**_TWO_MODEL, **_OUTPUT, **_EVOLVE},
    ("two-state", "series"): {**_TWO_MODEL, **_OUTPUT, **_T},
    ("two-state", "phase"): {**_TWO_MODEL, **_OUTPUT, **_ORDER},
    ("two-state", "compare"): {
        **_TWO_MODEL, **_OUTPUT, **_T, **_TOL, "--order": (int, 30, None, False),
    },
    ("two-state", "sweep-eps"): {
        **_TWO_MODEL, **_OUTPUT, "--eps-grid": (None, "0.5:0.5:4", None, False),
        **_TOL, "--order": (int, 30, None, False),
    },
    ("n-state", "dyson"): {**_N_MODEL, **_OUTPUT, **_T},
    ("n-state", "recursion"): {**_N_MODEL, **_OUTPUT, "--order": (int, 8, None, False)},
    ("n-state", "split"): {**_N_MODEL, **_OUTPUT, **_ORDER},
    ("n-state", "assemble"): {**_N_MODEL, **_OUTPUT, **_ORDER},
    ("n-state", "evolve"): {**_N_MODEL, **_OUTPUT, **_EVOLVE},
    ("n-state", "oracle"): {**_N_MODEL, **_OUTPUT},
    ("n-state", "compare"): {**_N_MODEL, **_OUTPUT, "--order": (int, 12, None, False), **_TOL},
    ("n-state", "gen"): {
        "--out": (None, None, None, False),
        "--seed": (int, None, None, True),
        "--levels": (int, None, None, True),
        "--gap": (float, 1.0, None, False),
        "--vscale": (float, 1.0, None, False),
        "--x": (float, None, None, False),
        "--eps": (float, 0.25, None, False),
    },
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_parser_surface():
    # every subcommand's flags: option strings, type, default, choices,
    # required; batch takes the one positional FILE and no flag
    seen = {}
    # a copy: the parser is shared by every later call in the process
    groups = dict(_subparsers(build_parser()))
    batch = groups.pop("batch")
    assert [(a.dest, a.option_strings, a.required) for a in batch._actions
            if not isinstance(a, argparse._HelpAction)] == [("file", [], True)]
    for group, group_parser in groups.items():
        for command, parser in _subparsers(group_parser).items():
            flags = {}
            for action in parser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                (option,) = action.option_strings
                choices = tuple(action.choices) if action.choices else None
                flags[option] = (action.type, action.default, choices, action.required)
            seen[(group, command)] = flags
    assert seen == EXPECTED_FLAGS


@pytest.mark.parametrize("command", ["series", "compare", "sweep-eps"])
def test_bessel_series_commands_take_no_terms(capsys, command):
    # the Bessel series stops by its own rule; no flag caps it
    with pytest.raises(SystemExit) as exc:
        main(["two-state", command, "--terms", "60"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --terms 60" in capsys.readouterr().err


def test_n_state_evolve_takes_no_start_threshold(capsys):
    # the basis start is fixed at nstate.START_THRESHOLD of the smallest gap
    with pytest.raises(SystemExit) as exc:
        main(["n-state", "evolve", "--start-threshold", "1e-8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --start-threshold 1e-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["two-state", "sweep-eps", "--t", "0.5"], ["two-state", "evolve", "--t-e", "-3"],
     ["n-state", "evolve", "--start", "1e-6"]],
    ids=["sweep-eps-t", "evolve-t-e", "n-state-evolve-start"],
)
def test_abbreviated_flags_are_refused(capsys, argv):
    # no flag is expanded from a prefix: sweep-eps has no --t, which would
    # otherwise set its --tol
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err


# every float flag of every subcommand
FLOAT_FLAGS = sorted((*key, flag) for key, flags in EXPECTED_FLAGS.items()
                     for flag, (kind, *_) in flags.items() if kind is float)


@pytest.mark.parametrize("spelling", ["-2.5e1", "-1E1", "-1e-3", "-.5e+2", "-2.5", "-inf"])
@pytest.mark.parametrize("group, command, flag", FLOAT_FLAGS)
def test_negative_float_values_parse_in_every_spelling(group, command, flag, spelling):
    # argparse's own negative-number pattern takes no exponent and no inf on
    # Python 3.10 to 3.13; the value is the float of its spelling
    argv = [group, command, flag, spelling]
    if command == "gen":
        argv += ["--seed", "1", "--levels", "2"]
    assert getattr(_parse(argv), flag[2:].replace("-", "_")) == float(spelling)


@pytest.mark.parametrize(
    "argv",
    [["two-state", "evolve", "--t-end", "-2.5e1"], ["two-state", "compare", "--mu", "-1e-3"],
     ["two-state", "compare", "--t", "-1E1"], ["n-state", "evolve", "--t-end", "-1e1"]],
    ids=["two-state-evolve-t-end", "two-state-compare-mu", "two-state-compare-t",
         "n-state-evolve-t-end"],
)
def test_negative_exponent_values_run_as_their_joined_form(tmp_path, capsys, argv):
    # a separate value and the --flag=value form run the same command, alone
    # and as a batch line
    if argv[0] == "n-state":
        argv = [*argv, "--model", str(write_model(tmp_path))]
    joined = [*argv[:2], f"{argv[2]}={argv[3]}", *argv[4:]]
    assert main(joined) == 0
    expected = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    lines = tmp_path / "lines.txt"
    lines.write_text(json.dumps(argv) + "\n", encoding="utf-8")
    assert main(["batch", str(lines)]) == 0
    assert capsys.readouterr() == (expected, "")


def test_a_flag_after_a_float_flag_stays_a_flag(capsys):
    # only a value that float accepts is joined to the flag before it
    with pytest.raises(SystemExit) as exc:
        main(["two-state", "evolve", "--t-end", "--tol", "1e-8"])
    assert exc.value.code == 2
    assert "argument --t-end: expected one argument" in capsys.readouterr().err


def test_values_after_a_bare_double_dash_are_not_joined(capsys):
    # after --, every token is a positional: batch takes --t as its file and
    # refuses the second, where a joined --t=-1e1 would be one file name
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--", "--t", "-1e1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: -1e1\n")


@pytest.mark.parametrize(
    "command",
    sorted(" ".join(key) for key, flags in EXPECTED_FLAGS.items() if "--format" in flags),
)
def test_every_csv_report_has_a_header_and_a_row(tmp_path, command):
    out = tmp_path / "report.csv"
    argv = [*command.split(), "--format", "csv", "--out", str(out)]
    if command.startswith("n-state"):
        argv += ["--model", str(write_model(tmp_path))]
    assert run(*argv) == 0
    for block in out.read_text().split("\n\n"):
        lines = [line for line in block.splitlines() if not line.startswith("# table: ")]
        assert len(lines) >= 2, block


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch):
    # one tree is 18 parsers: the root, two groups, 14 subcommands and batch
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    model = tmp_path / "gen.json"
    calls = [
        (["two-state", "phase", "--order", "20"], 0),
        (["n-state", "gen", "--seed", "1", "--levels", "3", "--out", str(model)], 0),
        (["n-state", "oracle", "--model", str(model)], 0),
        (["n-state", "split"], 2),  # domain error: no --model
    ]
    per_call = []
    for argv, code in calls:
        before = len(built)
        assert main(argv) == code
        per_call.append(len(built) - before)
    before = len(built)
    with pytest.raises(SystemExit) as exc:
        main(["two-state", "phase", "--order", "abc"])
    assert exc.value.code == 2
    per_call.append(len(built) - before)
    assert sum(per_call) <= 18
    assert per_call[1:] == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "first, second",
    [
        (["two-state", "phase", "--delta", "2", "--x", "0.7", "--eps", "0.1",
          "--order", "40", "--format", "csv"],
         ["two-state", "phase"]),
        (["n-state", "recursion", "--order", "3", "--format", "csv"],
         ["n-state", "recursion"]),
    ],
    ids=["two-state-phase", "n-state-recursion"],
)
def test_back_to_back_calls_match_a_fresh_process(tmp_path, capsys, first, second):
    # a call with non-default flags leaves nothing behind for the next one
    model = write_model(tmp_path)
    if first[0] == "n-state":
        first, second = [*first, "--model", str(model)], [*second, "--model", str(model)]
    assert main([*first, "--out", str(tmp_path / "first.csv")]) == 0
    capsys.readouterr()
    code = main([*second, "--out", str(tmp_path / "in_process.json")])
    stdout = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    fresh = subprocess.run(
        [sys.executable, "-m", "adiabatic_lab.cli", *second,
         "--out", str(tmp_path / "fresh.json")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (code, stdout) == (fresh.returncode, fresh.stdout)
    assert (tmp_path / "in_process.json").read_bytes() == (
        tmp_path / "fresh.json"
    ).read_bytes()


def test_cli_imports_no_scipy_or_mpmath(tmp_path):
    # the ODE tableau is typed in: numpy is the only runtime dependency
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, adiabatic_lab.cli; "
        "print(sorted(n for n in sys.modules if n.split('.')[0] in ('scipy', 'mpmath')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
