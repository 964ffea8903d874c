"""Tests of the benchmark itself (about three minutes on two cores):

    python3 -m pytest bench/selftest.py -q

Every workload passes all of its checks on the default seed and on a
held-out one; the counts of two traced runs repeat exactly; the traced run
bears out why each workload was chosen; a wrong oracle value fails the run;
and without the program's sources the runner fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 977
COUNTS = (
    "numkit.ode.calls", "numkit.ode.accepted_steps", "numkit.ode.rejected_steps",
    "numkit.ode.rhs_calls", "numkit.eig.calls", "numkit.jets.mul_calls",
    "numkit.jets.recip_calls", "twostate.gtilde_table.calls",
    "twostate.bessel_series_a.terms", "nstate.rs_recursion.calls", "cli.commands",
)


def _run(cwd, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(workload, seed, trace):
    proc = _run(ROOT, workload, seed, trace)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    return {k: m["value"] for k, m in result["metrics"].items()}


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_passes_every_check(workload):
    metrics = _result(workload, HELD_OUT_SEED, 0)
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_bear_out_the_workload(workload):
    first = _result(workload, DEFAULT_SEED, 1)
    second = _result(workload, DEFAULT_SEED, 1)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["cli.commands"] > 0
    if workload == "slow-switch":
        assert first["numkit.ode.busy_s"] > 0.5 * first["cli.busy_s"]
        assert first["numkit.jets.mul_calls"] == 0
    if workload == "high-order-phase":
        table = first["numkit.jets.busy_s"] + first["twostate.gtilde_table.self_s"]
        assert table > 0.5 * first["cli.busy_s"]
        assert first["numkit.ode.calls"] == 0
        # each gtilde_table(200) makes sum(n, n = 2..200) products
        assert first["numkit.jets.mul_calls"] == 20_099 * first["twostate.gtilde_table.calls"]
    if workload == "many-level":
        assert first["numkit.eig.calls"] > 0 and first["numkit.eig.max_n"] == 64
    else:
        assert first["numkit.eig.calls"] == 0
    assert first["trace.overhead_s"] != 0.0
    assert first["default_blas.wall_s"] > 0 and first["default_blas.cpu_s"] > 0


def _off_a0(oracle):
    oracle["a0"] = [[re * (1 + 1e-5), im * (1 + 1e-5)] for re, im in oracle["a0"]]


def _off_ratio_ode(oracle):
    for model in oracle["models"]:
        model["ratio_ode"] = [r * (1 + 1e-3) for r in model["ratio_ode"]]


def _off_f_a(oracle):
    for point in oracle["points"]:
        point["f_a"] *= 1 + 1e-9


# One oracle field per workload, off by more than its check's tolerance:
# the workload, the change, the subcommand whose reports fail, and the check
# that must name the error. a0 and ratio_ode are held to ODE_TOL, f_a to
# ALGEBRA_TOL.
WRONG_ORACLES = [
    ("slow-switch", _off_a0, "compare", "a0[ode]"),
    ("many-level", _off_ratio_ode, "compare", "ratio[ode]"),
    ("high-order-phase", _off_f_a, "phase", "f_a"),
]


@pytest.mark.parametrize("workload, corrupt, failing, check", WRONG_ORACLES,
                         ids=[w[0] for w in WRONG_ORACLES])
def test_a_wrong_oracle_value_fails_the_commands_it_checks(workload, corrupt, failing,
                                                           check, tmp_path):
    import adiabatic_lab.cli as cli

    inputs = workloads.make_inputs(workload, DEFAULT_SEED)
    oracle = run.load_oracle(workload, DEFAULT_SEED)
    corrupt(oracle)
    items = workloads.commands(workload, inputs, tmp_path)
    client = run.Client(workload, oracle, items, cli.main)
    client.run(items)
    flat = [cmd for item in items for cmd in item]
    assert client.attempted == len(flat)
    assert client.failed == sum(cmd.key[0] == failing for cmd in flat) > 0
    assert any(check in p for p in client.problems)


def test_without_the_sources_the_runner_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "slow-switch", DEFAULT_SEED, 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
