"""``adiabatic-lab batch``: many commands in one process, one JSON array of
argv strings per line, each line's report the same bytes as the command
run alone."""

import io
import json
import os
import sys

import pytest

from adiabatic_lab import modelio, nstate
from adiabatic_lab.cli import main

# the shape of the benchmark's three command lists: four two-state compare
# rates; n-state gen models at 8 to 64 levels, each with the four n-state
# routes; and three two-state phase couplings at order 200
SLOW_EPS = ("0.2", "0.05", "0.0125", "0.003125")
LEVELS = (8, 16, 32, 64)
PHASE_X = ("0.31", "0.57", "0.84")


def slow_switch():
    return [["two-state", "compare", "--delta", "1.0", "--x", "0.5", "--eps", eps,
             "--t", "0", "--out", f"compare-{i}.json"] for i, eps in enumerate(SLOW_EPS)]


def many_level():
    lines = []
    for i, n in enumerate(LEVELS):
        model = f"model-{i}.json"
        lines.append(["n-state", "gen", "--seed", str(i + 1), "--levels", str(n),
                      "--out", model])
        for sub in ("split", "assemble", "oracle", "compare"):
            argv = ["n-state", sub, "--model", model, "--out", f"{sub}-{i}.json"]
            lines.append(argv if sub == "oracle" else [*argv, "--order", "30"])
    return lines


def high_order_phase():
    return [["two-state", "phase", "--delta", "1.0", "--x", x, "--order", "200",
             "--out", f"phase-{i}.json"] for i, x in enumerate(PHASE_X)]


def write_batch(path, lines):
    path.write_text("".join(json.dumps(argv) + "\n" for argv in lines), encoding="utf-8")
    return path


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("command_list", [slow_switch, many_level, high_order_phase])
def test_batch_reports_are_the_one_shot_bytes(tmp_path, monkeypatch, capsys, command_list):
    lines = command_list()
    # relative paths: the reports echo --model, so both runs name the same files
    alone, batched = tmp_path / "alone", tmp_path / "batched"
    alone.mkdir()
    batched.mkdir()
    monkeypatch.chdir(alone)
    for argv in lines:
        # an empty store: each command parses its model file, as a fresh
        # process would
        monkeypatch.setattr(modelio, "_last_load", (None, None))
        assert main(argv) == 0
    alone_out = capsys.readouterr()
    monkeypatch.chdir(batched)
    assert main(["batch", str(write_batch(tmp_path / "lines.txt", lines))]) == 0
    batched_out = capsys.readouterr()
    assert batched_out.out == alone_out.out
    assert batched_out.err == alone_out.err == ""
    assert files(batched) == files(alone)
    assert len(files(alone)) == len(lines)


def test_one_models_routes_run_one_recursion_and_one_eigensolve(tmp_path, monkeypatch,
                                                               capsys):
    # split, assemble and compare run one recursion, oracle and compare one
    # eigensolve: the one model object of the batch hits the stores
    monkeypatch.chdir(tmp_path)
    # empty stores: no earlier test's model object or result is read
    monkeypatch.setattr(modelio, "_last_load", (None, None))
    monkeypatch.setattr(nstate, "_last_recursion", (None, None, None))
    monkeypatch.setattr(nstate, "_last_shift", (None, None))
    runs = []
    for name in ("_recursion", "hermitian_eig"):
        def counted(*args, name=name, fn=getattr(nstate, name)):
            runs.append(name)
            return fn(*args)

        monkeypatch.setattr(nstate, name, counted)
    gen, *routes = many_level()[:5]
    assert [argv[1] for argv in routes] == ["split", "assemble", "oracle", "compare"]
    assert main(gen) == 0
    assert main(["batch", str(write_batch(tmp_path / "lines.txt", routes))]) == 0
    assert sorted(runs) == ["_recursion", "hermitian_eig"]
    assert capsys.readouterr().err == ""


def test_failing_lines_report_their_code_and_the_batch_goes_on(tmp_path, monkeypatch,
                                                               capsys):
    monkeypatch.chdir(tmp_path)
    good = ["two-state", "exact", "--out", "exact.json"]
    missing = ["n-state", "oracle", "--model", "missing.json"]
    domain = ["two-state", "exact", "--x", "0"]
    unknown = ["two-state", "exact", "--bogus", "1"]
    one_shot = []
    for argv in (missing, domain, unknown):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        one_shot.append((code, capsys.readouterr().err))
    assert [code for code, _ in one_shot] == [10, 2, 2]
    (tmp_path / "lines.txt").write_text(
        "\n".join([
            json.dumps(good),
            json.dumps(missing),
            json.dumps(domain),
            "",
            json.dumps(unknown),
            '{"argv": ["two-state", "exact"]}',
            '["two-state", "exact", 1]',
            "[not json",
            json.dumps(["batch", "lines.txt"]),
            json.dumps([*good[:2], "--x", "0.25", "--out", "last.json"]),
        ]) + "\n",
        encoding="utf-8",
    )
    assert main(["batch", "lines.txt"]) == 10
    out, err = capsys.readouterr()
    not_array = "error: batch line is not a JSON array of strings: "
    assert err == "".join([
        one_shot[0][1], "batch: line 2 exited 10\n",
        one_shot[1][1], "batch: line 3 exited 2\n",
        one_shot[2][1], "batch: line 5 exited 2\n",
        not_array + """'{"argv": ["two-state", "exact"]}'\n""", "batch: line 6 exited 2\n",
        not_array + """'["two-state", "exact", 1]'\n""", "batch: line 7 exited 2\n",
        not_array + "'[not json'\n", "batch: line 8 exited 2\n",
        "error: batch line runs batch: batches do not nest\n", "batch: line 9 exited 2\n",
    ])
    # the lines before and after the failures ran
    assert out.count("command: two-state exact\n") == 2
    assert sorted(os.listdir(tmp_path)) == ["exact.json", "last.json", "lines.txt"]
    assert json.loads((tmp_path / "last.json").read_text())["parameters"]["x"] == 0.25


def test_batch_exit_code_is_the_first_failing_lines(tmp_path, capsys):
    path = write_batch(tmp_path / "lines.txt", [
        ["two-state", "exact", "--x", "0"],
        ["n-state", "oracle", "--model", str(tmp_path / "missing.json")],
    ])
    assert main(["batch", str(path)]) == 2
    assert capsys.readouterr().err.endswith("batch: line 2 exited 10\n")


def test_batch_of_good_lines_and_an_empty_batch_exit_0(tmp_path, capsys):
    path = write_batch(tmp_path / "lines.txt", [["two-state", "exact"]] * 2)
    assert main(["batch", str(path)]) == 0
    assert capsys.readouterr().out.count("command: two-state exact\n") == 2
    (tmp_path / "empty.txt").write_text("\n \n", encoding="utf-8")
    assert main(["batch", str(tmp_path / "empty.txt")]) == 0
    assert capsys.readouterr() == ("", "")


def test_batch_dash_reads_stdin(monkeypatch, capsys):
    lines = json.dumps(["two-state", "exact", "--x", "0.25"]) + "\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    assert main(["batch", "-"]) == 0
    out = capsys.readouterr().out
    assert main(["two-state", "exact", "--x", "0.25"]) == 0
    assert capsys.readouterr().out == out != ""


def test_batch_input_that_cannot_be_read(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["batch", str(missing)]) == 10
    assert capsys.readouterr().err.startswith("error: i/o: [Errno 2] ")
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b'["two-state", "exact", "--x", "0.5\xff"]\n')
    assert main(["batch", str(latin)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {latin}: not UTF-8 text: invalid start byte at byte 34\n"
    )
