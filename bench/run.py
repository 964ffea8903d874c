"""Benchmark of the adiabatic-lab command-line tool.

One closed-loop client in one process calls ``adiabatic_lab.cli.main(argv)``
back to back, each command writing its ``--out`` report to a scratch
directory. The inputs come from ``--seed``; every report is checked against
an oracle computed before timing starts (see ``oracles.py``). A non-zero exit
or a failed check counts as a failed operation.

    python3 bench/run.py --workload slow-switch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 [--record FILE]

A run measures whole batches until ``--seconds`` have passed (at least
``MIN_BATCHES``). The speed of the shared two-core machine this was written
on drifts by up to 2x within minutes, which no run length averages away
(raw batch times spread 14-32% from run to run). So after every command the
run does a fixed reference unit of work (``reference_unit``) for a fifth of
the command's time, and the gated times ``wall_ref`` and ``cpu_ref`` are the
mean batch time over the mean reference unit time: the batch's cost in
reference units (spread 3-8%). The raw seconds are reported per layer.
Set-up time is gauged against a bare interpreter instead: ``setup_s`` is
the CPU time of a fresh interpreter importing the program over that of one
that imports nothing, times ``BARE_CPU_S``, so that it reads in seconds at
one fixed machine speed (see ``measure_setup``).

The gated runs use one BLAS thread and one CPU. The traced run also runs
the batch in a child process with BLAS's own thread count and no pinning,
the way the program runs by default, and reports its raw times per layer
as ``default_blas.*``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced batches and reports the per-layer metrics. ``--workload all`` runs
every workload both ways, each in its own process, and prints every metric
with its unit. The last line of standard output is the result as JSON; the
exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

# One BLAS thread, set before numpy loads. On two shared cores the default
# thread pool made the same batch's time spread 7% from run to run (once
# 5x slower while another process ran), against 2% with one thread, at no
# loss of speed. The setting is recorded with every result. With
# --default-blas the thread count is left to BLAS (for default_blas.*).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_BLAS = "--default-blas" in sys.argv[1:]
if not DEFAULT_BLAS:
    os.environ.update(dict.fromkeys(BLAS_ENV, "1"))
CPUS = os.sched_getaffinity(0)  # before main() pins the run to one of them

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (sits beside this file)

MIN_BATCHES = 3
# Reference work after each command, as a share of its wall time.
REF_SHARE = 0.2
REF_MIN_S = 0.02
REF_STEPS = 500
_REF_MATRIX = np.array([[0.0, -0.01], [0.01, 0.0]], dtype=complex)
SETUP_SPAWNS = 11
# About the CPU time of a bare interpreter (``python3 -c pass``) on the
# two-core Xeon the benchmark was written on; setup_s is set-up CPU time in
# bare interpreters times this.
BARE_CPU_S = 0.07

END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "digits_min": "digits",
    "setup_s": "s",
}
PER_LAYER = {
    "setup.spawn_s": "s",
    "setup.interpreter_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_pkg_s": "s",
    "batch.wall_s": "s",
    "batch.cpu_s": "s",
    "default_blas.wall_s": "s",
    "default_blas.cpu_s": "s",
    "reference.unit_ms": "ms",
    "numkit.ode.calls": "count",
    "numkit.ode.busy_s": "s",
    "numkit.ode.self_s": "s",
    "numkit.ode.accepted_steps": "count",
    "numkit.ode.rejected_steps": "count",
    "numkit.ode.accept_ratio": "ratio",
    "numkit.ode.rhs_calls": "count",
    "numkit.ode.rhs_s": "s",
    "numkit.ode.us_per_step": "us",
    "numkit.eig.calls": "count",
    "numkit.eig.busy_s": "s",
    "numkit.eig.max_n": "count",
    "numkit.eig.max_n_busy_s": "s",
    "numkit.eig.recon_residual": "ratio",
    "numkit.jets.mul_calls": "count",
    "numkit.jets.recip_calls": "count",
    "numkit.jets.busy_s": "s",
    "twostate.gtilde_table.calls": "count",
    "twostate.gtilde_table.self_s": "s",
    "twostate.evolve_two_state.self_s": "s",
    "twostate.phase_f.busy_s": "s",
    "twostate.bessel_series_a.busy_s": "s",
    "twostate.bessel_series_a.terms": "count",
    "twostate.bessel_series_a.max_term": "ratio",
    "twostate.bessel_series_a.digits": "digits",
    "nstate.rs_recursion.calls": "count",
    "nstate.rs_recursion.self_s": "s",
    "nstate.oracle_shift.self_s": "s",
    "nstate.evolve_nstate.self_s": "s",
    "cli.commands": "count",
    "cli.busy_s": "s",
    "cli.self_s": "s",
    "modelio.load_model.busy_s": "s",
    "report.emit.busy_s": "s",
    "trace.overhead_s": "s",
}

# A fresh interpreter times its own imports; the parent times the whole spawn.
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "t1 = time.perf_counter(); import adiabatic_lab.cli; "
    "print(t1 - t0, time.perf_counter() - t1)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None,
                   help="with --workload all: also write the results to this JSON file")
    p.add_argument("--setup-spawns", type=int, default=SETUP_SPAWNS,
                   help="fresh interpreters timed for the set-up metrics; "
                        "0 leaves those metrics out")
    p.add_argument("--default-blas", action="store_true",
                   help="leave BLAS's thread count and the CPU affinity as they are")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: start-up cost, oracle, environment


def measure_setup(spawns: int) -> dict:
    """Start-up cost from fresh interpreters that import the program.

    Each probe spawn is followed by a bare interpreter that imports nothing,
    and ``setup_s`` is the median of the probe's CPU time over the bare
    one's, times ``BARE_CPU_S``. CPU time leaves out the waits for a core on
    the shared machine (a spawn's wall time ran up to 40% over its CPU time).
    The ratio cancels the machine's drift in speed, which start-up meets
    differently from compute: while probe times drifted 1.6x and the
    ``reference_unit`` time 2x, this ratio held within 8% over four
    minutes. The split is in raw wall seconds: medians over the probe spawns.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )

    def spawn(code):
        usage0, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True)
        total = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        cpu = usage.ru_utime + usage.ru_stime - usage0.ru_utime - usage0.ru_stime
        return cpu, total, proc.stdout

    spawn(SETUP_PROBE)  # the first spawn may still be compiling bytecode
    costs, samples = [], []
    for _ in range(spawns):
        cpu, total, out = spawn(SETUP_PROBE)
        costs.append(cpu / spawn("pass")[0])
        numpy_s, pkg_s = map(float, out.split())
        samples.append((total, total - numpy_s - pkg_s, numpy_s, pkg_s))
    med = [statistics.median(col) for col in zip(*samples)]
    return {
        "setup_s": BARE_CPU_S * statistics.median(costs),
        "setup.spawn_s": med[0],
        "setup.interpreter_s": med[1],
        "setup.import_numpy_s": med[2],
        "setup.import_pkg_s": med[3],
    }


def load_oracle(workload: str, seed: int) -> dict:
    """The oracle for this workload and seed, computed once in its own
    process and cached under a key that changes with the benchmark's code."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode())
    for name in ("workloads.py", "oracles.py"):
        digest.update((BENCH / name).read_bytes())
    path = WORK / "oracles" / f"{workload}-{seed}-{digest.hexdigest()[:16]}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        subprocess.run([sys.executable, str(BENCH / "oracles.py"), workload, str(seed),
                        str(tmp)], check=True, cwd=ROOT)
        os.replace(tmp, path)
    return json.loads(path.read_text(encoding="utf-8"))


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    commit = None  # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# measured loop


def reference_unit() -> float:
    """Fixed work with the program's own profile, interpreter steps and
    small numpy calls, run beside every command to gauge machine speed."""
    y = np.array([1.0, 0.0], dtype=complex)
    acc = 0.0
    for i in range(REF_STEPS):
        y = y + 1e-3 * (_REF_MATRIX @ y)
        acc += math.exp(-1e-3 * i) * float(np.abs(y).max())
    return acc


def _reference(budget_s):
    """Run reference units for ``budget_s`` (at least one); returns their
    count, wall time and the CPU time of this thread alone, so that threads
    still spinning after a command do not count."""
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    units = 0
    while units == 0 or time.perf_counter() - wall0 < budget_s:
        reference_unit()
        units += 1
    return units, time.perf_counter() - wall0, time.thread_time() - cpu0


class Batch(NamedTuple):
    """Sums over one batch's commands and the reference work after them."""

    wall_s: float
    cpu_s: float
    ref_units: int
    ref_wall_s: float
    ref_cpu_s: float


def _in_reference_units(batches) -> dict:
    """Mean batch times divided by the mean reference unit of the run.

    Reference work fills a fixed share of the time after every command, so
    this ratio of sums weighs the machine's speed as the commands met it:
    a drift in speed during the run cancels, where a median would not.
    """
    units = sum(b.ref_units for b in batches)
    unit_wall = sum(b.ref_wall_s for b in batches) / units
    unit_cpu = sum(b.ref_cpu_s for b in batches) / units
    return {
        "wall_ref": statistics.fmean(b.wall_s for b in batches) / unit_wall,
        "cpu_ref": statistics.fmean(b.cpu_s for b in batches) / unit_cpu,
        "reference.unit_ms": 1e3 * unit_wall,
    }


class Client:
    """The closed-loop client: runs commands, checks their reports."""

    def __init__(self, workload, oracle, items, call):
        self.workload = workload
        self.oracle = oracle
        self.items = items
        self.call = call  # call(argv) -> exit code, run inside the timed region
        self.attempted = 0
        self.failed = 0
        self.digits = math.inf
        self.problems = []

    def run(self, items) -> Batch:
        """Run the commands back to back, each followed by reference work
        for ``REF_SHARE`` of its wall time, then check the reports."""
        codes, sums = [], [0.0] * 5
        for cmd in (cmd for item in items for cmd in item):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            codes.append(self._one(cmd))
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            for i, v in enumerate((wall, cpu) + _reference(max(REF_SHARE * wall, REF_MIN_S))):
                sums[i] += v
        self._check(items, codes)
        return Batch(*sums)

    def _one(self, cmd):
        err = io.StringIO()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(err):
                code = self.call(cmd.argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception:  # a crash is a failed operation, not the end of the run
            code = "exception"
            err.write(traceback.format_exc())
        if code != 0:
            self.problems.append(f"{' '.join(cmd.argv[:2])} exited {code}: {err.getvalue()}")
        return code

    def _check(self, items, codes):
        flat = [cmd for item in items for cmd in item]
        for cmd, code in zip(flat, codes):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                continue
            try:
                report = json.loads(cmd.out.read_text(encoding="utf-8"))
                checks = workloads.check_report(self.workload, cmd.key, report, self.oracle)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.failed += 1
                self.problems.append(f"{cmd.key}: unreadable report: {exc!r}")
                continue
            finally:
                cmd.out.unlink(missing_ok=True)
            bad = [c for c in checks if not c.ok]
            for c in bad:
                self.problems.append(f"{c.name}: error {c.error:.3e} > tol {c.tol:.0e}")
            self.failed += bool(bad)
            self.digits = min([self.digits] + [c.digits for c in checks])


def _until(seconds, minimum, step):
    """Call ``step()`` at least ``minimum`` times, then while the next call
    is expected to end nearer to ``seconds`` from now than stopping would."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < minimum or time.perf_counter() - start + last / 2 < seconds:
        t = time.perf_counter()
        step()
        last = time.perf_counter() - t
        done += 1


def measure(cli, args) -> dict:
    workload, seed, seconds, traced = args.workload, args.seed, args.seconds, bool(args.trace)
    setup = measure_setup(args.setup_spawns) if args.setup_spawns > 0 else {}
    inputs = workloads.make_inputs(workload, seed)
    oracle = load_oracle(workload, seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        items = workloads.commands(workload, inputs, Path(tmp))
        client = Client(workload, oracle, items, cli.main)
        client.run(items[:1])  # warm-up: each subcommand once, untimed
        if client.failed:
            metrics = dict.fromkeys(PER_LAYER if traced else END_TO_END, 0.0)
        elif traced:
            metrics = _traced(client, cli, seconds, oracle)
            metrics.update(_default_blas(client, workload, seed))
        else:
            batches = []
            _until(seconds, MIN_BATCHES, lambda: batches.append(client.run(items)))
            # raw batch seconds, read by the traced run's default_blas probe
            print("batch: " + json.dumps({
                "wall_s": statistics.median(b.wall_s for b in batches),
                "cpu_s": statistics.median(b.cpu_s for b in batches),
            }))
            metrics = _in_reference_units(batches)
            metrics.update({
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "digits_min": client.digits if client.digits < math.inf else 0.0,
            })
        metrics.update(setup)
    units = PER_LAYER if traced else END_TO_END
    return {
        "correct": client.failed == 0 and not client.problems,
        "attempted": client.attempted,
        "failed": client.failed,
        # set-up metrics are missing only where --setup-spawns is 0
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
        "problems": client.problems,
    }


def _traced(client, cli, seconds, oracle) -> dict:
    """Alternate plain and traced batches; per-layer figures of the traced ones."""
    import spans

    from adiabatic_lab import nstate, twostate

    a0 = {eps: complex(*a) for eps, a in zip(oracle.get("eps", ()), oracle.get("a0", ()))}

    def series_oracle(model, t):
        return a0.get(model.eps) if t == 0 else None

    plain, traced, times, counts, quality = [], [], [], [], []

    def pair():
        plain.append(client.run(client.items))
        tracer = spans.Tracer()
        restore = spans.install(tracer, twostate, nstate, cli)
        client.call = lambda argv: tracer.call("cli", cli.main, argv)
        try:
            traced.append(client.run(client.items).wall_s)
        finally:
            client.call = cli.main
            restore()
        times.append(tracer.times())
        counts.append(tracer.counts())
        if not quality:
            quality.append(tracer.quality(series_oracle))

    _until(seconds, 2, pair)
    if any(c != counts[0] for c in counts):
        client.problems.append(f"counts differ between traced batches: {counts}")
    metrics = dict(counts[0])
    metrics.update(quality[0])
    metrics.update({k: statistics.median(t[k] for t in times) for k in times[0]})
    metrics["batch.wall_s"] = statistics.median(b.wall_s for b in plain)
    metrics["batch.cpu_s"] = statistics.median(b.cpu_s for b in plain)
    metrics["reference.unit_ms"] = _in_reference_units(plain)["reference.unit_ms"]
    metrics["trace.overhead_s"] = statistics.median(traced) - metrics["batch.wall_s"]
    return metrics


def _default_blas(client, workload, seed) -> dict:
    """Raw batch times in a child process with the BLAS thread variables
    unset and no CPU pinning: what the one-thread gated runs do not see."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--setup-spawns", "0", "--default-blas"],
        env=env, cwd=ROOT, capture_output=True, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, CPUS))
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("batch: ")]
    if proc.returncode != 0 or not lines:
        client.problems.append(f"default-BLAS run failed:\n{proc.stderr[-2000:]}")
        return {"default_blas.wall_s": 0.0, "default_blas.cpu_s": 0.0}
    batch = json.loads(lines[-1][len("batch: "):])
    return {"default_blas.wall_s": batch["wall_s"], "default_blas.cpu_s": batch["cpu_s"]}


# ---------------------------------------------------------------------------
# one command for every workload


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process; set-up
    does not depend on the workload, so it is measured once, here."""
    env = environment()
    print("env: " + json.dumps(env))
    os.sched_setaffinity(0, {min(CPUS)})  # as in the workload runs
    setup = measure_setup(args.setup_spawns) if args.setup_spawns > 0 else {}
    os.sched_setaffinity(0, CPUS)  # each workload run pins itself
    print("setup:")
    for name, value in setup.items():
        print(f"  {name:36s} {value:>16.6g} {END_TO_END.get(name) or PER_LAYER[name]}")
    results, ok = {}, True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--setup-spawns", "0"],
                cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok &= proc.returncode == 0 and bool(result.get("correct"))
            results.setdefault(workload, {})[f"trace{trace}"] = result
            print(f"{workload} trace={trace}: attempted {result.get('attempted')}, "
                  f"failed {result.get('failed')}, correct {result.get('correct')}")
            for name, m in result.get("metrics", {}).items():
                print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    summary = {"correct": ok, "seed": args.seed, "seconds": args.seconds,
               "env": env, "setup": setup, "results": results}
    if args.record:
        Path(args.record).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import adiabatic_lab.cli as cli  # fails at once where the sources are missing

    # One CPU for this process and its children: each CPU's speed drifts on
    # its own, so a process that migrates mid-command meets a speed that the
    # reference work after the command did not see.
    if not args.default_blas:
        os.sched_setaffinity(0, {min(CPUS)})
    print("env: " + json.dumps(environment()))
    result = measure(cli, args)
    for problem in result.pop("problems")[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
