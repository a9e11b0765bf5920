"""Benchmark of the qchan CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy.  One run makes the workload's inputs
from the seed, runs one untimed warm-up pass, then times whole passes over
the workload's command list, each command called in-process through
``qchan.cli.main``.  Every output of every pass is checked (see
``workloads.py``).

``--trace 0`` times passes until the next one would end after
``--seconds`` and prints the end-to-end metrics.  Each command's latency is
scaled to the reference speed of the machine (see ``speed.py``).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see ``tracer.py``) and the tracing
overhead.  Human-readable lines go
first; the last line of standard output is one JSON object.  See
``perfbench/README.md`` for the metrics and the schema.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark shares a 2-CPU machine with other work,
# and a second thread makes timings depend on that work.  Set before numpy
# is imported; the set-up probes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES_PER_PASS = 2  # spread over the run, so drift of the machine averages out
PROBE = "import time; t = time.perf_counter(); import qchan.cli; print(time.perf_counter() - t)"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_qchan():
    """qchan.cli from this checkout's src/; exits without a result if there is none."""
    if not (SRC / "qchan" / "cli.py").is_file():
        sys.exit(f"perfbench: no qchan source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qchan.cli

    if Path(qchan.cli.__file__).resolve().parent != SRC / "qchan":
        sys.exit(f"perfbench: imported qchan from {qchan.cli.__file__}, not from {SRC}")
    return qchan.cli


def blas_threads():
    """Threads of the loaded OpenBLAS, asked through its own API, else None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def run_record() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.platform(),
        "note": "shared 2-CPU machine; other work on it moves timings",
    }


def measure_setup(count: int, speedometer=None) -> list:
    """Seconds to import qchan.cli in `count` fresh interpreters, scaled to
    the reference speed when a speedometer is given."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    before = speedometer.sample() if speedometer else None
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        seconds = float(done.stdout)
        if speedometer:
            after = speedometer.sample()
            seconds *= speed.factor(before, after)
            before = after
        times.append(seconds)
    return times


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Runner:
    """Runs passes of one workload and counts commands that fail their checks."""

    def __init__(self, cli, commands, speedometer=None):
        self.cli = cli
        self.commands = commands
        self.speedometer = speedometer  # None: raw seconds, as the tracer needs
        self.factors = []
        self.digests = None  # per command, from the first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self):
        """(pass seconds, per-command seconds); outputs are checked after timing.
        With a speedometer, the kernels run before the first command and after
        every command, and each latency is scaled by the samples around it."""
        codes, latencies = [], []
        before = self.speedometer.sample() if self.speedometer else None
        for cmd in self.commands:
            c0 = time.perf_counter()
            try:
                code = self.cli.main(cmd.argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            except Exception as exc:  # a traceback is a failed command, not a crash
                code = repr(exc)
            seconds = time.perf_counter() - c0
            if self.speedometer:
                after = self.speedometer.sample()
                self.factors.append(speed.factor(before, after))
                seconds *= self.factors[-1]
                before = after
            latencies.append(seconds)
            codes.append(code)
        self.check(codes)
        return sum(latencies), latencies

    def check(self, codes):
        if self.digests is None:
            self.digests = [None] * len(self.commands)
        for i, (cmd, code) in enumerate(zip(self.commands, codes)):
            self.attempted += 1
            try:
                problems = cmd.check() if code == 0 else [f"exit code {code}"]
                if not problems:
                    digests = [digest(path) for path in cmd.outputs]
                    if self.digests[i] is None:
                        self.digests[i] = digests
                    elif digests != self.digests[i]:
                        problems = ["output bytes differ from an earlier run of the command"]
            except Exception as exc:  # unreadable output counts as a failed check
                problems = [f"check raised {exc!r}"]
            if problems:
                self.failed += 1
                self.problems.append(f"{' '.join(cmd.argv[:3])}: {'; '.join(problems)}")


def timed_loop(seconds, one_round):
    """Repeat one_round until the next one would end after `seconds`; at least once."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return


def tail(latencies, pct):
    """(value, samples beyond) of the workload's tail percentile."""
    value = float(np.percentile(latencies, pct))
    return value, int(sum(x > value for x in latencies))


def end_to_end(runner, seconds, tail_pct):
    walls, latencies = [], []
    setup = measure_setup(SETUP_PROBES_PER_PASS, runner.speedometer)

    def one_pass():
        wall, lat = runner.run_pass()
        walls.append(wall)
        latencies.append(lat)
        setup.extend(measure_setup(SETUP_PROBES_PER_PASS, runner.speedometer))

    timed_loop(seconds, one_pass)
    # Command sizes are discrete, so a percentile of the raw samples falls
    # between two commands and rests on one extreme sample of each.  Each
    # command's samples are therefore its median over the passes.
    passes = len(walls)
    typical = np.median(latencies, axis=0)
    tail_value, beyond = tail(np.repeat(typical, passes), tail_pct)
    notes = {"passes": passes, "commands_timed": typical.size * passes,
             "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
             "setup_probes": len(setup),
             "speed_factor_p50": round(statistics.median(runner.factors), 4)}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cmd_s.p50": (float(np.median(typical)), "s"),
        "cmd_s.tail": (tail_value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, notes


def per_layer(runner, seconds, workload):
    tracer = tracing.Tracer()
    untraced, traced, passes = [], [], []

    def one_pair():
        untraced.append(runner.run_pass()[0])
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass()[0])
        finally:
            tracer.uninstall()
        passes.append(tracing.pass_metrics(tracer))

    timed_loop(seconds, one_pair)
    exact = [name for name, _, is_exact in tracing.PER_LAYER if is_exact]
    drift = [name for name in exact if any(p[name] != passes[0][name] for p in passes)]
    if drift:
        runner.problems.append(f"exact counters differ between traced passes: {drift}")
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{workload}.npz", **tracer.spans())
    metrics = {}
    for name, unit, is_exact in tracing.PER_LAYER:
        value = passes[0][name] if is_exact else statistics.median(p[name] for p in passes)
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    top = sorted(tracer.per_name().items(), key=lambda kv: -kv[1][1])[:15]
    notes = {"pairs": len(traced), "spans_last_pass": len(tracer.name),
             "top_self_s": {name: round(v[1], 4) for name, v in top}}
    return metrics, bool(drift), notes


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_qchan()
    record = run_record()
    if record["blas_threads"] is not None and record["blas_threads"] > (os.cpu_count() or 1):
        sys.exit(f"perfbench: {record['blas_threads']} BLAS threads exceed the CPU count")
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("record:", json.dumps(record, sort_keys=True))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        measure_setup(1)  # the first import may compile bytecode; not kept
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        # The tracer counts eigensolves, so a traced run times no kernels.
        speedometer = None if args.trace else speed.Speedometer()
        runner = Runner(cli, workload.commands(), speedometer)
        runner.run_pass()  # warm-up: caches, lazy imports, first-use allocations
        if args.trace:
            metrics, drift, notes = per_layer(runner, args.seconds, args.workload)
        else:
            runner.factors.clear()
            metrics, notes = end_to_end(runner, args.seconds, workload.TAIL_PERCENTILE)
            drift = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    print("notes:", json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':34s} {runner.failed / runner.attempted:>16.6g} 1 "
          f"({runner.failed} of {runner.attempted} commands)")
    for problem in runner.problems[:20]:
        print("perfbench: FAILED", problem, file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not drift,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
