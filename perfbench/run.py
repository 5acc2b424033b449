"""Layered benchmark of the rematch library, timed end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload desk-rematch --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --repeats 2 --smoke

Each workload is a closed loop: one client in one process runs the
workload's units one after another. A run imports the library from
``src/``, makes its inputs from ``--seed`` and runs one warm-up unit. Then
it makes whole passes over the units, reversing their order every other
pass, until ``--seconds`` of passes have elapsed. Around every unit it times
a fixed reference kernel that never calls the library, and it divides the
unit's time by the kernel's, so that the timings read in seconds at one
fixed host speed (perfbench/README.md says why). Five set-ups, each in a
fresh process, run at even points of the window and are scaled the same
way. Every unit's outputs are checked. With ``--trace 0`` no wrapper is
installed and the end-to-end metrics are reported; with ``--trace 1`` the
window runs with per-module spans and the per-layer metrics are reported.
The metric names and units come from ``BENCHMARK.json``. ``--workload all``
runs each workload in a process of its own, alternating the order of the
workloads between repeats.

Standard output carries an environment header, one report line per named
figure, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy is first imported: the library runs on
# one thread and BLAS threads would only add scheduling noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
FRESH_SETUPS = 5
SMOKE_SECONDS = 1.0
SETUP_TIMEOUT_S = 170
# Seconds one reference kernel takes at the host speed the scaled timings
# are given in: about its time on the machine that defined the benchmark.
REFERENCE_S = 0.004
# Kernel runs per reference sample; their median is the sample, so that one
# interrupted run does not skew the scaling of a unit.
REFERENCE_REPEATS = 3


def _import_library() -> float:
    """Import numpy and the library from this checkout; return the seconds taken."""
    if not (SRC / "rematch" / "__init__.py").is_file():
        raise ImportError(f"no rematch package under {SRC}")
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import numpy  # noqa: F401
    import rematch
    elapsed = perf_counter() - started
    if Path(rematch.__file__).resolve().parent != SRC / "rematch":
        raise ImportError(f"rematch was imported from {rematch.__file__}, not {SRC}")
    return elapsed


def environment() -> dict:
    import networkx
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Reference:
    """A fixed kernel in the library's mix of work that never calls the library.

    Small entropic scaling loops (numpy call overhead), a medium matrix
    product (BLAS and memory) and a plain Python loop. Its time, taken next
    to a unit's, tells how fast the host ran while the unit ran.
    """

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(12345)
        self._np = numpy
        self._kernels = [numpy.exp(-rng.uniform(0, 1, (side, side)) / 0.05)
                         for side in (24, 8)]
        self._medium = rng.uniform(0, 1, (160, 160))

    def _run(self) -> int:
        np = self._np
        for kernel, steps in zip(self._kernels, (150, 250)):
            side = kernel.shape[0]
            marginal, v = np.full(side, 1.0 / side), np.ones(side)
            for _ in range(steps):
                u = marginal / (kernel @ v)
                v = marginal / (kernel.T @ u)
        x = self._medium
        for _ in range(3):
            x = np.exp(-(self._medium @ x) / 160.0)
        total = 0
        for i in range(20000):
            total += i * i
        return total

    def seconds(self, repeats: int = 1) -> float:
        """Median time of ``repeats`` runs of the kernel."""
        times = []
        for _ in range(repeats):
            started = perf_counter()
            self._run()
            times.append(perf_counter() - started)
        return statistics.median(times)


class Ledger:
    """Counts units, collects failed checks, and compares repeats of a unit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None
        self._fingerprints: dict[str, str] = {}

    def record(self, key: str, problems: list, fingerprint: str) -> None:
        self.attempted += 1
        problems = [f"{key}: {problem}" for problem in problems]
        if fingerprint != self._fingerprints.setdefault(key, fingerprint):
            problems.append(f"{key}: output differs from an earlier repeat")
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def run(self, unit):
        if self.tracer is not None:
            self.tracer.run_id = self.attempted + 1
        started = perf_counter()
        outcome = unit.run()
        seconds = perf_counter() - started
        self.record(unit.key, outcome.problems, outcome.fingerprint)
        return seconds, outcome


class Window:
    """Whole passes over the units until a time budget is spent.

    A new pass starts while the budget is not yet spent, so the last pass
    may run over it; whole passes keep the mix of units the same in every
    run. The reference kernel runs right before and right after each unit.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.pass_seconds: list[float] = []
        self.unit_seconds: dict[str, list] = {}
        self.unit_scaled: dict[str, list] = {}
        self.reference_seconds: list[float] = []
        self.unit_items: dict[str, int] = {}
        self.call_seconds: list[float] = []
        self.quality: dict[str, list] = {}

    def run(self, ledger: Ledger, units: list, seconds: float, between=None):
        """``between(elapsed)`` runs before each unit, given the seconds of
        window spent so far; the time it takes is not counted."""
        started = perf_counter()
        paused = 0.0
        while not self.pass_seconds or perf_counter() - started - paused < seconds:
            reverse = len(self.pass_seconds) % 2 == 1
            pass_seconds = 0.0
            for unit in (units[::-1] if reverse else units):
                if between is not None:
                    pause_started = perf_counter()
                    between(pause_started - started - paused)
                    paused += perf_counter() - pause_started
                before = self.reference.seconds(REFERENCE_REPEATS)
                unit_seconds, outcome = ledger.run(unit)
                after = self.reference.seconds(REFERENCE_REPEATS)
                pass_seconds += unit_seconds
                self.reference_seconds += [before, after]
                self.unit_seconds.setdefault(unit.key, []).append(unit_seconds)
                self.unit_scaled.setdefault(unit.key, []).append(
                    unit_seconds * 2 * REFERENCE_S / (before + after))
                self.unit_items[unit.key] = outcome.items
                self.call_seconds.extend(outcome.call_seconds)
                for name, values in outcome.quality.items():
                    self.quality.setdefault(name, []).extend(values)
            self.pass_seconds.append(pass_seconds)
        return self

    def scaled_pass_seconds(self) -> float:
        """One pass at the reference speed: the sum over units of each
        unit's median scaled time."""
        return sum(statistics.median(scaled) for scaled in self.unit_scaled.values())

    def fastest_pass_seconds(self) -> float:
        """The sum over units of each unit's fastest unscaled repeat."""
        return sum(min(seconds) for seconds in self.unit_seconds.values())


class FreshSetups:
    """Set-ups timed in fresh processes at even points of the timed window.

    At most one runs between two units, so that on a workload whose units
    are longer than a fifth of the window they still spread over the pass.
    Each one, import included, is scaled by the reference kernel's time
    taken by this process right before it and by the new process right
    after it.
    """

    def __init__(self, workload, seed: int, smoke: bool, ledger: Ledger,
                 reference: Reference, seconds: float):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.ledger, self.reference = ledger, reference
        self.due = [seconds * k / FRESH_SETUPS for k in range(FRESH_SETUPS)]
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def __call__(self, elapsed: float) -> None:
        if self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self._sample()

    def finish(self) -> None:
        while self.due:
            self.due.pop(0)
            self._sample()

    def _sample(self) -> None:
        before = self.reference.seconds(REFERENCE_REPEATS)
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                   "--workload", self.workload.name, "--seed", str(self.seed)]
        key = f"{self.workload.name}/fresh-setup"
        try:
            proc = subprocess.run(command + (["--smoke"] if self.smoke else []), cwd=ROOT,
                                  capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
            self.ledger.record(key, [f"set-up process failed: {exc!r}"], "")
            return
        self.ledger.record(result["key"], result["problems"], result["fingerprint"])
        self.raw.append(result["setup_s"])
        self.scaled.append(result["setup_s"] * 2 * REFERENCE_S
                           / (before + result["reference_s"]))


def _quantile(values: list, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q))


def measure(workload, ledger: Ledger, units: list, seconds: float, seed: int, smoke: bool,
            reference: Reference, own_setup_s: float):
    """Untraced window with fresh set-ups; returns (contract metrics, report lines).

    The report lines add the unscaled figures and the figures under the
    library's own names: per ``run_experiment`` call on the training
    workloads, per solve (with its check) on solver-certify.
    """
    setups = FreshSetups(workload, seed, smoke, ledger, reference, seconds)
    window = Window(reference).run(ledger, units, seconds, between=setups)
    setups.finish()
    pass_s = window.scaled_pass_seconds()
    items = sum(window.unit_items.values())
    metrics = {
        "setup_s": statistics.median(setups.scaled) if setups.scaled else float("nan"),
        "pass_s": pass_s,
        "items_per_s": items / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    calls, quality = window.call_seconds, window.quality
    report = [("setup_s", metrics["setup_s"], "s"),
              ("setup_s_unscaled", statistics.median(setups.raw or [float("nan")]), "s"),
              ("setup_s_own", own_setup_s, "s"),
              ("pass_s", pass_s, "s"),
              ("wall_s_fastest", window.fastest_pass_seconds(), "s"),
              ("wall_s_median", statistics.median(window.pass_seconds), "s"),
              ("reference_ms_median", 1e3 * statistics.median(window.reference_seconds), "ms")]
    if workload.call == "run":
        report += [("run_s_p50", _quantile(calls, 50), "s"),
                   ("run_s_p90", _quantile(calls, 90), "s"),
                   ("pairs_per_s", metrics["items_per_s"], "1/s"),
                   ("test_rsum", statistics.fmean(quality["test_rsum"]), "rsum")]
        if "ident_f1" in quality:
            report.append(("ident_f1", statistics.fmean(quality["ident_f1"]), "f1"))
    else:
        report += [("solve_ms_p50", 1e3 * _quantile(calls, 50), "ms"),
                   ("solve_ms_p90", 1e3 * _quantile(calls, 90), "ms"),
                   ("solves_per_s", metrics["items_per_s"], "1/s"),
                   ("oracle_gap_max", max(quality["oracle_gap"]), "ratio"),
                   ("mass_err_max", max(quality["mass_err"]), "mass")]
    report += [("failed_frac", ledger.failed / ledger.attempted, "ratio"),
               ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
               (f"{workload.call}s_timed", len(calls), "count"),
               ("passes", len(window.pass_seconds), "count")]
    return metrics, report


def measure_traced(workload, ledger: Ledger, seconds: float, seed: int, smoke: bool,
                   reference: Reference):
    """A window with every span recorded; returns (per-layer metrics, report lines).

    Layer figures are per traced pass, except ``data.make_benchmark.busy_s``,
    which is per input generation. ``trace.overhead_frac`` is the tracer's
    own time over the rest of the window: the spans times a wrapper's cost
    timed on a no-op, plus the time spent reading counts from results.
    """
    from spans import Tracer, layer_metrics, share_of_calling_runs

    tracer = Tracer()
    ledger.tracer = tracer
    with tracer.installed():
        units = workload.build(seed, smoke)
        mark, mark_note_s = len(tracer.spans), tracer.note_seconds
        traced = Window(reference).run(ledger, units, seconds)
    ledger.tracer = None
    passes = len(traced.pass_seconds)
    metrics = layer_metrics(tracer.spans, mark, passes)
    setup_busy = layer_metrics(tracer.spans[:mark], 0, 1)
    metrics["data.make_benchmark.busy_s"] = setup_busy["data.make_benchmark.busy_s"]
    overhead_s = ((len(tracer.spans) - mark) * Tracer.wrapper_seconds()
                  + tracer.note_seconds - mark_note_s)
    metrics["trace.overhead_frac"] = overhead_s / (sum(traced.pass_seconds) - overhead_s)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    report = [("spans_file", spans_path.relative_to(ROOT), ""),
              ("traced_passes", passes, "count"),
              ("spans_per_pass", (len(tracer.spans) - mark) / passes, "count")]
    for layer in ("transport.partial_ot", "mixture.fit_bmm"):
        share = share_of_calling_runs(tracer.spans, mark, layer)
        if share is not None:
            report.append((f"{layer.split('.')[-1]}_share_of_calling_runs", share, "ratio"))
    return metrics, report


def _select(metrics: dict, spec: list) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def run_all(names: list, args) -> int:
    """Each workload in a process of its own, the order alternating between repeats."""
    ok = True
    for repeat in range(args.repeats):
        for name in names if repeat % 2 == 0 else names[::-1]:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--trace", str(args.trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            sys.stdout.flush()
            ok = subprocess.run(command, cwd=ROOT).returncode == 0 and ok
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: run_seconds of "
                             "BENCHMARK.json, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at toy size: tiny datasets and epochs, two certify cases")
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --workload all: how many times to run every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(names, args)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    seed = args.seed % 2 ** 64  # the generators take non-negative seeds

    try:
        import_s = _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        started = perf_counter()
        unit = workload.build(seed, args.smoke)[0]
        outcome = unit.run()
        setup_s = import_s + perf_counter() - started
        print(json.dumps({"setup_s": setup_s, "reference_s": Reference().seconds(REFERENCE_REPEATS),
                          "key": unit.key, "problems": outcome.problems,
                          "fingerprint": outcome.fingerprint}))
        return 0

    print("env: " + json.dumps(environment()))
    ledger = Ledger()
    started = perf_counter()
    units = workload.build(seed, args.smoke)
    ledger.run(units[0])
    own_setup_s = import_s + perf_counter() - started
    reference = Reference()
    if args.trace:
        metrics, report = measure_traced(workload, ledger, seconds, seed, args.smoke,
                                         reference)
    else:
        metrics, report = measure(workload, ledger, units, seconds, seed, args.smoke,
                                  reference, own_setup_s)
    for problem in ledger.problems[:20]:
        print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
    for label, value, unit in report:
        print(f"{workload.name}: {label} = {value} {unit}".rstrip())
    selected = _select(metrics, spec["per_layer" if args.trace else "end_to_end"])
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": selected}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
