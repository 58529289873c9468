"""wavesplit benchmark: one workload, timed passes, oracle-checked outputs.

    python3 bench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and nowhere else.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on 16-17 qubit states numpy's
# tensordot otherwise hands work to OpenBLAS worker threads, and gate
# times then swung several-fold from process to process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
SETUP_GAP = 1.0  # seconds of passes between two set-ups
EMPTY = (0, 0.0, 0.0, 0)  # calls, seconds, self seconds, work
CONSTRUCT = ("circuits.wave_evolution_circuit", "circuits.damping_real_circuit",
             "circuits.damping_phase_gate")


def import_library():
    """Import wavesplit from the checkout's src/ directory."""
    if not (SRC / "wavesplit" / "__init__.py").is_file():
        raise ImportError(f"no wavesplit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("wavesplit")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"wavesplit resolved to {lib.__file__}, outside {SRC}")
    return lib


def setup_seconds(wl) -> float:
    """Set-up as a user pays it, in a fresh interpreter that this process
    waits for: the package import plus the workload's first profile,
    encoding and step plan.  numpy is imported before the clock starts.
    A child keeps the measuring process's heap as the passes leave it:
    re-importing the package in place changes the heap, and after about
    a hundred re-imports glibc stopped returning memory between gates,
    so ``cube`` passes turned 30% faster partway through a run."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", wl.name, "--seed", str(wl.seed),
         "--seconds", "1", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


class Runner:
    """Runs and checks passes, keeping the operation tally of the run."""

    def __init__(self, wl, lib):
        self.wl, self.lib = wl, lib
        self.expect = wl.expectations(lib)
        self.attempted = self.failed = self.wrong = 0
        self.notes: list[str] = []  # failures
        self.info: list[str] = []
        self.faults: list[int] = []  # minor page faults of each pass

    def one_pass(self) -> list[float]:
        """One checked pass; returns the seconds each part of it took."""
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        results, times = self.wl.run_pass(self.lib)
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        self.tally(results)
        return times

    def tally(self, results) -> None:
        """Check one pass's results and add them to the run's tally."""
        attempted, failed, wrong, notes = self.wl.check(self.lib, results, self.expect)
        self.attempted += attempted
        self.failed += failed
        self.wrong += wrong
        self.notes.extend(notes[: max(0, 10 - len(self.notes))])

    def passes(self, seconds: float, after=None) -> list[list[float]]:
        """Whole passes until ``seconds`` have gone by, at least one."""
        times: list[list[float]] = []
        deadline = perf_counter() + seconds
        while not times or perf_counter() < deadline:
            times.append(self.one_pass())
            if after is not None:
                after(len(times) - 1)
        return times


def end_to_end(wl, runner, seconds) -> dict:
    """``setup_s`` is the fastest set-up of the run and ``pass_s`` the sum,
    over the parts of a pass, of each part's fastest time, not medians:
    the host's load slows whole stretches of seconds, and a short part
    meets a quiet moment far more often than a whole pass does.  Set-ups
    are spread over the run, one after the first pass that ends at least
    ``SETUP_GAP`` seconds after the last, so that a slow stretch meets only
    some of them.  The warm-up pass counts towards ``seconds``."""
    deadline = perf_counter() + seconds
    runner.one_pass()  # warm-up: checked, not timed
    setups = [setup_seconds(wl)]
    last = perf_counter()

    def setup_now(_):
        nonlocal last
        if perf_counter() - last >= SETUP_GAP:
            setups.append(setup_seconds(wl))
            last = perf_counter()

    times = runner.passes(deadline - perf_counter(), after=setup_now)
    pass_s = sum(min(part) for part in zip(*times))
    setup_s = min(setups)
    runner.info.append(f"{len(times)} timed passes; fastest whole pass "
                       f"{min(map(sum, times)):.6g} s; {statistics.median(runner.faults):.0f} "
                       f"page faults a pass")
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "steps_per_s": (wl.steps / pass_s, "1/s"),
        "plans_per_s": (wl.plans / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, runner, seconds) -> tuple[dict, bool]:
    """Untraced passes, then traced ones, within ``seconds``; then one
    pass under tracemalloc, last because it leaves the heap in another
    state.  Returns the metrics and whether every traced call count
    matched."""
    deadline = perf_counter() + seconds
    want = wl.expected_calls(runner.lib)
    runner.one_pass()  # warm-up
    runner.faults.clear()
    untraced = [sum(t) for t in runner.passes((deadline - perf_counter()) / 2)]
    faults = statistics.median(runner.faults)

    tracer = spans.Tracer()
    aggs: list[dict] = []
    mismatches: list[str] = []
    SPANS_DIR.mkdir(exist_ok=True)
    out = SPANS_DIR / f"{wl.name}-spans.jsonl"

    def collect(pass_id):
        recorded = tracer.take()
        if pass_id == 0:
            spans.write_jsonl(out, recorded, pass_id)
        agg = spans.summarize(recorded)
        rows = [agg.get(name, EMPTY) for name in CONSTRUCT]
        agg["circuits.construct"] = [sum(col) for col in zip(*rows)]
        agg["splitting.steps"] = [agg.get("splitting.simulate", EMPTY)[3], 0.0, 0.0, 0]
        for name in workloads.COUNTED:
            got = agg.get(name, EMPTY)[0]
            if got != want[name]:
                mismatches.append(f"pass {pass_id}: {name} {got} calls, plans give {want[name]}")
        aggs.append(agg)

    tracer.install()
    try:
        traced = [sum(t) for t in runner.passes(deadline - perf_counter(), after=collect)]
    finally:
        tracer.uninstall()

    # peak allocation of the pass's operations alone; the checks run after
    tracemalloc.start()
    try:
        results = wl.run_pass(runner.lib)[0]
        alloc = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    runner.tally(results)

    traced_s = min(traced)
    fastest = aggs[traced.index(traced_s)]

    def calls(name):
        return (fastest.get(name, EMPTY)[0], "count")

    def secs(name, k=1):
        return (fastest.get(name, EMPTY)[k], "s")

    sv = ("statevector.apply_1q", "statevector.apply_controlled", "statevector.postselect")
    amps = sum(fastest.get(name, EMPTY)[3] for name in sv)
    sv_s = sum(fastest.get(name, EMPTY)[1] for name in sv)
    metrics = {
        "statevector.apply_1q.calls": calls(sv[0]),
        "statevector.apply_1q.s": secs(sv[0]),
        "statevector.apply_controlled.calls": calls(sv[1]),
        "statevector.apply_controlled.s": secs(sv[1]),
        "statevector.postselect.calls": calls(sv[2]),
        "statevector.postselect.s": secs(sv[2]),
        "statevector.amps_touched": (amps, "count"),
        "statevector.ns_per_amp": (sv_s / amps * 1e9 if amps else 0.0, "ns"),
        "statevector.alloc_mb": (alloc, "MB"),
        "process.minor_faults": (faults, "count"),
        "circuits.apply_circuit.calls": calls("circuits.apply_circuit"),
        "circuits.apply_circuit.self_s": secs("circuits.apply_circuit", 2),
        "circuits.construct.calls": calls("circuits.construct"),
        "circuits.construct.s": secs("circuits.construct"),
        "splitting.build_step.calls": calls("splitting.build_step"),
        "splitting.build_step.self_s": secs("splitting.build_step", 2),
        "splitting.simulate.calls": calls("splitting.simulate"),
        "splitting.simulate.self_s": secs("splitting.simulate", 2),
        "splitting.steps": calls("splitting.steps"),
        "reference.spectral_pairs.s": secs("reference.spectral_pairs"),
        "reference.encode_initial.s": secs("reference.encode_initial"),
        "reference.exact_solution.s": secs("reference.exact_solution"),
        "harness.gaussian_profile.s": secs("harness.gaussian_profile"),
        "harness.run_case.self_s": secs("harness.run_case", 2),
        "harness.convergence_sweep.self_s": secs("harness.convergence_sweep", 2),
        "harness.gate_report.self_s": secs("harness.gate_report", 2),
        "trace.pass_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - min(untraced), "s"),
    }
    runner.notes.extend(mismatches[:10])
    return metrics, not mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    wl = workloads.Workload(args.workload, args.seed)
    if args.setup_only:
        t0 = perf_counter()
        wl.prepare(import_library())
        print(perf_counter() - t0)
        return 0
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = Runner(wl, lib)
    if args.trace:
        metrics, counts_ok = per_layer(wl, runner, args.seconds)
    else:
        metrics, counts_ok = end_to_end(wl, runner, args.seconds), True

    correct = counts_ok and runner.wrong == 0
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"attempted {runner.attempted} failed {runner.failed}")
    for note in runner.notes:
        print(f"  FAIL {note}")
    for line in runner.info:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
