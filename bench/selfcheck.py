"""Self-check of the benchmark's checker: wrong runs must be caught.

    python3 bench/selfcheck.py

Each fault is injected from outside the package, by replacing the
``build_step`` that ``harness`` bound, for the first operation of one
pass.  The checker must mark exactly that operation failed while the
rest of the pass runs and passes.  Exits 0 when every fault is caught.
"""

from __future__ import annotations

import dataclasses
import sys

import oracle
import run
import workloads


def perturb_coefficient(build, scheme, sys_, dt):
    a = list(scheme.a)
    a[3] += 1e-6
    return build(dataclasses.replace(scheme, a=tuple(a)), sys_, dt)


def _drop_first(plan, kinds):
    """The plan without its first stage whose circuit uses a gate of ``kinds``."""
    stages = list(plan.stages)
    for i, st in enumerate(stages):
        circuit = getattr(st, "circuit", None)
        if circuit is not None and any(op.kind in kinds for op in circuit.ops):
            del stages[i]
            break
    return dataclasses.replace(plan, stages=tuple(stages))


def drop_phase_stage(build, scheme, sys_, dt):
    return _drop_first(build(scheme, sys_, dt), {"P"})


def drop_wave_stage(build, scheme, sys_, dt):
    return _drop_first(build(scheme, sys_, dt), {"CNOT"})


def raise_error(build, scheme, sys_, dt):
    raise ValueError("injected failure")


def faulty_pass(runner, fault) -> None:
    harness = runner.lib.harness
    build = harness.build_step
    calls = []

    def build_step(scheme, sys_, dt):
        calls.append(None)
        if len(calls) == 1:
            return fault(build, scheme, sys_, dt)
        return build(scheme, sys_, dt)

    harness.build_step = build_step
    try:
        runner.one_pass()
    finally:
        harness.build_step = build


def main() -> int:
    lib = run.import_library()
    rows = []
    budget = oracle.cnot_budget(16, 15, 7, 1), oracle.cnot_budget(16, 15, 15, 3)
    rows.append(("bernier6 budget 302 at n=7 d=1, 1562 at n=15 d=3",
                 budget == (302, 1562)))
    cases = [("paper", perturb_coefficient, 1), ("paper", drop_phase_stage, 1),
             ("budget", drop_wave_stage, 1), ("budget", raise_error, 0)]
    for name, fault, wrong in cases:
        wl = workloads.Workload(name, seed=0)
        runner = run.Runner(wl, lib)
        faulty_pass(runner, fault)
        caught = (runner.attempted, runner.failed, runner.wrong) == (wl.ops, 1, wrong)
        runner.one_pass()
        clean = (runner.attempted, runner.failed) == (2 * wl.ops, 1)
        rows.append((f"{name} {fault.__name__}: attempted {runner.attempted} "
                     f"failed {runner.failed} wrong {runner.wrong}", caught and clean))
    for label, ok in rows:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
