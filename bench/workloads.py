"""The four benchmark workloads: their operations, passes and checks.

An operation is one emulated trajectory (one ``run_case``, or one row of
a ``convergence_sweep``) or one ``gate_report``.  A pass runs every
operation of the workload once; outputs are checked against ``oracle``
after the pass, outside the timed region.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import oracle

GAMMA = 0.5  # gamma L / c with c = L = 1

# Pinned copies of the library's default sweep step counts for n = 5,
# t = 0.43, so that the paper workload does not move if the defaults do.
PAPER_SWEEP_STEPS = {
    "lie": (32, 48, 64, 96, 128, 192, 256),
    "strang": (16, 24, 32, 48, 64, 96, 128),
    "castella4": (8, 12, 16, 24, 32, 48, 64),
    "bernier6": (6, 8, 12, 16, 24, 32),
}
SCHEMES = ("lie", "strang", "castella4", "bernier6")


@dataclass(frozen=True)
class Case:
    """One ``harness.run_case`` trajectory."""
    scheme: str
    n: int
    d: int
    t_final: float
    steps: int


@dataclass(frozen=True)
class Sweep:
    """One ``harness.convergence_sweep``: one operation per step count."""
    scheme: str
    n: int
    t_final: float
    steps: tuple[int, ...]
    d: int = 1


@dataclass(frozen=True)
class Gates:
    """One ``harness.gate_report``."""
    scheme: str
    n: int
    d: int


REFERENCE = Case("bernier6", 7, 1, 0.7, 4)
WIDE = Case("bernier6", 14, 1, 0.7, 1)
CUBE = Case("bernier6", 5, 3, 0.7, 1)
# budget visits its 240 plans this many times a pass, each time in a new
# seeded order, so that a pass lasts about as long as a cube pass
BUDGET_VISITS = 4
NAMES = ("paper", "wide", "cube", "budget")


def _trajectories(job) -> tuple[int, ...]:
    return job.steps if isinstance(job, Sweep) else (job.steps,)


class Workload:
    def __init__(self, name: str, seed: int):
        rng = random.Random(seed)
        self.name, self.seed = name, seed
        self.shifts = tuple(rng.randrange(oracle.SHIFT_CELLS) for _ in range(3))
        if name == "paper":
            self.jobs = [REFERENCE] + [Sweep(s, 5, 0.43, PAPER_SWEEP_STEPS[s])
                                       for s in SCHEMES]
        elif name == "wide":
            self.jobs = [WIDE]
        elif name == "cube":
            self.jobs = [CUBE]
        elif name == "budget":
            plans = [Gates(s, n, d) for s in SCHEMES
                     for n in range(1, 21) for d in (1, 2, 3)]
            self.chunks = []
            for _ in range(BUDGET_VISITS):
                rng.shuffle(plans)
                self.chunks.append(list(plans))
        else:
            raise ValueError(f"unknown workload {name!r}")
        # a chunk is timed as a unit: each job, or each visit of budget's plans
        if name == "budget":
            self.jobs = [job for chunk in self.chunks for job in chunk]
        else:
            self.chunks = [[job] for job in self.jobs]
        # set-up builds one plan that does not depend on the seed
        self.first = Gates("bernier6", 7, 1) if name == "budget" else self.jobs[0]
        self.systems = sorted({(j.n, j.d) for j in self.jobs if not isinstance(j, Gates)})
        self.ops = sum(len(_trajectories(j)) if not isinstance(j, Gates) else 1
                       for j in self.jobs)
        self.plans = self.ops  # every operation builds one step plan
        # steps emulated per pass; budget lays out one step per plan
        self.steps = self.plans if name == "budget" else sum(
            sum(_trajectories(j)) for j in self.jobs)

    def prepare(self, lib) -> None:
        """Set-up work timed as ``setup_s``: the first profile, its
        encoding and the first step plan (a plan alone for budget)."""
        job = self.first
        scheme = lib.schemes.get_scheme(job.scheme)
        if isinstance(job, Gates):
            lib.splitting.build_step(scheme, lib.ModeSystem(n=job.n, d=job.d), 1.0)
            return
        sys_ = lib.ModeSystem(n=job.n, d=job.d, gamma=GAMMA)
        phi, dphi = lib.harness.gaussian_profile(sys_)
        lib.reference.encode_initial(phi, dphi)
        lib.splitting.build_step(scheme, sys_, job.t_final / _trajectories(job)[0])

    def _profiles(self, lib) -> dict:
        out = {}
        for n, d in self.systems:
            phi, dphi = lib.harness.gaussian_profile(lib.ModeSystem(n=n, d=d, gamma=GAMMA))
            cells = [s * 2**n // oracle.SHIFT_CELLS for s in self.shifts[:d]]
            out[(n, d)] = (np.roll(phi, cells, axis=tuple(range(d))), dphi)
        return out

    def run_pass(self, lib) -> tuple[list, list[float]]:
        """Run every operation once.  Returns the results, an exception
        standing in for a failed operation's, and the seconds each part of
        the pass took: the profiles, then each chunk of jobs."""
        h = lib.harness
        t0 = perf_counter()
        profiles = self._profiles(lib)
        times = [perf_counter() - t0]
        results = []
        for chunk in self.chunks:
            t0 = perf_counter()
            for job in chunk:
                scheme = lib.schemes.get_scheme(job.scheme)
                try:
                    if isinstance(job, Gates):
                        res = h.gate_report(scheme, job.n, job.d)
                    else:
                        sys_ = lib.ModeSystem(n=job.n, d=job.d, gamma=GAMMA)
                        phi, dphi = profiles[(job.n, job.d)]
                        run = h.run_case if isinstance(job, Case) else h.convergence_sweep
                        res = run(scheme, sys_, job.t_final, job.steps, phi, dphi)
                except Exception as exc:  # counted as failed operations
                    res = exc
                results.append(res)
            times.append(perf_counter() - t0)
        return results, times

    def expectations(self, lib) -> list:
        out = []
        for job in self.jobs:
            if isinstance(job, Gates):
                out.append(None)
                continue
            s = lib.schemes.get_scheme(job.scheme)
            out.append([oracle.trajectory(s.a, s.b, job.n, job.d, GAMMA, job.t_final,
                                          T, self.shifts[:job.d])
                        for T in _trajectories(job)])
        return out

    def check(self, lib, results, expect) -> tuple[int, int, int, list[str]]:
        """Returns (attempted, failed, wrong, notes); ``wrong`` counts the
        failed operations that returned a result the oracle rejects."""
        attempted = failed = wrong = 0
        notes: list[str] = []
        for job, res, want in zip(self.jobs, results, expect):
            ops = len(_trajectories(job)) if not isinstance(job, Gates) else 1
            attempted += ops
            if isinstance(res, Exception):
                failed += ops
                notes.append(f"{job}: {type(res).__name__}: {res}")
                continue
            if isinstance(job, Gates):
                s = lib.schemes.get_scheme(job.scheme)
                per_op = [oracle.check_gates(res, s.a, s.b, job.n, job.d)]
            elif isinstance(job, Case):
                per_op = [oracle.check_trajectory(res, want[0], job.steps)]
            else:
                per_op = [oracle.check_trajectory(row, w, T)
                          for row, w, T in zip(res.rows, want, job.steps)]
                per_op += [["missing row"]] * (ops - len(per_op))
                target = oracle.ORDER[job.scheme]
                if not abs(res.fitted_order - target) <= oracle.ORDER_TOL:
                    per_op = [f + [f"fitted order {res.fitted_order:.3f} vs {target}"]
                              for f in per_op]
            for faults in per_op:
                if faults:
                    failed += 1
                    wrong += 1
                    notes.append(f"{job}: " + "; ".join(faults))
        return attempted, failed, wrong, notes

    def expected_calls(self, lib) -> Counter:
        """Calls per pass of each traced function, from the step plans'
        ops and ``stage_counts()``; ``splitting.steps`` counts steps."""
        c = Counter(dict.fromkeys(COUNTED, 0))
        c["harness.gaussian_profile"] = len(self.systems)
        for job in self.jobs:
            scheme = lib.schemes.get_scheme(job.scheme)
            if isinstance(job, Gates):
                c["harness.gate_report"] += 1
                _plan_calls(c, lib.splitting.build_step(
                    scheme, lib.ModeSystem(n=job.n, d=job.d), 1.0), 0)
                continue
            if isinstance(job, Sweep):
                c["harness.convergence_sweep"] += 1
            sys_ = lib.ModeSystem(n=job.n, d=job.d, gamma=GAMMA)
            for T in _trajectories(job):
                c["harness.run_case"] += 1
                c["reference.spectral_pairs"] += 2  # run_case and encode_initial
                c["reference.encode_initial"] += 1
                c["reference.exact_solution"] += 1
                _plan_calls(c, lib.splitting.build_step(scheme, sys_, job.t_final / T), T)
        return c


COUNTED = (
    "statevector.apply_1q", "statevector.apply_controlled", "statevector.postselect",
    "circuits.apply_circuit", "circuits.construct", "splitting.build_step",
    "splitting.simulate", "splitting.steps", "reference.spectral_pairs",
    "reference.encode_initial", "reference.exact_solution", "harness.gaussian_profile",
    "harness.run_case", "harness.convergence_sweep", "harness.gate_report",
)


def _plan_calls(c: Counter, plan, T: int) -> None:
    counts = plan.stage_counts()
    circuits = counts["wave"] + counts["damp_real"] + counts["damp_phase"]
    c["splitting.build_step"] += 1
    c["circuits.construct"] += circuits
    if not T:
        return
    c["splitting.simulate"] += 1
    c["splitting.steps"] += T
    c["circuits.apply_circuit"] += T * circuits
    c["statevector.postselect"] += T * counts["postselect"]
    for stage in plan.stages:
        circuit = getattr(stage, "circuit", None)
        for op in circuit.ops if circuit is not None else ():
            kind = "apply_1q" if op.control is None else "apply_controlled"
            c[f"statevector.{kind}"] += T
