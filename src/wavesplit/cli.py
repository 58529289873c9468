"""Command-line front end.

Commands: simulate, sweep, gates, validate-schemes, selftest.  Inputs
are dimensionless (damping as gamma*L/c, time as t*c/L); internally the
wave speed and domain length are 1.  Exit codes: 0 success, 1 a
verification or runtime failure, 2 usage error.

CSV artifacts are byte-reproducible for a fixed configuration, so wall
times are zeroed in files and reported on the console only.
"""

from __future__ import annotations

import argparse
import sys as _sys

from . import harness
from .circuits import ModeSystem
from .reference import spectral_pairs
from .schemes import builtin_schemes, get_scheme, validate_scheme


def _steps_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_problem_args(p: argparse.ArgumentParser, n_default: int,
                      t_default: float) -> None:
    p.add_argument("--scheme", required=True,
                   choices=[s.name for s in builtin_schemes()])
    p.add_argument("--n", type=int, default=n_default,
                   help="data qubits per dimension (1..20)")
    p.add_argument("--d", type=int, default=1, help="spatial dimensions (1..3)")
    p.add_argument("--gamma-ratio", type=float, default=0.5,
                   help="dimensionless damping gamma*L/c")
    p.add_argument("--t-final", type=float, default=t_default,
                   help="dimensionless final time t*c/L")
    p.add_argument("--init", choices=["gaussian"], default="gaussian")
    p.add_argument("--width", type=float, default=harness.GAUSSIAN_WIDTH,
                   help="gaussian exponent scale")
    p.add_argument("--center", type=float, default=harness.GAUSSIAN_CENTER,
                   help="gaussian center as a fraction of the domain")
    p.add_argument("--output", default=None, help="write a CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavesplit",
        description="high-order operator splitting for damped waves "
                    "on an emulated statevector")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one splitting trajectory")
    _add_problem_args(p, n_default=harness.REFERENCE_RUN["n"],
                      t_default=harness.REFERENCE_T_FINAL)
    p.add_argument("--steps", type=int, default=harness.REFERENCE_RUN["steps"])

    p = sub.add_parser("sweep", help="error against step count")
    _add_problem_args(p, n_default=5, t_default=harness.DEFAULT_SWEEP_T_FINAL)
    p.add_argument("--steps-list", type=_steps_list, default=None,
                   help="comma-separated ascending step counts")

    p = sub.add_parser("gates", help="CNOT and qubit budget of one step")
    p.add_argument("--scheme", required=True,
                   choices=[s.name for s in builtin_schemes()])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)

    p = sub.add_parser("validate-schemes", help="check coefficient tables")

    p = sub.add_parser("selftest", help="run the oracle-equivalence suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


# Largest statevector simulate/sweep will build: a run peaks near four
# state-sized arrays of 16 * 2**qubits bytes (3.9 under tracemalloc at
# 18 qubits), about 4 GiB at 26 qubits.
MAX_QUBITS = 26


def _check_ranges(args) -> str | None:
    if not 1 <= args.n <= 20:
        return "--n must be in 1..20"
    if not 1 <= args.d <= 3:
        return "--d must be in 1..3"
    # gates builds no statevector, so the cap is not its concern
    if getattr(args, "command", None) != "gates" and args.n * args.d + 2 > MAX_QUBITS:
        return (f"--n {args.n} --d {args.d} needs {args.n * args.d + 2} qubits; "
                f"the statevector is capped at {MAX_QUBITS}")
    steps = getattr(args, "steps", None)
    if steps is not None and steps < 1:
        return "--steps must be at least 1"
    # nan and +inf reach ModeSystem's own check, which exits 1
    if getattr(args, "gamma_ratio", 0.0) < 0:
        return "--gamma-ratio must be nonnegative"
    return None


def _cmd_simulate(args) -> int:
    sys = ModeSystem(n=args.n, d=args.d, gamma=args.gamma_ratio)
    phi, dphi = harness.gaussian_profile(sys, args.width, args.center)
    report = harness.run_case(get_scheme(args.scheme), sys, args.t_final,
                              args.steps, phi, dphi)
    pairs = spectral_pairs(phi, dphi)
    ratio = harness.analytic_norm_ratio(sys, pairs, args.t_final)
    print(f"scheme={report.scheme} n={report.n} d={report.d} "
          f"steps={report.T} dt={report.dt:.6g} t_final={args.t_final:.6g}")
    print(f"cnots_per_step={report.cnot_per_step} "
          f"cnots_total={report.cnot_total} qubits={report.qubits}")
    print(f"success_prob={report.success_prob:.6f} "
          f"analytic_norm_ratio={ratio:.6f}")
    print(f"epsilon={report.epsilon:.6e}")
    print(f"wall_time_s={report.wall_time:.4f}")
    if args.output:
        harness.emit_csv(harness.scrub_timing([report]), args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_sweep(args) -> int:
    sys = ModeSystem(n=args.n, d=args.d, gamma=args.gamma_ratio)
    phi, dphi = harness.gaussian_profile(sys, args.width, args.center)
    T_list = args.steps_list or list(harness.DEFAULT_SWEEP_STEPS[args.scheme])
    table = harness.convergence_sweep(get_scheme(args.scheme), sys,
                                      args.t_final, T_list, phi, dphi)
    for r in table.rows:
        print(f"T={r.T:<5d} dt={r.dt:.6g} epsilon={r.epsilon:.6e} "
              f"success_prob={r.success_prob:.6f} cnots={r.cnot_total}")
    lo, hi = table.fit_window
    print(f"fitted_order={table.fitted_order:.3f} fit_window={lo}:{hi}")
    if args.output:
        harness.emit_csv(harness.scrub_timing(table.rows), args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_gates(args) -> int:
    report = harness.gate_report(args.scheme, args.n, args.d)
    print(f"scheme={report.scheme} n={report.n} d={report.d}")
    print(f"per_step_cnots={report.per_step_cnots} "
          f"formula_cnots={report.formula_cnots} qubits={report.qubits}")
    if not report.consistent:
        print("gate count mismatch between circuits and formula",
              file=_sys.stderr)
        return 1
    return 0


def _cmd_validate(_args) -> int:
    failed = False
    for scheme in builtin_schemes():
        report = validate_scheme(scheme)
        print(report.summary())
        failed = failed or not report.passed
    return 1 if failed else 0


def _cmd_selftest(args) -> int:
    failures = 0
    for name, passed, detail in harness.selftest(args.seed):
        tag = "ok  " if passed else "FAIL"
        print(f"{tag} {name:<32} {detail}")
        failures += 0 if passed else 1
    print(f"failures={failures}")
    return 1 if failures else 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command in ("simulate", "sweep", "gates"):
        problem = _check_ranges(args)
        if problem is not None:
            print(f"error: {problem}", file=_sys.stderr)
            return 2
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "gates":
            return _cmd_gates(args)
        if args.command == "validate-schemes":
            return _cmd_validate(args)
        return _cmd_selftest(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def main() -> None:
    _sys.exit(run(_sys.argv[1:]))
