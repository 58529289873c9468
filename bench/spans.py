"""Span tracing of wavesplit's layers from outside the package.

Each traced function is wrapped once and the wrapper is installed under
every name a wavesplit module bound it to, since callers import by name
(``circuits`` binds ``apply_1q``, ``splitting`` binds ``postselect`` and
the circuit builders, ``harness`` binds ``build_step`` and ``simulate``).
Spans are kept in memory per pass as (name, start, end, parent, work);
self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

TRACED = {
    "statevector": ("apply_1q", "apply_controlled", "postselect"),
    "circuits": ("apply_circuit", "wave_evolution_circuit",
                 "damping_real_circuit", "damping_phase_gate"),
    "splitting": ("build_step", "simulate"),
    "reference": ("spectral_pairs", "encode_initial", "exact_solution"),
    "harness": ("gaussian_profile", "run_case", "convergence_sweep", "gate_report"),
}


def _amplitudes(args, kwargs) -> int:
    state = args[0] if args else kwargs["state"]
    return 2**state.n_qubits


def _steps(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs["T"]


# Work recorded with a span: amplitudes in the state a gate or
# postselection acts on, and the steps a simulate call runs.
WORK = {
    "statevector.apply_1q": _amplitudes,
    "statevector.apply_controlled": _amplitudes,
    "statevector.postselect": _amplitudes,
    "splitting.simulate": _steps,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            w = work(args, kwargs) if work else 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                spans[idx] = (name, t0, t1, parent, w)
        return traced

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items()
                if k == "wavesplit" or k.startswith("wavesplit.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"wavesplit.{layer}"]
            for name in names:
                fn = getattr(home, name)
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded since the last call and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans) -> dict[str, list]:
    """Per span name: [calls, seconds, self seconds, work]."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg: dict[str, list] = {}
    for i, (name, t0, t1, _, w) in enumerate(spans):
        a = agg.setdefault(name, [0, 0.0, 0.0, 0])
        a[0] += 1
        a[1] += t1 - t0
        a[2] += t1 - t0 - child[i]
        a[3] += w
    return agg


def write_jsonl(path, spans, pass_id: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, w in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                 "pass": pass_id, "work": w}) + "\n")
