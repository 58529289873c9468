"""Statevector emulation of high-order operator splitting for damped waves.

The package builds quantum circuits that evolve the spectral modes of
the periodic damped-wave equation, composes them into splitting steps
whose dissipative coefficients may be complex, and validates the
emulated evolution against closed-form propagators.
"""

from .schemes import (SplittingScheme, ValidationReport, builtin_schemes,
                      get_scheme, validate_scheme)
from .statevector import (DegeneratePostselectionError, Gate2x2, StateVector,
                          apply_1q, apply_controlled, postselect)
from .circuits import (Circuit, GateOp, ModeSystem, RegisterLayout,
                       apply_circuit, circuit_dump, circuit_to_matrix,
                       cnot_count, damping_phase_gate, damping_real_circuit,
                       qft_circuit, wave_evolution_circuit)
from .reference import (ModePairs, decode_state, dense_expm, encode_initial,
                        exact_solution, hermitian_split, mode_propagator,
                        spectral_pairs)
from .splitting import (RunReport, SplitStepPlan, Stage, build_step,
                        generic_split_matrix, simulate)
from .harness import (ConvergenceTable, GateReport, convergence_sweep,
                      emit_csv, gate_report, gaussian_profile, run_case)

__version__ = "0.1.0"
