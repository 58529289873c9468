"""The spectral wave-evolution circuit, gate by gate.

One selector qubit carries the (displacement, scaled velocity) pair of
every Fourier mode; n data qubits address the mode.  The circuit applies
a mode-dependent rotation R(omega_j * t) to each pair using one
controlled rotation per data qubit plus CNOT bookkeeping for the upper
half of the spectrum, 2n + 4 CNOT equivalents in total, exactly in time.
"""
import numpy as np

from wavesplit.circuits import (
    ModeSystem,
    circuit_dump,
    circuit_to_matrix,
    wave_evolution_circuit,
)

sys3 = ModeSystem(n=3)
tau = 0.9  # dimensionless time zeta * t
circ = wave_evolution_circuit(sys3, tau)

print(f"n=3 wave circuit, tau={tau}, {circ.cnots} CNOT equivalents:")
print(circuit_dump(circ))

mat = circuit_to_matrix(circ)
print("\nper-mode rotation angles recovered from the dense matrix:")
for j, omega in enumerate(sys3.omegas()):
    angle = np.arctan2(mat[j, j + sys3.n_modes].real, mat[j, j].real)
    print(f"  mode {j}: omega={omega:8.4f}  "
          f"angle={angle:8.5f}  expected={omega * tau / sys3.zeta:8.5f}")

half = wave_evolution_circuit(sys3, tau / 2)
twice = circuit_to_matrix(half) @ circuit_to_matrix(half)
print(f"\ncomposition check |U(tau/2)^2 - U(tau)| = "
      f"{np.max(np.abs(twice - mat)):.2e}")
