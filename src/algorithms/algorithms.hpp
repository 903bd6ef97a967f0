#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "util/rng.hpp"

namespace qufi::algo {

/// A benchmark circuit plus its deterministic ideal output(s): the
/// bitstrings (MSB-first over clbits) a noise-free, fault-free execution
/// produces with the highest probability. QVF's P(A) aggregates these.
struct AlgorithmCircuit {
  circ::QuantumCircuit circuit;
  std::vector<std::string> expected_outputs;
};

/// Bernstein-Vazirani over `num_qubits` total qubits: num_qubits-1 data
/// qubits encoding `secret` (bit i of secret -> data qubit i) plus one
/// ancilla (the last qubit). Ideal output: the secret string. This is the
/// paper's headline circuit (Fig. 4: 4 qubits, secret 101).
AlgorithmCircuit bernstein_vazirani(int num_qubits, std::uint64_t secret);

/// Default secret used across the paper-style experiments: alternating
/// bits 101... of width num_qubits-1.
std::uint64_t default_bv_secret(int num_qubits);

/// Deutsch-Jozsa oracle families.
enum class DjOracle {
  ConstantZero,  ///< f(x) = 0 -> output all zeros
  ConstantOne,   ///< f(x) = 1 -> output all zeros
  Balanced,      ///< f(x) = mask . x -> output = mask
};

/// Deutsch-Jozsa over `num_qubits` total qubits (num_qubits-1 data + 1
/// ancilla). For Balanced, `mask` must be a nonzero (num_qubits-1)-bit
/// value; ideal output is the mask itself.
AlgorithmCircuit deutsch_jozsa(int num_qubits, DjOracle oracle,
                               std::uint64_t mask = 0);

/// Textbook QFT block on n qubits (Qiskit convention:
/// |x> -> 2^{-n/2} sum_y exp(2 pi i x y / 2^n) |y>), with final swaps.
circ::QuantumCircuit qft_circuit(int num_qubits, bool do_swaps = true);

/// Inverse QFT block.
circ::QuantumCircuit iqft_circuit(int num_qubits, bool do_swaps = true);

/// QFT benchmark with a deterministic answer: prepares the Fourier state
/// of `value` with single-qubit gates, applies the inverse QFT and
/// measures; ideal output is `value`. (A bare QFT on a basis state has a
/// uniform output distribution — no correct state to contrast — so, as in
/// common QFT benchmarks, the paper's "QFT circuit" is exercised in this
/// prepare/invert form. See DESIGN.md, substitutions.)
AlgorithmCircuit qft_benchmark(int num_qubits, std::uint64_t value);

/// Default QFT benchmark input: the alternating pattern 0b101... of width
/// num_qubits.
std::uint64_t default_qft_value(int num_qubits);

/// GHZ state preparation + full measurement; two equally probable correct
/// outputs (all zeros / all ones) — exercises multi-state P(A).
AlgorithmCircuit ghz(int num_qubits);

/// Grover search for a single marked state on 2 or 3 qubits with the
/// optimal iteration count; ideal output is the marked state (probability
/// 1.0 for n=2, ~0.945 for n=3).
AlgorithmCircuit grover(int num_qubits, std::uint64_t marked);

/// Random circuit over {1q rotations, h, s, t, x, cx} for property tests;
/// deterministic in `seed`. `two_qubit_fraction` in [0, 1].
circ::QuantumCircuit random_circuit(int num_qubits, int depth,
                                    std::uint64_t seed,
                                    double two_qubit_fraction = 0.3);

/// Random Instantaneous Quantum Polynomial-time circuit (H - diagonal - H
/// sandwich with pi/4-multiple phases), one of the supremacy-candidate
/// workloads the paper's §V-C motivates. Deterministic in `seed`; the
/// output distribution is generally spread, so QVF goldens come from
/// compute_golden's most-probable-state rule. Measures all qubits.
circ::QuantumCircuit iqp_circuit(int num_qubits, std::uint64_t seed,
                                 double two_qubit_fraction = 0.5);

/// Builds a benchmark circuit by name at the given total width, with the
/// defaults above: the three paper circuits ("bv", "dj", "qft"), "ghz", or
/// "grover" (marking the all-ones state). The single by-name dispatcher
/// behind every CLI and submission. Throws qufi::Error on an unknown name
/// or a width outside [1, 63], before any builder runs.
AlgorithmCircuit paper_circuit(const std::string& name, int num_qubits);

}  // namespace qufi::algo
