#include "algorithms/algorithms.hpp"

#include <numbers>

#include "util/bitstring.hpp"
#include "util/error.hpp"

namespace qufi::algo {

namespace {
constexpr double kPi = std::numbers::pi;
}

circ::QuantumCircuit qft_circuit(int num_qubits, bool do_swaps) {
  require(num_qubits >= 1, "qft_circuit: need >= 1 qubit");
  circ::QuantumCircuit qc(num_qubits);
  qc.set_name("qft" + std::to_string(num_qubits));
  for (int j = num_qubits - 1; j >= 0; --j) {
    qc.h(j);
    for (int k = j - 1; k >= 0; --k) {
      // Controlled phase pi / 2^{j-k} between qubit k (control) and j.
      qc.cp(kPi / static_cast<double>(1ULL << (j - k)), k, j);
    }
  }
  if (do_swaps) {
    for (int q = 0; q < num_qubits / 2; ++q) qc.swap(q, num_qubits - 1 - q);
  }
  return qc;
}

circ::QuantumCircuit iqft_circuit(int num_qubits, bool do_swaps) {
  auto qc = qft_circuit(num_qubits, do_swaps).inverse();
  qc.set_name("iqft" + std::to_string(num_qubits));
  return qc;
}

std::uint64_t default_qft_value(int num_qubits) {
  std::uint64_t value = 0;
  for (int i = num_qubits - 1; i >= 0; i -= 2) value |= 1ULL << i;
  return value;
}

AlgorithmCircuit qft_benchmark(int num_qubits, std::uint64_t value) {
  require(num_qubits >= 1, "qft_benchmark: need >= 1 qubit");
  require(num_qubits >= 64 || value < (1ULL << num_qubits),
          "qft_benchmark: value wider than register");

  circ::QuantumCircuit qc(num_qubits, num_qubits);
  qc.set_name("qft" + std::to_string(num_qubits));

  // Prepare QFT|value> as a product state: qubit k holds
  // (|0> + exp(2 pi i value 2^k / 2^n) |1>) / sqrt(2).
  for (int k = 0; k < num_qubits; ++k) {
    qc.h(k);
    const double angle = 2.0 * kPi * static_cast<double>(value) *
                         static_cast<double>(1ULL << k) /
                         static_cast<double>(1ULL << num_qubits);
    qc.p(angle, k);
  }
  qc.barrier();
  qc.compose(iqft_circuit(num_qubits));
  for (int q = 0; q < num_qubits; ++q) qc.measure(q, q);

  return AlgorithmCircuit{std::move(qc),
                          {util::to_bitstring(value, num_qubits)}};
}

AlgorithmCircuit paper_circuit(const std::string& name, int num_qubits) {
  // Basis states and default inputs are 64-bit masks: bound the width
  // before any builder shifts by it.
  require(num_qubits >= 1 && num_qubits < 64,
          "paper_circuit: width " + std::to_string(num_qubits) +
              " out of range [1, 63]");
  if (name == "bv") {
    return bernstein_vazirani(num_qubits, default_bv_secret(num_qubits));
  }
  if (name == "dj") {
    std::uint64_t mask = 0;  // all ones over the data register
    for (int i = 0; i < num_qubits - 1; ++i) mask |= 1ULL << i;
    return deutsch_jozsa(num_qubits, DjOracle::Balanced, mask);
  }
  if (name == "qft") {
    return qft_benchmark(num_qubits, default_qft_value(num_qubits));
  }
  if (name == "ghz") return ghz(num_qubits);
  if (name == "grover") {
    return grover(num_qubits, (1ULL << num_qubits) - 1);  // mark all-ones
  }
  throw Error("paper_circuit: unknown circuit name '" + name +
              "' (expected bv, dj, qft, ghz or grover)");
}

}  // namespace qufi::algo
