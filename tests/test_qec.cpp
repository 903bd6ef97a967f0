// Repetition-code tests: the paper's QEC argument made executable. Single
// faults of the matching type are corrected; mismatched-type and
// double faults defeat the code.
#include <gtest/gtest.h>

#include <numbers>

#include "core/injection.hpp"
#include "core/qvf.hpp"
#include "qec/repetition_code.hpp"
#include "sim/statevector.hpp"
#include "util/error.hpp"

namespace qufi::qec {
namespace {

constexpr double kPi = std::numbers::pi;

double ideal_qvf_with_fault(const algo::AlgorithmCircuit& bench,
                            const PhaseShiftFault& fault, int qubit) {
  const InjectionPoint point{memory_window_index(bench.circuit), qubit,
                             qubit, 0};
  const auto faulty = inject_fault(bench.circuit, point, fault);
  const auto probs = sim::ideal_clbit_probabilities(faulty);
  const auto golden = golden_from_expected(bench.expected_outputs,
                                           bench.circuit.num_clbits());
  return compute_qvf(probs, golden);
}

double ideal_qvf_with_double_fault(const algo::AlgorithmCircuit& bench,
                                   const PhaseShiftFault& fault, int q0,
                                   int q1) {
  const InjectionPoint point{memory_window_index(bench.circuit), q0, q0, 0};
  const auto faulty =
      inject_double_fault(bench.circuit, point, fault, q1, fault);
  const auto probs = sim::ideal_clbit_probabilities(faulty);
  const auto golden = golden_from_expected(bench.expected_outputs,
                                           bench.circuit.num_clbits());
  return compute_qvf(probs, golden);
}

// ------------------------------------------------------- fault-free logic

class MemoryFaultFree
    : public ::testing::TestWithParam<std::tuple<Payload, CodeType>> {};

TEST_P(MemoryFaultFree, IdealOutputIsPayload) {
  const auto [payload, code] = GetParam();
  const auto bench = protected_memory(payload, code);
  const auto probs = sim::ideal_clbit_probabilities(bench.circuit);
  const auto golden = golden_from_expected(bench.expected_outputs, 1);
  EXPECT_NEAR(compute_qvf(probs, golden), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, MemoryFaultFree,
    ::testing::Combine(::testing::Values(Payload::Zero, Payload::One,
                                         Payload::Plus),
                       ::testing::Values(CodeType::None, CodeType::BitFlip,
                                         CodeType::PhaseFlip)));

// --------------------------------------------- single-fault correction

TEST(BitFlipCode, CorrectsSingleThetaPiFaultOnEveryQubit) {
  const auto bench = protected_memory(Payload::One, CodeType::BitFlip);
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(ideal_qvf_with_fault(bench, {kPi, 0.0}, q), 0.0, 1e-9)
        << "qubit " << q;
  }
}

TEST(BitFlipCode, UnprotectedQubitFlips) {
  const auto bench = protected_memory(Payload::One, CodeType::None);
  EXPECT_NEAR(ideal_qvf_with_fault(bench, {kPi, 0.0}, 0), 1.0, 1e-9);
}

TEST(BitFlipCode, DoesNotCorrectPhaseFaultOnPlus) {
  const auto bench = protected_memory(Payload::Plus, CodeType::BitFlip);
  // Z-equivalent fault (phi = pi) on any single qubit flips the logical |+>.
  EXPECT_NEAR(ideal_qvf_with_fault(bench, {0.0, kPi}, 0), 1.0, 1e-9);
}

TEST(PhaseFlipCode, CorrectsSinglePhaseFaultOnEveryQubit) {
  const auto bench = protected_memory(Payload::Plus, CodeType::PhaseFlip);
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(ideal_qvf_with_fault(bench, {0.0, kPi}, q), 0.0, 1e-9)
        << "qubit " << q;
  }
}

TEST(PhaseFlipCode, UnprotectedPlusDiesFromPhaseFault) {
  const auto bench = protected_memory(Payload::Plus, CodeType::None);
  EXPECT_NEAR(ideal_qvf_with_fault(bench, {0.0, kPi}, 0), 1.0, 1e-9);
}

TEST(PhaseFlipCode, CorrectsSingleThetaFaultOnComputationalPayload) {
  // theta = pi (a Y-like shift) acts as a correctable +/- flip in the
  // Hadamard frame: the phase code absorbs it on |1>_L.
  const auto bench = protected_memory(Payload::One, CodeType::PhaseFlip);
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(ideal_qvf_with_fault(bench, {kPi, 0.0}, q), 0.0, 1e-9)
        << "qubit " << q;
  }
}

TEST(PhaseFlipCode, CorrectsSinglePhaseFaultOnComputationalPayload) {
  const auto bench = protected_memory(Payload::One, CodeType::PhaseFlip);
  EXPECT_NEAR(ideal_qvf_with_fault(bench, {0.0, kPi}, 1), 0.0, 1e-9);
}

TEST(BitFlipCode, PartialThetaFaultIsSuppressed) {
  // theta = pi/2 flips with probability 1/2 unprotected; the code reduces
  // the logical flip probability to ~p^2-ish terms.
  const auto plain = protected_memory(Payload::One, CodeType::None);
  const auto coded = protected_memory(Payload::One, CodeType::BitFlip);
  const double qvf_plain = ideal_qvf_with_fault(plain, {kPi / 2, 0.0}, 0);
  const double qvf_coded = ideal_qvf_with_fault(coded, {kPi / 2, 0.0}, 0);
  EXPECT_LT(qvf_coded, qvf_plain);
}

// ----------------------------------------------- double faults defeat QEC

TEST(DoubleFaults, DefeatBitFlipCode) {
  const auto bench = protected_memory(Payload::One, CodeType::BitFlip);
  for (const auto& [a, b] :
       {std::pair{0, 1}, std::pair{0, 2}, std::pair{1, 2}}) {
    EXPECT_NEAR(ideal_qvf_with_double_fault(bench, {kPi, 0.0}, a, b), 1.0,
                1e-9)
        << a << "," << b;
  }
}

TEST(DoubleFaults, DefeatPhaseFlipCode) {
  // Two Z faults = logical flip x weight-1 error: the decoder miscorrects
  // and the computational payload flips.
  const auto bench = protected_memory(Payload::One, CodeType::PhaseFlip);
  EXPECT_NEAR(ideal_qvf_with_double_fault(bench, {0.0, kPi}, 0, 1), 1.0,
              1e-9);
}

TEST(DoubleFaults, InvisibleOnLogicalXEigenstate) {
  // On |+>_L the logical-X component of a weight-2 Z error is invisible:
  // the decoder sees an effective weight-1 error and recovers. This is why
  // multi-qubit fault criticality is *state dependent* (paper: "the fault
  // criticality is circuit-dependent").
  const auto bench = protected_memory(Payload::Plus, CodeType::PhaseFlip);
  EXPECT_NEAR(ideal_qvf_with_double_fault(bench, {0.0, kPi}, 0, 1), 0.0,
              1e-9);
}

// ------------------------------------------------------ measured variant

class MeasuredMemory : public ::testing::TestWithParam<int> {};

TEST_P(MeasuredMemory, MajorityDecodesFaultFree) {
  const int distance = GetParam();
  for (auto payload : {Payload::Zero, Payload::One}) {
    const auto bench =
        repetition_memory_measured(distance, payload, CodeType::BitFlip);
    const auto probs = sim::ideal_clbit_probabilities(bench.circuit);
    const auto logical = decode_majority(probs, distance);
    EXPECT_NEAR(logical[payload == Payload::One ? 1 : 0], 1.0, 1e-9);
  }
}

TEST_P(MeasuredMemory, MajorityAbsorbsMinorityFlips) {
  const int distance = GetParam();
  const auto bench =
      repetition_memory_measured(distance, Payload::One, CodeType::BitFlip);
  // Flip (distance-1)/2 qubits: majority still reads 1.
  auto faulty = bench.circuit;
  // Insert X right after the barrier on the first (d-1)/2 qubits.
  const auto window = memory_window_index(bench.circuit);
  for (int q = 0; q < (distance - 1) / 2; ++q) {
    faulty = inject_fault(faulty, InjectionPoint{window, q, q, 0},
                          PhaseShiftFault{kPi, 0.0});
  }
  const auto probs = sim::ideal_clbit_probabilities(faulty);
  const auto logical = decode_majority(probs, distance);
  EXPECT_NEAR(logical[1], 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Distances, MeasuredMemory, ::testing::Values(1, 3, 5, 7));

TEST(MeasuredMemory, Validation) {
  EXPECT_THROW(repetition_memory_measured(2, Payload::One, CodeType::BitFlip),
               Error);
  EXPECT_THROW(repetition_memory_measured(3, Payload::Plus, CodeType::BitFlip),
               Error);
  EXPECT_THROW(repetition_memory_measured(3, Payload::One, CodeType::None),
               Error);
}

TEST(MajorityStrings, CountsAndMembership) {
  const auto ones = majority_strings(3, true);
  EXPECT_EQ(ones.size(), 4u);  // 011 101 110 111
  EXPECT_NE(std::find(ones.begin(), ones.end(), "110"), ones.end());
  const auto zeros = majority_strings(3, false);
  EXPECT_EQ(zeros.size(), 4u);
  EXPECT_NE(std::find(zeros.begin(), zeros.end(), "001"), zeros.end());
}

TEST(DecodeMajority, SplitsDistribution) {
  const std::vector<double> probs{0.1, 0.2, 0.3, 0.0, 0.2, 0.0, 0.1, 0.1};
  const auto logical = decode_majority(probs, 3);
  // Majority-one states: 3 (011), 5 (101), 6 (110), 7 (111).
  EXPECT_NEAR(logical[1], 0.0 + 0.0 + 0.1 + 0.1, 1e-12);
  EXPECT_NEAR(logical[0] + logical[1], 1.0, 1e-12);
}

}  // namespace
}  // namespace qufi::qec
