// QVF metric tests: contrast algebra, golden outputs, classification.
#include <gtest/gtest.h>

#include <string>

#include "algorithms/algorithms.hpp"
#include "core/fault_model.hpp"
#include "core/qvf.hpp"
#include "util/error.hpp"

namespace qufi {
namespace {

constexpr double kPi = 3.14159265358979323846;

// ------------------------------------------------------------- contrast

TEST(Contrast, PaperEquationValues) {
  EXPECT_DOUBLE_EQ(michelson_contrast(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(michelson_contrast(0.0, 1.0), -1.0);
  EXPECT_DOUBLE_EQ(michelson_contrast(0.5, 0.5), 0.0);
  EXPECT_NEAR(michelson_contrast(0.901, 0.043), (0.901 - 0.043) / 0.944,
              1e-12);
  EXPECT_DOUBLE_EQ(michelson_contrast(0.0, 0.0), 0.0);  // defined as 0
  EXPECT_THROW(michelson_contrast(-0.5, 0.1), Error);
}

TEST(Qvf, RangeMapping) {
  // Perfect output -> QVF 0; fully wrong -> 1; ambiguous -> 0.5.
  EXPECT_DOUBLE_EQ(qvf_from_contrast(1.0), 0.0);
  EXPECT_DOUBLE_EQ(qvf_from_contrast(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(qvf_from_contrast(0.0), 0.5);
  EXPECT_THROW(qvf_from_contrast(1.5), Error);
}

TEST(Qvf, PaperFig4Example) {
  // Fig. 4: fault-free P(A)=0.901, highest wrong 0.043 -> low QVF;
  // faulty P(A)=0.169, P(B)=0.763 -> high QVF.
  const double qvf_ok =
      qvf_from_contrast(michelson_contrast(0.901, 0.043));
  const double qvf_bad =
      qvf_from_contrast(michelson_contrast(0.169, 0.763));
  EXPECT_LT(qvf_ok, 0.05);
  EXPECT_GT(qvf_bad, 0.8);
}

TEST(Qvf, Classification) {
  EXPECT_EQ(classify_qvf(0.1), FaultImpact::Masked);
  EXPECT_EQ(classify_qvf(0.5), FaultImpact::Dubious);
  EXPECT_EQ(classify_qvf(0.9), FaultImpact::SilentError);
  EXPECT_STREQ(to_string(FaultImpact::Masked), "masked");
  EXPECT_STREQ(to_string(FaultImpact::Dubious), "dubious");
  EXPECT_STREQ(to_string(FaultImpact::SilentError), "silent-error");
}

// --------------------------------------------------------------- golden

TEST(Golden, ComputedFromIdealSimulation) {
  const auto bench = algo::bernstein_vazirani(4, 0b011);
  const auto golden = compute_golden(bench.circuit);
  ASSERT_EQ(golden.correct_states.size(), 1u);
  EXPECT_EQ(golden.correct_states[0], 0b011u);
  EXPECT_TRUE(golden.is_correct(0b011));
  EXPECT_FALSE(golden.is_correct(0b111));
}

TEST(Golden, MultiStateGhz) {
  const auto bench = algo::ghz(3);
  const auto golden = compute_golden(bench.circuit);
  ASSERT_EQ(golden.correct_states.size(), 2u);
  EXPECT_TRUE(golden.is_correct(0b000));
  EXPECT_TRUE(golden.is_correct(0b111));
}

TEST(Golden, AgreesWithAnalyticalExpectations) {
  for (const char* name : {"bv", "dj", "qft"}) {
    for (int width : {4, 5, 6, 7}) {
      const auto bench = algo::paper_circuit(name, width);
      const auto computed = compute_golden(bench.circuit);
      const auto declared = golden_from_expected(bench.expected_outputs,
                                                 bench.circuit.num_clbits());
      EXPECT_EQ(computed.correct_states, declared.correct_states)
          << name << " width " << width;
    }
  }
}

TEST(Golden, FromExpectedValidation) {
  const std::string bits[] = {std::string("10")};
  const auto golden = golden_from_expected(bits, 2);
  EXPECT_TRUE(golden.is_correct(0b10));
  const std::string wrong_width[] = {std::string("101")};
  EXPECT_THROW(golden_from_expected(wrong_width, 2), Error);
  EXPECT_THROW(golden_from_expected({}, 2), Error);
}

TEST(Golden, TieToleranceValidated) {
  const auto bench = algo::ghz(2);
  EXPECT_THROW(compute_golden(bench.circuit, 0.0), Error);
  EXPECT_THROW(compute_golden(bench.circuit, 1.5), Error);
}

// ----------------------------------------------------------- compute_qvf

TEST(ComputeQvf, PerfectAndWorstDistributions) {
  const std::string bits[] = {std::string("11")};
  const auto golden = golden_from_expected(bits, 2);
  const std::vector<double> perfect{0, 0, 0, 1.0};
  EXPECT_NEAR(compute_qvf(perfect, golden), 0.0, 1e-12);
  const std::vector<double> worst{1.0, 0, 0, 0};
  EXPECT_NEAR(compute_qvf(worst, golden), 1.0, 1e-12);
  const std::vector<double> ambiguous{0.5, 0, 0, 0.5};
  EXPECT_NEAR(compute_qvf(ambiguous, golden), 0.5, 1e-12);
}

TEST(ComputeQvf, AggregatesMultipleCorrectStates) {
  const std::string bits[] = {std::string("00"), std::string("11")};
  const auto golden = golden_from_expected(bits, 2);
  // Split between the two correct states: P(A)=0.9, P(B)=0.1.
  const std::vector<double> probs{0.45, 0.1, 0.0, 0.45};
  EXPECT_NEAR(compute_qvf(probs, golden),
              qvf_from_contrast(michelson_contrast(0.9, 0.1)), 1e-12);
}

TEST(ComputeQvf, SizeMismatchThrows) {
  const std::string bits[] = {std::string("0")};
  const auto golden = golden_from_expected(bits, 1);
  const std::vector<double> probs{1.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(compute_qvf(probs, golden), Error);
}

// ------------------------------------------------------------ fault model

TEST(FaultModel, PaperGridIs312Configurations) {
  const FaultParamGrid grid;  // defaults = paper values
  EXPECT_EQ(grid.num_theta(), 13);
  EXPECT_EQ(grid.num_phi(), 24);
  EXPECT_EQ(grid.num_configs(), 312);
  EXPECT_EQ(grid.enumerate().size(), 312u);
}

TEST(FaultModel, GridValuesAndOrdering) {
  const FaultParamGrid grid;
  EXPECT_DOUBLE_EQ(grid.theta_at(0), 0.0);
  EXPECT_NEAR(grid.theta_at(12), kPi, 1e-12);
  EXPECT_NEAR(grid.phi_at(23), 2 * kPi - kPi / 12, 1e-12);
  const auto faults = grid.enumerate();
  EXPECT_TRUE(faults[0].is_identity());
  EXPECT_NEAR(faults[1].theta, kPi / 12, 1e-12);  // theta-major within phi
}

TEST(FaultModel, RestrictedPhiGridIncludesEndpoint) {
  FaultParamGrid grid;
  grid.phi_max_deg = 180.0;  // the paper's double-fault restriction
  EXPECT_EQ(grid.num_phi(), 13);
  EXPECT_NEAR(grid.phi_at(12), kPi, 1e-12);
}

TEST(FaultModel, CoarseGridForBenches) {
  FaultParamGrid grid;
  grid.theta_step_deg = 30.0;
  grid.phi_step_deg = 30.0;
  EXPECT_EQ(grid.num_theta(), 7);
  EXPECT_EQ(grid.num_phi(), 12);
}

TEST(FaultModel, Validation) {
  FaultParamGrid bad;
  bad.theta_step_deg = 7.0;  // does not divide 180
  EXPECT_THROW(bad.validate(), Error);
  bad = FaultParamGrid{};
  bad.phi_step_deg = -15.0;
  EXPECT_THROW(bad.validate(), Error);
}

TEST(FaultModel, StepCountsThatOverflowIntAreRefused) {
  // 1e-300 divides any range exactly in double arithmetic, so only the
  // count check stands between it and an lround that wraps the int.
  const auto refusal = [](const FaultParamGrid& grid) -> std::string {
    try {
      grid.validate();
    } catch (const Error& e) {
      return e.what();
    }
    return "accepted";
  };
  FaultParamGrid grid;
  grid.theta_step_deg = 1e-300;
  EXPECT_EQ(refusal(grid),
            "FaultParamGrid: theta step too small (theta count overflows int)");
  grid = FaultParamGrid{};
  grid.phi_step_deg = 1e-300;
  EXPECT_EQ(refusal(grid),
            "FaultParamGrid: phi step too small (phi count overflows int)");
  // Each axis fits (1.8e9 + 1 thetas) but the product with 24 phis does not.
  grid = FaultParamGrid{};
  grid.theta_step_deg = 1e-7;
  EXPECT_EQ(refusal(grid),
            "FaultParamGrid: steps too small (config count overflows int)");
  // A grid just inside the int range still passes.
  grid = FaultParamGrid{};
  grid.theta_step_deg = 180.0 / 1024;
  grid.phi_step_deg = 360.0 / (1 << 20);
  EXPECT_EQ(refusal(grid), "accepted");
  EXPECT_EQ(grid.num_configs(), 1025 << 20);
}

TEST(FaultModel, InstructionIsUGateWithLambdaZero) {
  const PhaseShiftFault fault{kPi / 4, kPi / 2};
  const auto instr = fault.as_instruction(2);
  EXPECT_EQ(instr.kind, circ::GateKind::U);
  EXPECT_EQ(instr.qubits[0], 2);
  ASSERT_EQ(instr.params.size(), 3u);
  EXPECT_DOUBLE_EQ(instr.params[0], kPi / 4);
  EXPECT_DOUBLE_EQ(instr.params[1], kPi / 2);
  EXPECT_DOUBLE_EQ(instr.params[2], 0.0);
}

TEST(Golden, IndexedMembershipMatchesLinearScan) {
  GoldenOutput golden;
  golden.num_clbits = 10;
  golden.ideal_probs.assign(1u << 10, 0.0);
  golden.correct_states = {0, 5, 513, 1023};
  for (const auto s : golden.correct_states) golden.ideal_probs[s] = 0.25;

  // Without an index, is_correct falls back to the linear scan; building
  // the mask must not change any answer over the full state space.
  std::vector<bool> linear(1u << 10, false);
  for (std::uint64_t s = 0; s < (1u << 10); ++s) linear[s] = golden.is_correct(s);
  golden.build_index();
  for (std::uint64_t s = 0; s < (1u << 10); ++s) {
    ASSERT_EQ(golden.is_correct(s), linear[s]) << "state " << s;
  }
  // States beyond the clbit space are never correct.
  EXPECT_FALSE(golden.is_correct(1u << 10));
  EXPECT_FALSE(golden.is_correct(~0ULL));
}

TEST(Golden, BuildIndexRejectsOutOfSpaceStates) {
  GoldenOutput golden;
  golden.num_clbits = 3;
  golden.ideal_probs.assign(8, 0.0);
  golden.correct_states = {9};  // outside 2^3
  EXPECT_THROW(golden.build_index(), Error);
}

TEST(SplitProbabilities, MatchesComputeQvf) {
  const auto bench = algo::ghz(3);
  const auto golden = compute_golden(bench.circuit);
  std::vector<double> probs(golden.ideal_probs.size(), 0.0);
  probs[0] = 0.6;
  probs[3] = 0.3;
  probs[7] = 0.1;
  const auto split = split_probabilities(probs, golden);
  EXPECT_NEAR(split.pa, 0.7, 1e-12);  // GHZ correct states: 000 and 111
  EXPECT_NEAR(split.pb, 0.3, 1e-12);
  EXPECT_NEAR(compute_qvf(probs, golden),
              qvf_from_contrast(michelson_contrast(split.pa, split.pb)),
              1e-15);
}

TEST(FaultModel, GateEquivalentFaults) {
  const auto faults = gate_equivalent_faults();
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0].name, "t");
  EXPECT_NEAR(faults[0].fault.phi, kPi / 4, 1e-12);
  EXPECT_EQ(faults[2].name, "z");
  EXPECT_NEAR(faults[2].fault.phi, kPi, 1e-12);
  EXPECT_EQ(faults[3].name, "y");
  EXPECT_NEAR(faults[3].fault.theta, kPi, 1e-12);
}

}  // namespace
}  // namespace qufi
