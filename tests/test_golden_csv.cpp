// Golden-CSV regression: a tiny bv-2q single-fault campaign, committed at
// tests/golden/bv2q_single.csv, diffed byte-exact against a fresh run, and
// a bv-2q double-fault campaign (tests/golden/bv2q_double_30deg.csv) that
// pins the 2q response path's bytes, and a qft-3q single-fault campaign
// (tests/golden/qft3q_single_30x60deg.csv) that pins the 1q response path
// with qubits folded into lanes.
// This pins the full CLI-facing output contract in one shot — the metadata
// header comment, the column schema documented in README ("Campaign CSV
// schema"), the %.17g number formatting, and the canonical point-ascending
// row order — so an accidental schema or determinism change fails loudly
// with a file-level diff instead of surfacing downstream in someone's
// parsing pipeline. check.sh runs the same diff through the real qufi_cli
// binary; this test keeps the property in the tier-1 suite.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "algorithms/algorithms.hpp"
#include "core/campaign.hpp"
#include "support/test_files.hpp"

namespace qufi {
namespace {

using test_support::slurp;

/// The campaign behind the committed file — byte-identical output requires
/// identical spec bits, so change these only together with the fixture.
CampaignSpec golden_spec() {
  const auto bench = algo::paper_circuit("bv", 2);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.grid.theta_step_deg = 90.0;
  spec.grid.phi_step_deg = 180.0;
  return spec;
}

TEST(GoldenCsv, Bv2qSingleFaultCampaignIsByteIdenticalToCommittedFile) {
  const auto result = run_single_fault_campaign(golden_spec());
  const std::string fresh_path =
      ::testing::TempDir() + "qufi_golden_bv2q.csv";
  result.write_csv(fresh_path);
  const std::string fresh = slurp(fresh_path);
  const std::string golden =
      slurp(std::string(QUFI_SOURCE_DIR) + "/tests/golden/bv2q_single.csv");
  std::remove(fresh_path.c_str());

  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(fresh, golden)
      << "campaign CSV output drifted from tests/golden/bv2q_single.csv — "
         "if the schema or determinism contract changed intentionally, "
         "regenerate the fixture and update README's CSV schema section";
}

// The double-fault pin: 2 points x 784 configs per (point, neighbor) pair,
// at or above DensityMatrixBackend::kResponseMinConfigs2q, so every config
// is resolved over the 256-element response basis (the path bv2q_single.csv,
// with its 9 configs, never takes). Generated by
//   qufi_cli --circuit bv --width 2 --theta-step 30 --phi-step 30
//            --phi-max 180 --double --points 2 --csv bv2q_double_30deg.csv
TEST(GoldenCsv, Bv2qDoubleFaultResponsePathIsByteIdenticalToCommittedFile) {
  const auto bench = algo::paper_circuit("bv", 2);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.grid.theta_step_deg = 30.0;
  spec.grid.phi_step_deg = 30.0;
  spec.grid.phi_max_deg = 180.0;
  spec.max_points = 2;
  const auto result = run_double_fault_campaign(spec);
  const std::string fresh_path =
      ::testing::TempDir() + "qufi_golden_bv2q_double.csv";
  result.write_csv(fresh_path);
  const std::string fresh = slurp(fresh_path);
  const std::string golden = slurp(std::string(QUFI_SOURCE_DIR) +
                                   "/tests/golden/bv2q_double_30deg.csv");
  std::remove(fresh_path.c_str());

  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(fresh, golden)
      << "double-fault CSV drifted from tests/golden/bv2q_double_30deg.csv";
}

// The qft-3q pin: 53 points x 42 configs, at or above
// DensityMatrixBackend::kResponseMinConfigs1q, so every config is resolved
// over the 16-element response basis. Its qubits finish at different points
// of each suffix, in an order that is not their index order, so the basis
// replay folds finished qubits into lanes and the resolver reads the final
// diagonal through the folded positions. Generated by
//   qufi_cli --circuit qft --width 3 --theta-step 30 --phi-step 60
//            --csv qft3q_single_30x60deg.csv
TEST(GoldenCsv, Qft3qSingleFaultFoldedResponsePathIsByteIdenticalToCommittedFile) {
  const auto bench = algo::paper_circuit("qft", 3);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.grid.theta_step_deg = 30.0;
  spec.grid.phi_step_deg = 60.0;
  const auto result = run_single_fault_campaign(spec);
  const std::string fresh_path =
      ::testing::TempDir() + "qufi_golden_qft3q.csv";
  result.write_csv(fresh_path);
  const std::string fresh = slurp(fresh_path);
  const std::string golden = slurp(std::string(QUFI_SOURCE_DIR) +
                                   "/tests/golden/qft3q_single_30x60deg.csv");
  std::remove(fresh_path.c_str());

  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(fresh, golden)
      << "qft single-fault CSV drifted from "
         "tests/golden/qft3q_single_30x60deg.csv";
}

TEST(GoldenCsv, CommittedFilePinsTheDocumentedColumnSchema) {
  const std::string golden =
      slurp(std::string(QUFI_SOURCE_DIR) + "/tests/golden/bv2q_single.csv");
  std::istringstream lines(golden);
  std::string header_comment, columns;
  ASSERT_TRUE(std::getline(lines, header_comment));
  ASSERT_TRUE(std::getline(lines, columns));
  EXPECT_EQ(header_comment.rfind("# circuit,", 0), 0u);
  EXPECT_EQ(columns,
            "point_index,instr_index,physical_qubit,logical_qubit,moment,"
            "theta,phi,neighbor_qubit,theta1,phi1,qvf,pa,pb");

  // Row order is canonical: point_index ascending across every data row.
  long previous = -1;
  std::string row;
  std::size_t rows = 0;
  while (std::getline(lines, row)) {
    if (row.empty()) continue;
    const long point = std::stol(row.substr(0, row.find(',')));
    EXPECT_GE(point, previous) << "row " << rows;
    previous = point;
    ++rows;
  }
  EXPECT_GT(rows, 0u);
}

}  // namespace
}  // namespace qufi
