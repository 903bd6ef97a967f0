// Golden-CSV regression: a tiny bv-2q single-fault campaign, committed at
// tests/golden/bv2q_single.csv, diffed byte-exact against a fresh run.
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
