// Campaign fixtures shared by the test suites: the small, fast campaign
// spec most engine tests run, and the bit-exact InjectionRecord comparison
// every byte-identity test asserts with.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "algorithms/algorithms.hpp"
#include "core/campaign.hpp"
#include "core/results.hpp"

namespace qufi::test_support {

/// A paper circuit on a coarse 60 x 90 degree grid with two threads: fast
/// enough to run many times per test, large enough that a 2-shard split is
/// non-trivial.
inline CampaignSpec quick_spec(const std::string& name = "bv", int width = 4) {
  const auto bench = algo::paper_circuit(name, width);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.grid.theta_step_deg = 60.0;
  spec.grid.phi_step_deg = 90.0;
  spec.threads = 2;
  return spec;
}

/// Bit-exact record comparison: every index field equal, and qvf/pa/pb with
/// identical IEEE-754 bit patterns (which tells -0.0 from 0.0: the result
/// formats' actual contract). `i` labels the failure.
inline void expect_record_bits(const InjectionRecord& a,
                               const InjectionRecord& b, std::size_t i) {
  EXPECT_EQ(a.point_index, b.point_index) << "record " << i;
  EXPECT_EQ(a.theta_index, b.theta_index) << "record " << i;
  EXPECT_EQ(a.phi_index, b.phi_index) << "record " << i;
  EXPECT_EQ(a.neighbor_qubit, b.neighbor_qubit) << "record " << i;
  EXPECT_EQ(a.theta1_index, b.theta1_index) << "record " << i;
  EXPECT_EQ(a.phi1_index, b.phi1_index) << "record " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.qvf),
            std::bit_cast<std::uint64_t>(b.qvf))
      << "record " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.pa),
            std::bit_cast<std::uint64_t>(b.pa))
      << "record " << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.pb),
            std::bit_cast<std::uint64_t>(b.pb))
      << "record " << i;
}

/// Two record lists compared with expect_record_bits, stopping at the first
/// record that differs.
inline void expect_same_records(std::span<const InjectionRecord> a,
                                std::span<const InjectionRecord> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_record_bits(a[i], b[i], i);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace qufi::test_support
