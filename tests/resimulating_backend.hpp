// Test oracle for campaign-engine equivalence: a backend that re-simulates
// every faulty circuit from scratch, plus the record comparison the
// engine-vs-oracle tests share.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "backend/density_backend.hpp"
#include "core/campaign.hpp"
#include "noise/noise_model.hpp"

namespace qufi::testing_oracle {

/// Wraps the density backend a campaign would build for `spec` (same noise
/// model, same idle_noise mode) and forwards only name() and run(). Every
/// snapshot call therefore takes the base Backend splice fallback, so a
/// campaign run through it (via CampaignSpec::backend_override) executes
/// each config as run(splice_circuit(...)) with the engine's own per-config
/// seed: the full re-simulation reference the snapshot-tree engine must
/// match.
class ResimulatingBackend final : public backend::Backend {
 public:
  explicit ResimulatingBackend(const CampaignSpec& spec)
      : inner_(noise::NoiseModel::from_backend(spec.backend, spec.noise_scale),
               spec.idle_noise) {}

  std::string name() const override { return inner_.name(); }

  backend::ExecutionResult run(const circ::QuantumCircuit& circuit,
                               std::uint64_t shots,
                               std::uint64_t seed) override {
    return inner_.run(circuit, shots, seed);
  }

 private:
  backend::DensityMatrixBackend inner_;
};

/// Runs `run_campaign(spec)` through a ResimulatingBackend built for spec,
/// on one pool lane. One lane puts every point on a single snapshot chain
/// swept inline, so a snapshot-routing fault in the engine's multi-lane
/// branches (chain partitioning, chunk fan-out) cannot repeat itself in
/// the reference.
template <typename RunCampaign>
auto resimulated(CampaignSpec spec, const RunCampaign& run_campaign) {
  ResimulatingBackend oracle(spec);
  spec.backend_override = &oracle;
  spec.threads = 1;
  return run_campaign(spec);
}

/// Record-by-record comparison of two campaign results: identical index
/// fields and execution totals, pa/pb/QVF within `tol`.
inline void expect_campaigns_match(const CampaignResult& a,
                                   const CampaignResult& b, double tol) {
  ASSERT_EQ(a.records.size(), b.records.size());
  ASSERT_EQ(a.meta.executions, b.meta.executions);
  EXPECT_EQ(a.meta.backend_name, b.meta.backend_name);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].point_index, b.records[i].point_index);
    EXPECT_EQ(a.records[i].theta_index, b.records[i].theta_index);
    EXPECT_EQ(a.records[i].phi_index, b.records[i].phi_index);
    EXPECT_EQ(a.records[i].neighbor_qubit, b.records[i].neighbor_qubit);
    EXPECT_EQ(a.records[i].theta1_index, b.records[i].theta1_index);
    EXPECT_EQ(a.records[i].phi1_index, b.records[i].phi1_index);
    EXPECT_NEAR(a.records[i].qvf, b.records[i].qvf, tol) << "record " << i;
    EXPECT_NEAR(a.records[i].pa, b.records[i].pa, tol) << "record " << i;
    EXPECT_NEAR(a.records[i].pb, b.records[i].pb, tol) << "record " << i;
  }
}

}  // namespace qufi::testing_oracle
