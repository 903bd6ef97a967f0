// Backend-conformance harness: one value-parameterized suite asserting the
// shared snapshot contract of backend.hpp over every bundled backend
// configuration — ideal, density, density+idle_noise, trajectory, and a
// hardware-profile density instance. The point is honesty: a backend cannot
// silently opt out of an invariant (prepare/run_suffix equivalence,
// extend-vs-scratch bit equality, batch parity, or its declared
// supports_checkpointing() capability) without a red test naming the
// configuration that diverged.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "backend/density_backend.hpp"
#include "backend/ideal_backend.hpp"
#include "backend/trajectory_backend.hpp"
#include "core/campaign.hpp"
#include "core/injection.hpp"
#include "noise/backend_props.hpp"
#include "noise/noise_model.hpp"
#include "sim/kernel_dispatch.hpp"
#include "util/error.hpp"

namespace qufi {
namespace {

/// How run_suffix may relate to run() on the spliced circuit: exact
/// backends reproduce the distribution (bit-level or within rounding);
/// the trajectory backend shares prefix randomness across suffix calls
/// (common random numbers), which is distribution-equivalent only.
enum class SuffixEquivalence { BitExact, Numeric, Distributional };

struct BackendCase {
  std::string label;
  /// Device the circuit is transpiled for and the noise model built from.
  std::function<noise::BackendProperties()> props;
  std::function<std::unique_ptr<backend::Backend>(
      const noise::BackendProperties&)>
      make;
  std::uint64_t shots = 0;  ///< 0 = exact distributions
  bool expect_checkpointing = false;
  SuffixEquivalence equivalence = SuffixEquivalence::Numeric;
  /// Batch-vs-sequential tolerance; 0 demands bit equality (counts too).
  double batch_tol = 0.0;
  /// Kernel set the whole case runs under ("" = leave the default active).
  /// The contract must hold for every set — campaign-level QVF parity is
  /// kernel-independent, and this axis is what proves it.
  std::string kernels;
};

std::vector<BackendCase> contract_cases() {
  std::vector<BackendCase> cases;
  cases.push_back(
      {"ideal", [] { return noise::fake_casablanca(); },
       [](const noise::BackendProperties&) {
         return std::make_unique<backend::IdealBackend>();
       },
       0, false, SuffixEquivalence::BitExact, 0.0});
  cases.push_back(
      {"density", [] { return noise::fake_casablanca(); },
       [](const noise::BackendProperties& props) {
         return std::make_unique<backend::DensityMatrixBackend>(
             noise::NoiseModel::from_backend(props, 1.0));
       },
       0, true, SuffixEquivalence::Numeric, 1e-9});
  cases.push_back(
      {"density_idle_noise", [] { return noise::fake_casablanca(); },
       [](const noise::BackendProperties& props) {
         return std::make_unique<backend::DensityMatrixBackend>(
             noise::NoiseModel::from_backend(props, 1.0),
             /*idle_noise=*/true);
       },
       0, true, SuffixEquivalence::Numeric, 1e-9});
  cases.push_back(
      {"trajectory", [] { return noise::fake_casablanca(); },
       [](const noise::BackendProperties& props) {
         return std::make_unique<backend::TrajectoryBackend>(
             noise::NoiseModel::from_backend(props, 1.0));
       },
       256, true, SuffixEquivalence::Distributional, 0.0});
  cases.push_back(
      {"density_hardware_profile", [] { return noise::fake_jakarta(); },
       [](const noise::BackendProperties& props) {
         return std::make_unique<backend::DensityMatrixBackend>(
             noise::NoiseModel::from_backend(props, 1.0));
       },
       0, true, SuffixEquivalence::Numeric, 1e-9});

  // Kernel-dispatch axis: every backend case runs under every kernel set
  // the host offers.
  std::vector<BackendCase> expanded;
  for (const sim::KernelSet* ks : sim::available_kernel_sets()) {
    for (BackendCase c : cases) {
      c.kernels = ks->name;
      c.label += "_" + c.kernels;
      expanded.push_back(std::move(c));
    }
  }
  return expanded;
}

class BackendContract : public ::testing::TestWithParam<BackendCase> {
 protected:
  void SetUp() override {
    const BackendCase& c = GetParam();
    saved_kernels_ = sim::active_kernel_set().name;
    if (!c.kernels.empty()) sim::select_kernel_set(c.kernels);
    const auto bench = algo::paper_circuit("bv", 4);
    CampaignSpec spec;
    spec.circuit = bench.circuit;
    spec.backend = c.props();
    transpiled_ = campaign_transpile(spec);
    points_ = enumerate_injection_points(
        transpiled_, InjectionStrategy::OperandsAfterEachGate);
    ASSERT_GE(points_.size(), 3u);
    exec_ = c.make(spec.backend);
  }

  void TearDown() override { sim::select_kernel_set(saved_kernels_); }

  /// Three representative splits: start, middle, end of the circuit.
  std::vector<std::size_t> sample_points() const {
    return {0, points_.size() / 2, points_.size() - 1};
  }

  static void expect_bit_equal(const backend::ExecutionResult& a,
                               const backend::ExecutionResult& b) {
    ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
    EXPECT_EQ(a.probabilities, b.probabilities);
    EXPECT_EQ(a.counts, b.counts);
  }

  static void expect_near(const backend::ExecutionResult& a,
                          const backend::ExecutionResult& b, double tol) {
    ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
    for (std::size_t s = 0; s < a.probabilities.size(); ++s) {
      EXPECT_NEAR(a.probabilities[s], b.probabilities[s], tol) << "state "
                                                               << s;
    }
  }

  static double total_variation(const backend::ExecutionResult& a,
                                const backend::ExecutionResult& b) {
    double tv = 0.0;
    for (std::size_t s = 0; s < a.probabilities.size(); ++s) {
      tv += std::abs(a.probabilities[s] - b.probabilities[s]);
    }
    return tv / 2.0;
  }

  transpile::TranspileResult transpiled_;
  std::vector<InjectionPoint> points_;
  std::unique_ptr<backend::Backend> exec_;
  std::string saved_kernels_;
};

// run_suffix from a prepared snapshot must reproduce run() on the spliced
// faulty circuit — bit-exactly, numerically, or distributionally per the
// backend's documented contract.
TEST_P(BackendContract, PrepareRunSuffixMatchesFromScratch) {
  const BackendCase& c = GetParam();
  const PhaseShiftFault fault{0.7, 1.9};
  for (const std::size_t p : sample_points()) {
    SCOPED_TRACE("point " + std::to_string(p));
    const InjectionPoint& point = points_[p];
    const auto full = exec_->run(
        inject_fault(transpiled_.circuit, point, fault), c.shots, 17);
    const auto snapshot = exec_->prepare_prefix(
        transpiled_.circuit, point.split_index(), c.shots, 5);
    const circ::Instruction injected[] = {fault.as_instruction(point.qubit)};
    const auto resumed = exec_->run_suffix(*snapshot, injected, c.shots, 17);
    ASSERT_EQ(resumed.probabilities.size(), full.probabilities.size());
    switch (c.equivalence) {
      case SuffixEquivalence::BitExact:
        expect_bit_equal(resumed, full);
        break;
      case SuffixEquivalence::Numeric:
        expect_near(resumed, full, 1e-12);
        break;
      case SuffixEquivalence::Distributional:
        EXPECT_LT(total_variation(resumed, full), 0.2);
        break;
    }
  }
}

// Extending a snapshot must be bit-identical to preparing from scratch at
// the target split — the prefix-tree derivation contract, for every
// backend including the splice fallback.
TEST_P(BackendContract, ExtendMatchesFromScratchBitExactly) {
  const BackendCase& c = GetParam();
  const std::size_t a = points_[points_.size() / 3].split_index();
  const std::size_t b = points_[(2 * points_.size()) / 3].split_index();
  ASSERT_LE(a, b);
  const auto parent =
      exec_->prepare_prefix(transpiled_.circuit, a, c.shots, 5);
  const auto extended = exec_->extend_snapshot(*parent, a, b, c.shots, 5);
  const auto scratch =
      exec_->prepare_prefix(transpiled_.circuit, b, c.shots, 5);
  EXPECT_EQ(extended->prefix_length(), b);

  const PhaseShiftFault fault{1.3, 0.4};
  const circ::Instruction injected[] = {
      fault.as_instruction(points_[(2 * points_.size()) / 3].qubit)};
  const auto from_extended =
      exec_->run_suffix(*extended, injected, c.shots, 23);
  const auto from_scratch = exec_->run_suffix(*scratch, injected, c.shots, 23);
  expect_bit_equal(from_extended, from_scratch);
}

// run_suffix_batch must agree with per-config run_suffix: bit-exactly where
// the backend promises it (trajectory CRN, base fallback loop), within the
// documented QVF-parity tolerance where suffix fusion reassociates floats.
TEST_P(BackendContract, BatchMatchesSequentialPerConfig) {
  const BackendCase& c = GetParam();
  const InjectionPoint& point = points_[points_.size() / 2];
  const auto snapshot = exec_->prepare_prefix(
      transpiled_.circuit, point.split_index(), c.shots, 5);

  // Enough same-target configs to cross the density response threshold, so
  // the contract covers the fast path, not just the replay path.
  std::vector<backend::SuffixConfig> configs;
  for (int k = 0; k < 40; ++k) {
    const PhaseShiftFault fault{0.07 * k, 0.11 * k};
    configs.push_back(backend::SuffixConfig{
        {fault.as_instruction(point.qubit)}, 100 + static_cast<unsigned>(k)});
  }
  const auto batched = exec_->run_suffix_batch(*snapshot, configs, c.shots);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t k = 0; k < configs.size(); ++k) {
    SCOPED_TRACE("config " + std::to_string(k));
    const auto sequential = exec_->run_suffix(*snapshot, configs[k].injected,
                                              c.shots, configs[k].seed);
    if (c.batch_tol == 0.0) {
      expect_bit_equal(batched[k], sequential);
    } else {
      expect_near(batched[k], sequential, c.batch_tol);
    }
  }
}

// supports_checkpointing() must match the conformance table: a backend
// that starts or stops capturing real prefix state fails here, naming the
// configuration, until the table is updated on purpose.
TEST_P(BackendContract, CheckpointingClaimMatchesObservedBehavior) {
  const BackendCase& c = GetParam();
  EXPECT_EQ(exec_->supports_checkpointing(), c.expect_checkpointing)
      << "backend capability changed; update the conformance table";
}

// Snapshots are immutable and shareable: resuming twice with the same seed
// must be exactly reproducible, and prepare_prefix must reject out-of-range
// splits instead of clamping them.
TEST_P(BackendContract, SnapshotsAreReusableAndValidated) {
  const BackendCase& c = GetParam();
  const InjectionPoint& point = points_[points_.size() / 2];
  const auto snapshot = exec_->prepare_prefix(
      transpiled_.circuit, point.split_index(), c.shots, 5);
  const PhaseShiftFault fault{2.1, 0.9};
  const circ::Instruction injected[] = {fault.as_instruction(point.qubit)};
  const auto first = exec_->run_suffix(*snapshot, injected, c.shots, 77);
  const auto second = exec_->run_suffix(*snapshot, injected, c.shots, 77);
  expect_bit_equal(first, second);

  EXPECT_THROW((void)exec_->prepare_prefix(transpiled_.circuit,
                                           transpiled_.circuit.size() + 1,
                                           c.shots, 5),
               Error);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendContract, ::testing::ValuesIn(contract_cases()),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace qufi
