#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "dist/shard_plan.hpp"

namespace qufi::dist {

/// Which execution backend a shard worker builds. The density backend is
/// the paper's exact noise-model scenario; the trajectory backend is the
/// sampled Monte-Carlo alternative (requires shots > 0).
enum class WorkerBackendKind {
  Density,
  Trajectory,
};

/// Parses a worker backend family name as manifests, CLIs and submissions
/// spell it: "density" or "trajectory". Throws qufi::Error naming the
/// accepted names on anything else.
WorkerBackendKind worker_backend_kind_from_name(const std::string& name);

/// A self-contained description of one shard: everything a worker process
/// on another machine needs to execute its points bit-compatibly with the
/// single-process campaign — the full campaign definition (circuit embedded
/// instruction-by-instruction with exact parameter bits, device name, grid,
/// seeds, execution mode) plus this shard's global point indices.
///
/// Manifests are plain text (one `key value...` line each, circuit block at
/// the end); the format is versioned and documented in docs/SHARDING.md.
struct ShardManifest {
  /// v6: the only readable version. v1-v4 carried engine-mode keys for
  /// execution modes that no longer exist, and v5 a full-campaign record
  /// total the engine derives itself, so they are rejected rather than
  /// half-understood. The optional keys (`idle_noise`, `adaptive`) default
  /// off when absent.
  std::uint32_t format_version = 6;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;

  /// Fake-device name the worker rebuilds BackendProperties from:
  /// "casablanca", "jakarta", "linear", or "full" (the qufi_cli names;
  /// linear/full size themselves from the circuit width).
  std::string device = "casablanca";
  WorkerBackendKind backend_kind = WorkerBackendKind::Density;

  circ::QuantumCircuit circuit;
  std::vector<std::string> expected_outputs;

  int opt_level = 3;
  InjectionStrategy strategy = InjectionStrategy::OperandsAfterEachGate;
  FaultParamGrid grid;
  std::uint64_t shots = 0;
  std::uint64_t seed = 0x51754649;
  double noise_scale = 1.0;
  std::size_t max_points = 0;
  bool double_fault = false;
  /// Moment-scheduled idle-qubit relaxation (density backend only; the
  /// trajectory family has no idle mode and run_shard rejects the combo).
  bool idle_noise = false;
  /// Adaptive estimation policy (CampaignSpec::adaptive). Every worker of
  /// a campaign must carry the identical policy — the merger rejects
  /// mixing adaptive and exhaustive shards or differing policies.
  std::optional<AdaptivePolicy> adaptive;

  /// This shard's global injection-point indices (strictly increasing).
  std::vector<std::size_t> point_indices;
};

/// Writes `manifest` to `path`. Throws qufi::Error on I/O failure.
void save_manifest(const ShardManifest& manifest, const std::string& path);

/// Parses a manifest written by save_manifest. Throws qufi::Error with a
/// line-tagged reason on malformed input or an unsupported version.
ShardManifest load_manifest(const std::string& path);

/// Rebuilds the CampaignSpec a worker executes: circuit, device properties
/// (resolved from `device`), grid, seeds, and execution mode. The execution
/// backend itself (density vs trajectory) is chosen by run_shard, not the
/// spec.
CampaignSpec manifest_to_spec(const ShardManifest& manifest);

/// Builds per-shard manifests from a campaign definition and a plan.
///
/// \param spec        The campaign being distributed.
/// \param device      Fake-device name (must match spec.backend; the
///                    manifest stores the name, not the properties).
/// \param kind        Worker backend family; idle-noise campaigns require
///                    the density kind (the trajectory family has no idle
///                    mode).
/// \param plan        Output of plan_campaign_shards.
/// \param double_fault True to run the double-fault campaign per shard.
/// \return One manifest per shard, in shard-index order.
/// \throws qufi::Error on idle noise with the trajectory kind, or adaptive
///         estimation on a double-fault campaign.
std::vector<ShardManifest> make_manifests(const CampaignSpec& spec,
                                          const std::string& device,
                                          WorkerBackendKind kind,
                                          const ShardPlan& plan,
                                          bool double_fault);

}  // namespace qufi::dist
