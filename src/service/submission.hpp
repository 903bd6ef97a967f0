#pragma once

#include <cstdint>
#include <string>

#include "core/fault_model.hpp"
#include "service/dispatcher.hpp"

namespace qufi::service {

/// A campaign submission as it travels from qufi_submit to qufid: the
/// campaign *definition* (the same knobs qufi_cli and qufi_shard_plan
/// take), not the planned shards — the dispatcher plans on intake, so a
/// submission stays a dozen lines of text however large the campaign is.
/// Serialized as versioned `key value` lines (docs/DISPATCHER.md); only
/// version 2 is readable (v1 carried a removed engine-mode key).
struct CampaignRequest {
  std::string name;
  int priority = 0;
  std::string circuit = "bv";  ///< bv | dj | qft | ghz | grover
  int width = 4;
  std::string device = "casablanca";
  int opt_level = 3;
  double theta_step = 15.0;
  double phi_step = 15.0;
  double phi_max = 360.0;
  std::uint64_t shots = 0;
  std::uint64_t seed = 0x51754649;
  std::size_t max_points = 0;
  bool double_fault = false;
  bool idle_noise = false;
  std::uint32_t shards = 2;
  std::string policy = "cost";          ///< cost | points | tree
  std::string backend_kind = "density"; ///< density | trajectory
  std::string csv_path;
};

/// The fault grid `request` asks for (theta to 180 degrees, phi to
/// phi_max), as plan_submission runs it. qufi_submit validates it before
/// it writes a submission.
FaultParamGrid request_grid(const CampaignRequest& request);

/// Writes `request` to `path` (temp + rename, so a spool watcher never
/// reads a half-written submission). Throws qufi::Error on I/O failure.
void save_submission(const CampaignRequest& request, const std::string& path);

/// Parses a submission written by save_submission. Throws qufi::Error with
/// a line-tagged reason on malformed input or an unsupported version.
CampaignRequest load_submission(const std::string& path);

/// Turns a request into a dispatchable job: builds the circuit and device,
/// plans the shard partition (deterministic — re-planning the same request
/// reproduces identical manifests), and stamps the job's name, priority and
/// CSV path. Throws qufi::Error on unknown circuit/policy/backend names,
/// out-of-range widths, or invalid combinations (idle noise on the
/// trajectory family).
CampaignJob plan_submission(const CampaignRequest& request);

}  // namespace qufi::service
