#pragma once

#include <cstdint>
#include <string>

#include "dist/campaign_definition.hpp"
#include "service/dispatcher.hpp"

namespace qufi::service {

/// A campaign submission as it travels from qufi_submit to qufid: the
/// campaign *definition* (the same knobs qufi_cli and qufi_shard_plan
/// take), not the planned shards — the dispatcher plans on intake, so a
/// submission stays a dozen lines of text however large the campaign is.
/// Serialized as versioned `key value` lines (docs/DISPATCHER.md); only
/// version 2 is readable (v1 carried a removed engine-mode key). The file
/// has no key for `adaptive`: save_submission refuses a request that sets
/// it, while plan_submission plans one for in-process callers.
struct CampaignRequest : dist::CampaignDefinition {
  std::string name;
  int priority = 0;
  std::uint32_t shards = 2;
  /// Only "cost" is accepted (there is one shard planner); the field and
  /// its `policy` line stay so existing v2 submissions, and callers that
  /// set it, keep loading unchanged.
  std::string policy = "cost";
  std::string backend_kind = "density"; ///< density | trajectory
  std::string csv_path;
};

/// Writes `request` to `path` (temp + rename, so a spool watcher never
/// reads a half-written submission). Throws qufi::Error on I/O failure, or
/// before writing anything when `request` carries an adaptive policy.
void save_submission(const CampaignRequest& request, const std::string& path);

/// Parses a submission written by save_submission. Throws qufi::Error with
/// a line-tagged reason on malformed input or an unsupported version.
CampaignRequest load_submission(const std::string& path);

/// Turns a request into a dispatchable job: builds the campaign through
/// dist::campaign_spec, plans the shard partition (deterministic —
/// re-planning the same request reproduces identical manifests), and stamps
/// the job's name, priority and CSV path. Throws qufi::Error on a name
/// check_campaign_name refuses, a name or CSV path holding a line break,
/// unknown circuit/backend names, a shard policy other than "cost", zero
/// shards, out-of-range widths, a grid or adaptive policy the planner
/// refuses, or invalid combinations (idle noise on the trajectory family).
/// qufi_submit runs it before writing, so it never leaves a submission the
/// intake would reject.
CampaignJob plan_submission(const CampaignRequest& request);

}  // namespace qufi::service
