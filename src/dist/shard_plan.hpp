#pragma once

#include <cstdint>
#include <vector>

#include "core/campaign.hpp"

/// \dir src/dist
/// Distribution layer: turns one campaign into shardable work. Campaigns
/// are embarrassingly parallel across injection points (the paper sweeps
/// every (qubit, gate, theta, phi) config independently), so the unit of
/// distribution is the point — each shard owns whole points, evolves their
/// prefixes, sweeps their grids, and emits partial results that merge
/// deterministically. See docs/SHARDING.md.

namespace qufi::dist {

/// The points one worker executes, in strictly increasing global order (the
/// order run_single_fault_campaign_subset requires).
struct ShardAssignment {
  std::uint32_t shard_index = 0;
  std::vector<std::size_t> point_indices;
  /// Sum of the per-point costs over the assignment (see
  /// plan_campaign_shards), so plans can report imbalance.
  std::uint64_t estimated_cost = 0;
};

/// A full partition of a campaign's injection points: every point appears
/// in exactly one shard; shards may be empty when num_shards > num_points.
struct ShardPlan {
  std::uint32_t num_shards = 1;
  std::size_t total_points = 0;
  std::vector<ShardAssignment> shards;
};

/// The one shard planner: validates spec.grid (throws qufi::Error, so a
/// bad grid is refused before any shard runs) and, when spec.adaptive is
/// set, the adaptive policy (so a budget every worker would refuse is
/// refused here, before a manifest exists); transpiles `spec`, enumerates +
/// strides its points exactly as the campaign would, and partitions them
/// into `num_shards` (>= 1) shards.
///
/// Cost model: a point costs 1 (its prefix snapshot) plus the number of
/// instructions after its split, which is what every config of its grid
/// sweep replays. Adaptive campaigns sweep only adaptive_config_budget /
/// num_configs of each grid, so that fraction scales the suffix term (the
/// prefix work keeps its full weight). Points are assigned by greedy
/// longest-processing-time balancing: stable-sorted by descending cost
/// (ties keep point order), each to the least-loaded shard (ties to the
/// lowest shard index). Every shard's indices come out strictly increasing
/// (the order run_single_fault_campaign_subset requires).
///
/// \return A plan covering every point exactly once. Deterministic: the
///         same inputs always produce the same plan, so re-planning after
///         a coordinator crash reproduces identical shard manifests.
ShardPlan plan_campaign_shards(const CampaignSpec& spec,
                               std::uint32_t num_shards);

}  // namespace qufi::dist
