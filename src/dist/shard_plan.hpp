#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/injection.hpp"

/// \dir src/dist
/// Distribution layer: turns one campaign into shardable work. Campaigns
/// are embarrassingly parallel across injection points (the paper sweeps
/// every (qubit, gate, theta, phi) config independently), so the unit of
/// distribution is the point — each shard owns whole points, evolves their
/// prefixes, sweeps their grids, and emits partial results that merge
/// deterministically. See docs/SHARDING.md.

namespace qufi::dist {

/// How injection points are split across shards.
enum class ShardPolicy {
  /// Contiguous, near-equal point-count ranges (shard k takes points
  /// [k*N/M, (k+1)*N/M)). Cheapest to reason about; ignores that early
  /// points carry longer suffixes than late ones.
  PointCount,
  /// Greedy longest-processing-time balancing on the per-point cost model
  /// (suffix length dominates a batched grid sweep). Deterministic:
  /// stable-sorted by descending cost, ties broken by point index, assigned
  /// to the least-loaded shard (ties to the lowest shard index).
  CostWeighted,
  /// Cost balancing aware of the prefix-tree engine: each shard runs its
  /// own chain over its points, so a point's prefix is not an independent
  /// cost — adding a point to a shard costs its suffix sweep plus only the
  /// prefix *extension* beyond the shard's deepest split so far. Points are
  /// visited in ascending split order (the chain order) and greedily
  /// assigned to the shard where the incremental cost, added to the
  /// shard's load, is smallest (ties to the lowest shard index).
  /// Deterministic; degenerates to suffix-cost balancing when every shard
  /// already reaches similar depth.
  TreeAware,
};

/// Parses a policy name as the CLIs and submissions spell it: "cost"
/// (CostWeighted), "points" (PointCount) or "tree" (TreeAware). Throws
/// qufi::Error naming the accepted names on anything else.
ShardPolicy shard_policy_from_name(const std::string& name);

/// The points one worker executes, in strictly increasing global order (the
/// order run_single_fault_campaign_subset requires).
struct ShardAssignment {
  std::uint32_t shard_index = 0;
  std::vector<std::size_t> point_indices;
  /// Sum of point_cost over the assignment (both policies fill it in, so
  /// plans can report imbalance either way).
  std::uint64_t estimated_cost = 0;
};

/// A full partition of a campaign's injection points: every point appears
/// in exactly one shard; shards may be empty when num_shards > num_points.
struct ShardPlan {
  std::uint32_t num_shards = 1;
  std::size_t total_points = 0;
  ShardPolicy policy = ShardPolicy::CostWeighted;
  std::vector<ShardAssignment> shards;
};

/// Cost model for one injection point: 1 (the prefix snapshot) plus the
/// number of instructions after the split, which is what every config of
/// the point's grid sweep replays. Units are arbitrary; only ratios matter.
/// `sweep_scale` scales the suffix term: adaptive campaigns sweep only
/// adaptive_config_budget / num_configs of each point's grid, which shrinks
/// the sweep cost relative to the fixed prefix work (see
/// plan_campaign_shards, which derives the scale from the spec's policy).
std::uint64_t point_cost(const InjectionPoint& point, std::size_t circuit_size,
                         double sweep_scale = 1.0);

/// Tree-aware incremental cost of adding `point` to a shard whose deepest
/// split so far is `shard_max_split`: the suffix sweep (as in point_cost)
/// plus the prefix gates the shard's chain must still extend through to
/// reach this split (zero when the shard is already at least this deep —
/// split-deduplicated points ride along for free).
std::uint64_t tree_point_cost(const InjectionPoint& point,
                              std::size_t circuit_size,
                              std::size_t shard_max_split,
                              double sweep_scale = 1.0);

/// Partitions `points` (the global enumeration, in order) into
/// `num_shards` deterministic shards.
///
/// \param points       Global injection-point table (campaign_points order).
/// \param circuit_size Instruction count of the transpiled circuit the
///                     points index into (cost-model input).
/// \param num_shards   Must be >= 1.
/// \param policy       Split policy; see ShardPolicy.
/// \param sweep_scale  Fraction of each point's grid actually swept
///                     (see point_cost); 1.0 = exhaustive.
/// \return A plan covering every point exactly once. Deterministic: the
///         same inputs always produce the same plan, so re-planning after
///         a coordinator crash reproduces identical shard manifests.
ShardPlan plan_shards(std::span<const InjectionPoint> points,
                      std::size_t circuit_size, std::uint32_t num_shards,
                      ShardPolicy policy = ShardPolicy::CostWeighted,
                      double sweep_scale = 1.0);

/// Convenience: validates spec.grid (throws qufi::Error, so a bad grid is
/// refused before any shard runs), transpiles `spec`, enumerates + strides
/// its points exactly as the campaign would, and plans over them. When spec.adaptive is set,
/// the per-point sweep costs are scaled by the policy's config budget over
/// the full grid size, so adaptive budgets slot straight into ShardPolicy
/// balancing (prefix work keeps its full weight — it does not shrink with
/// the budget).
ShardPlan plan_campaign_shards(const CampaignSpec& spec,
                               std::uint32_t num_shards,
                               ShardPolicy policy = ShardPolicy::CostWeighted);

}  // namespace qufi::dist
