#include "dist/shard_plan.hpp"

#include <algorithm>
#include <cmath>

#include "core/adaptive.hpp"
#include "util/error.hpp"

namespace qufi::dist {

ShardPlan plan_campaign_shards(const CampaignSpec& spec,
                               std::uint32_t num_shards) {
  require(num_shards >= 1, "shard plan: need at least one shard");
  spec.grid.validate();
  if (spec.adaptive) validate_adaptive_policy(*spec.adaptive);
  const auto transpiled = campaign_transpile(spec);
  const auto points = stride_points(
      enumerate_injection_points(transpiled, spec.strategy), spec.max_points);
  const std::size_t circuit_size = transpiled.circuit.size();
  // Adaptive campaigns sweep only the policy's per-point config budget, so
  // every point's sweep cost shrinks by the same fraction; the prefix term
  // keeps full weight. The ceiling keeps a nonzero suffix nonzero, and a
  // scale of 1.0 (exhaustive) reproduces the unscaled cost bit-for-bit.
  double sweep_scale = 1.0;
  if (spec.adaptive) {
    sweep_scale =
        static_cast<double>(adaptive_config_budget(spec.grid, *spec.adaptive)) /
        static_cast<double>(spec.grid.num_configs());
  }
  std::vector<std::uint64_t> cost(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto suffix =
        static_cast<double>(circuit_size - points[i].split_index());
    cost[i] = 1 + static_cast<std::uint64_t>(std::ceil(sweep_scale * suffix));
  }

  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.total_points = points.size();
  plan.shards.resize(num_shards);
  for (std::uint32_t k = 0; k < num_shards; ++k) {
    plan.shards[k].shard_index = k;
  }
  // LPT greedy. Sort by descending cost (stable, so equal costs keep point
  // order), then assign each point to the least-loaded shard, breaking load
  // ties toward the lowest shard index. Deterministic by construction.
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  for (const std::size_t i : order) {
    ShardAssignment* lightest = &plan.shards[0];
    for (auto& shard : plan.shards) {
      if (shard.estimated_cost < lightest->estimated_cost) lightest = &shard;
    }
    lightest->point_indices.push_back(i);
    lightest->estimated_cost += cost[i];
  }
  // Subset runners require strictly increasing indices.
  for (auto& shard : plan.shards) {
    std::sort(shard.point_indices.begin(), shard.point_indices.end());
  }
  return plan;
}

}  // namespace qufi::dist
