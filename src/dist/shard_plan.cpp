#include "dist/shard_plan.hpp"

#include <algorithm>
#include <cmath>

#include "core/adaptive.hpp"
#include "util/error.hpp"

namespace qufi::dist {

namespace {

/// Integer suffix-sweep cost with the adaptive budget scale applied.
/// Ceiling keeps a nonzero suffix nonzero, and sweep_scale = 1.0 (the
/// exhaustive default) reproduces the unscaled cost bit-for-bit.
std::uint64_t scaled_suffix(std::size_t circuit_size, std::size_t split,
                            double sweep_scale) {
  require(sweep_scale > 0.0 && sweep_scale <= 1.0,
          "shard plan: sweep_scale must be in (0, 1]");
  return static_cast<std::uint64_t>(std::ceil(
      sweep_scale * static_cast<double>(circuit_size - split)));
}

}  // namespace

ShardPolicy shard_policy_from_name(const std::string& name) {
  if (name == "cost") return ShardPolicy::CostWeighted;
  if (name == "points") return ShardPolicy::PointCount;
  if (name == "tree") return ShardPolicy::TreeAware;
  throw Error("unknown shard policy: " + name +
              " (want cost, points or tree)");
}

std::uint64_t point_cost(const InjectionPoint& point, std::size_t circuit_size,
                         double sweep_scale) {
  require(point.split_index() <= circuit_size,
          "point_cost: split index beyond circuit size");
  return 1 + scaled_suffix(circuit_size, point.split_index(), sweep_scale);
}

std::uint64_t tree_point_cost(const InjectionPoint& point,
                              std::size_t circuit_size,
                              std::size_t shard_max_split,
                              double sweep_scale) {
  require(point.split_index() <= circuit_size,
          "tree_point_cost: split index beyond circuit size");
  const std::size_t split = point.split_index();
  const std::uint64_t extension =
      split > shard_max_split ? split - shard_max_split : 0;
  return 1 + extension + scaled_suffix(circuit_size, split, sweep_scale);
}

ShardPlan plan_shards(std::span<const InjectionPoint> points,
                      std::size_t circuit_size, std::uint32_t num_shards,
                      ShardPolicy policy, double sweep_scale) {
  require(num_shards >= 1, "plan_shards: need at least one shard");

  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.total_points = points.size();
  plan.policy = policy;
  plan.shards.resize(num_shards);
  for (std::uint32_t k = 0; k < num_shards; ++k) {
    plan.shards[k].shard_index = k;
  }

  if (policy == ShardPolicy::TreeAware) {
    // Visit points in ascending split order — the chain order the tree
    // engine executes in — and put each on the shard where load +
    // incremental tree cost is smallest. Campaign point tables are already
    // split-ordered, so index order is chain order (stable for equal
    // splits, keeping the choice deterministic).
    std::vector<std::size_t> max_split(num_shards, 0);
    std::vector<char> has_points(num_shards, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::uint32_t best = 0;
      std::uint64_t best_total = ~std::uint64_t{0};
      std::uint64_t best_cost = 0;
      for (std::uint32_t k = 0; k < num_shards; ++k) {
        // A shard with no points has no chain yet: its first root pays the
        // full prefix (max_split 0 models exactly that).
        const std::uint64_t cost =
            tree_point_cost(points[i], circuit_size,
                            has_points[k] ? max_split[k] : 0, sweep_scale);
        const std::uint64_t total = plan.shards[k].estimated_cost + cost;
        if (total < best_total) {
          best = k;
          best_total = total;
          best_cost = cost;
        }
      }
      plan.shards[best].point_indices.push_back(i);
      plan.shards[best].estimated_cost += best_cost;
      max_split[best] = std::max(max_split[best], points[i].split_index());
      has_points[best] = 1;
    }
    // Ascending-split visiting order preserves index order per shard, but
    // sort anyway: subset runners require strictly increasing indices even
    // for hand-built point tables that are not split-ordered.
    for (auto& shard : plan.shards) {
      std::sort(shard.point_indices.begin(), shard.point_indices.end());
    }
    return plan;
  }

  if (policy == ShardPolicy::PointCount) {
    // Contiguous integer-strided ranges (the stride_points idiom): shard k
    // owns [k*N/M, (k+1)*N/M), which covers every point exactly once.
    for (std::uint32_t k = 0; k < num_shards; ++k) {
      const std::size_t begin = points.size() * k / num_shards;
      const std::size_t end = points.size() * (k + 1) / num_shards;
      for (std::size_t i = begin; i < end; ++i) {
        plan.shards[k].point_indices.push_back(i);
        plan.shards[k].estimated_cost +=
            point_cost(points[i], circuit_size, sweep_scale);
      }
    }
    return plan;
  }

  // CostWeighted: LPT greedy. Sort by descending cost (stable, so equal
  // costs keep point order), then assign each point to the least-loaded
  // shard, breaking load ties toward the lowest shard index. Deterministic
  // by construction.
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return point_cost(points[a], circuit_size,
                                       sweep_scale) >
                            point_cost(points[b], circuit_size, sweep_scale);
                   });
  for (const std::size_t i : order) {
    ShardAssignment* lightest = &plan.shards[0];
    for (auto& shard : plan.shards) {
      if (shard.estimated_cost < lightest->estimated_cost) lightest = &shard;
    }
    lightest->point_indices.push_back(i);
    lightest->estimated_cost += point_cost(points[i], circuit_size,
                                           sweep_scale);
  }
  // Subset runners require strictly increasing indices.
  for (auto& shard : plan.shards) {
    std::sort(shard.point_indices.begin(), shard.point_indices.end());
  }
  return plan;
}

ShardPlan plan_campaign_shards(const CampaignSpec& spec,
                               std::uint32_t num_shards, ShardPolicy policy) {
  spec.grid.validate();
  const auto transpiled = campaign_transpile(spec);
  const auto points = stride_points(
      enumerate_injection_points(transpiled, spec.strategy), spec.max_points);
  // Adaptive campaigns sweep only the policy's per-point config budget, so
  // the planner shrinks every point's sweep cost by the same fraction; the
  // prefix terms keep full weight, which shifts tree-aware balancing toward
  // prefix work exactly as the engine experiences it.
  double sweep_scale = 1.0;
  if (spec.adaptive) {
    sweep_scale =
        static_cast<double>(adaptive_config_budget(spec.grid, *spec.adaptive)) /
        static_cast<double>(spec.grid.num_configs());
  }
  return plan_shards(points, transpiled.circuit.size(), num_shards, policy,
                     sweep_scale);
}

}  // namespace qufi::dist
