#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace qufi {

/// One snapshot the prefix-tree engine materializes: a unique split point
/// shared by every campaign point that injects there (operand points of one
/// multi-qubit gate all split at the same instruction, so deduplication
/// alone removes snapshots). A root is evolved from the initial state; a
/// child is derived from its parent via Backend::extend_snapshot, paying
/// only the gates between the two splits.
struct SnapshotTreeNode {
  /// Prefix length (instruction count) of this snapshot.
  std::size_t split = 0;
  /// Index of the parent node in SnapshotTreePlan::nodes, or -1 for a root
  /// (prepared from scratch). Parents always precede children.
  std::ptrdiff_t parent = -1;
  /// Positions (into the planner's input span) of the points that sweep
  /// their grid from this snapshot, in input order.
  std::vector<std::size_t> members;
};

/// A forest of snapshot chains over a campaign subset's split points:
/// nodes are grouped chain-major (each chain is one contiguous run of
/// ascending unique splits whose head is a root), so one worker lane can
/// walk a chain keeping at most two snapshots alive. The plan is a pure
/// function of (splits, max_chains) — subsets plan their own trees, and
/// because extend_snapshot is bit-identical to a from-scratch prepare, the
/// tree shape never changes campaign records (the sharding contract).
/// The plan prices each chain on its own; at run time the campaign engine
/// (run_tree_chains in core/campaign.cpp) also hands each chain's first
/// snapshot to the next chain, so a sweep prepares only one from scratch.
struct SnapshotTreePlan {
  std::vector<SnapshotTreeNode> nodes;
  /// Chain c covers nodes [chain_begin[c], chain_begin[c + 1]); size is
  /// num_chains() + 1.
  std::vector<std::size_t> chain_begin;

  std::size_t num_chains() const {
    return chain_begin.empty() ? 0 : chain_begin.size() - 1;
  }

  /// Gates evolved from scratch (sum of root splits) — what the roots would
  /// cost if each chain prepared its own head.
  std::uint64_t scratch_gates() const;
  /// Gates advanced via extend_snapshot (sum of child - parent splits).
  std::uint64_t extended_gates() const;
  /// Gates one from-scratch prefix per input point would evolve (before
  /// deduplication) — the cost the tree saves against.
  std::uint64_t flat_gates() const;
};

/// Plans the prefix tree for one campaign subset.
///
/// \param splits     Per-point split index (prefix length), one entry per
///                   subset position, in subset order. Campaign point
///                   tables are enumerated in instruction order, so the
///                   sequence is typically nondecreasing, but any order is
///                   handled (nodes are planned over the sorted unique
///                   splits).
/// \param max_chains Unique splits are partitioned into at most this many
///                   contiguous chains (integer striding, deterministic),
///                   in ascending split order; the campaign engine plans
///                   several per pool lane. 0 is treated as 1.
/// \return The deduplicated chain forest; empty when `splits` is empty.
SnapshotTreePlan plan_snapshot_tree(std::span<const std::size_t> splits,
                                    std::size_t max_chains);

}  // namespace qufi
