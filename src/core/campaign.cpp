#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>

#include "backend/density_backend.hpp"
#include "core/adaptive.hpp"
#include "noise/noise_model.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qufi {

namespace {

/// Shared, prepared campaign state.
struct Prepared {
  transpile::TranspileResult transpiled;
  transpile::CouplingMap coupling;
  GoldenOutput golden;
  std::unique_ptr<backend::Backend> owned_backend;
  backend::Backend* exec = nullptr;
};

Prepared prepare(const CampaignSpec& spec) {
  require(spec.circuit.num_clbits() > 0,
          "campaign: circuit needs measurements");
  spec.grid.validate();

  Prepared prep{transpile::transpile(spec.circuit, spec.backend,
                                     spec.transpile_options),
                transpile::CouplingMap::from_backend(spec.backend),
                {},
                nullptr,
                nullptr};

  if (spec.expected_outputs.empty()) {
    prep.golden = compute_golden(spec.circuit);
  } else {
    prep.golden =
        golden_from_expected(spec.expected_outputs, spec.circuit.num_clbits());
  }

  if (spec.backend_override) {
    prep.exec = spec.backend_override;
  } else {
    prep.owned_backend = std::make_unique<backend::DensityMatrixBackend>(
        noise::NoiseModel::from_backend(spec.backend, spec.noise_scale),
        spec.idle_noise);
    prep.exec = prep.owned_backend.get();
  }
  return prep;
}

/// The lanes a campaign runs on: spec.pool when borrowed, else a pool of
/// spec.threads built into `owned`.
util::ThreadPool& campaign_pool(const CampaignSpec& spec,
                                std::optional<util::ThreadPool>& owned) {
  if (spec.pool != nullptr) return *spec.pool;
  return owned.emplace(static_cast<std::size_t>(
      spec.threads > 0 ? spec.threads : 0));
}

/// Snapshot chains per pool lane. A split's first batch replays its whole
/// suffix to build the response basis, so a split costs in proportion to
/// its suffix length: with one chain per lane, the lane holding the
/// earliest splits carried several times the work of the last one. Several
/// chains per lane, claimed in index order (heaviest first), let lanes that
/// finish early take more. 4 and 16 per lane measured within 10% of 8 on
/// perfbench's single_sweep (4-vCPU Xeon).
constexpr std::size_t kChainsPerLane = 8;

/// What a chain hands the next one: a snapshot and its prefix length, or a
/// null snapshot when the next chain must prepare from scratch.
using ChainHead = std::pair<backend::PrefixSnapshotPtr, std::size_t>;

/// The snapshot walk of every campaign kind. Position s of the sweep
/// injects at prefix length `splits[s]`. Positions sharing a split share
/// one snapshot (operand points of one multi-qubit gate all split at the
/// same instruction). The sorted unique splits are cut by integer striding
/// into at most pool.size() x kChainsPerLane contiguous chains, one task
/// each, so a chain keeps at most two snapshots alive. `visit(s, snapshot)`
/// runs, in input order, for each position at the split with
/// `has_work(s)`. A split none of whose positions has work is skipped
/// entirely and the next extension jumps across it, so e.g. double-fault
/// points with no coupled active neighbor never materialize a snapshot.
///
/// Only the sweep's first snapshot is prepared from scratch; every later
/// one is derived via extend_snapshot (bit-identical to a from-scratch
/// prepare) from the one before it, so the chain cut never moves a record.
/// Chains relay: each chain hands its first snapshot to the next chain,
/// whose first snapshot extends it. A chain with no work passes on what it
/// received; a chain that throws passes on nothing, and the next chain
/// prepares from scratch. At most one handed-over snapshot waits per chain
/// (few-point campaigns that store the handful of snapshots for chunked
/// sweeping are bounded by the pool size instead).
template <typename HasWork, typename Visit>
void run_tree_chains(util::ThreadPool& pool, const Prepared& prep,
                     const CampaignSpec& spec,
                     std::span<const std::size_t> splits,
                     const HasWork& has_work, const Visit& visit) {
  // One node per unique split, ascending, with its positions in input order.
  std::map<std::size_t, std::vector<std::size_t>> by_split;
  for (std::size_t s = 0; s < splits.size(); ++s) {
    by_split[splits[s]].push_back(s);
  }
  const std::vector<std::pair<std::size_t, std::vector<std::size_t>>> nodes(
      std::make_move_iterator(by_split.begin()),
      std::make_move_iterator(by_split.end()));
  // Chain c owns nodes [c x nodes / chains, (c + 1) x nodes / chains).
  const std::size_t chains =
      std::min(pool.size() * kChainsPerLane, nodes.size());

  // handoff[c] carries chain c - 1's head to chain c; taking it moves the
  // snapshot out, so a head outlives its hand-off only while its own chain
  // still sweeps from it. Waiting cannot deadlock: parallel_for claims
  // chain c only after chain c - 1, and every claimed chain passes.
  std::vector<std::promise<ChainHead>> handoff(chains);
  std::vector<std::future<ChainHead>> received;
  for (auto& promise : handoff) received.push_back(promise.get_future());
  pool.parallel_for(chains, [&](std::size_t chain) {
    auto [prev, prev_split] = chain == 0 ? ChainHead{} : received[chain].get();
    bool passed = false;
    const auto pass = [&](ChainHead head) {
      passed = true;
      if (chain + 1 < chains) handoff[chain + 1].set_value(std::move(head));
    };
    try {
      for (std::size_t n = nodes.size() * chain / chains;
           n < nodes.size() * (chain + 1) / chains; ++n) {
        const auto& [split, members] = nodes[n];
        if (std::none_of(members.begin(), members.end(), has_work)) continue;
        backend::PrefixSnapshotPtr snapshot =
            prev ? prep.exec->extend_snapshot(*prev, prev_split, split,
                                              spec.shots, spec.seed)
                 : prep.exec->prepare_prefix(prep.transpiled.circuit, split,
                                             spec.shots, spec.seed);
        if (!passed) pass({snapshot, split});
        for (const std::size_t pos : members) {
          if (has_work(pos)) visit(pos, snapshot);
        }
        prev = std::move(snapshot);
        prev_split = split;
      }
    } catch (...) {
      if (!passed) pass({});
      throw;
    }
    if (!passed) pass({std::move(prev), prev_split});
  });
}

/// has_work for sweeps where every position has work (adaptive and
/// named-fault campaigns).
constexpr auto kEveryPosition = [](std::size_t) { return true; };

/// Deterministic batch boundaries for a config slice: floor(len/chunk)
/// chunks of at least `chunk` configs each, remainder merged into the last
/// chunk. A pure function of (begin, end, chunk) — never of pool size or
/// subset shape — so batch composition, and with it the backend's
/// response-vs-replay choice, is identical across thread counts,
/// shardings, and scheduling (the byte-identity contract). Chunk floors at
/// or above the response thresholds keep every chunk on the fast path.
std::vector<std::pair<std::size_t, std::size_t>> chunk_slice(
    std::size_t begin, std::size_t end, std::size_t chunk) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (begin >= end) return out;
  const std::size_t n = std::max<std::size_t>(1, (end - begin) / chunk);
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.emplace_back(begin + k * chunk,
                     k + 1 == n ? end : begin + (k + 1) * chunk);
  }
  return out;
}

// Tree-engine chunk floors: single-fault grids inject one qubit (1q
// response basis), double-fault grids a (primary, neighbor) pair (2q).
constexpr std::size_t kTreeChunk1q = 64;
constexpr std::size_t kTreeChunk2q = 512;
static_assert(kTreeChunk1q >=
              backend::DensityMatrixBackend::kResponseMinConfigs1q);
static_assert(kTreeChunk2q >=
              backend::DensityMatrixBackend::kResponseMinConfigs2q);

/// The sweep shared by single- and double-fault campaigns. Subset
/// position s injects at `splits[s]` and owns the flat configs
/// [slice_begin[s], slice_begin[s + 1]); positions with an empty slice
/// never materialize a snapshot. Snapshots come from run_tree_chains, and
/// each slice is swept in chunk_slice chunks of at least `chunk_floor`
/// configs via `sweep(s, begin, end, snapshot)`. With at least as many
/// points as lanes, chunks run inline on their chain's lane (at most two
/// live snapshots per lane); with fewer, the few snapshots are stored and
/// the chunks fan out across the pool so no lane idles. Chunk boundaries
/// are the same either way, so records are too.
template <typename Sweep>
void sweep_snapshot_tree(util::ThreadPool& pool, const Prepared& prep,
                         const CampaignSpec& spec,
                         std::span<const std::size_t> splits,
                         std::span<const std::size_t> slice_begin,
                         std::size_t chunk_floor, const Sweep& sweep) {
  const auto has_work = [&](std::size_t s) {
    return slice_begin[s] < slice_begin[s + 1];
  };
  const auto chunks_of = [&](std::size_t s) {
    return chunk_slice(slice_begin[s], slice_begin[s + 1], chunk_floor);
  };
  if (splits.size() >= pool.size()) {
    run_tree_chains(pool, prep, spec, splits, has_work,
                    [&](std::size_t s,
                        const backend::PrefixSnapshotPtr& snapshot) {
                      for (const auto& [begin, end] : chunks_of(s)) {
                        sweep(s, begin, end, *snapshot);
                      }
                    });
    return;
  }
  std::vector<backend::PrefixSnapshotPtr> snapshots(splits.size());
  run_tree_chains(pool, prep, spec, splits, has_work,
                  [&](std::size_t s,
                      const backend::PrefixSnapshotPtr& snapshot) {
                    snapshots[s] = snapshot;
                  });
  struct ChunkItem {
    std::size_t subset_pos, begin, end;
  };
  std::vector<ChunkItem> chunks;
  for (std::size_t s = 0; s < splits.size(); ++s) {
    for (const auto& [begin, end] : chunks_of(s)) {
      chunks.push_back({s, begin, end});
    }
  }
  pool.parallel_for(chunks.size(), [&](std::size_t i) {
    const ChunkItem& chunk = chunks[i];
    sweep(chunk.subset_pos, chunk.begin, chunk.end,
          *snapshots[chunk.subset_pos]);
  });
}

/// Split index of each subset position's injection point.
std::vector<std::size_t> subset_splits(
    const std::vector<InjectionPoint>& points,
    std::span<const std::size_t> subset) {
  std::vector<std::size_t> splits(subset.size());
  for (std::size_t s = 0; s < subset.size(); ++s) {
    splits[s] = points[subset[s]].split_index();
  }
  return splits;
}

/// One run_suffix_batch submission, with the result count checked.
std::vector<backend::ExecutionResult> run_batch(
    const Prepared& prep, const CampaignSpec& spec,
    const backend::PrefixSnapshot& snapshot,
    std::span<const backend::SuffixConfig> configs) {
  auto runs = prep.exec->run_suffix_batch(snapshot, configs, spec.shots);
  require(runs.size() == configs.size(),
          "campaign: run_suffix_batch returned wrong result count");
  return runs;
}

std::uint64_t config_seed(const CampaignSpec& spec, std::uint64_t a,
                          std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  const std::uint64_t words[] = {spec.seed, a, b, c, d};
  return util::hash_combine(words);
}

/// The single source of a single-fault config's fault gate and seed, shared
/// by the exhaustive and adaptive engines. Addressed by the GLOBAL (point,
/// phi, theta) triple, with `rem` = phi_index x num_theta + theta_index, so
/// results are independent of scheduling, batch composition and sharding.
backend::SuffixConfig single_fault_config(const CampaignSpec& spec,
                                          const InjectionPoint& point,
                                          std::size_t global_point,
                                          std::size_t rem) {
  const int num_theta = spec.grid.num_theta();
  const int phi_index = static_cast<int>(rem / num_theta);
  const int theta_index = static_cast<int>(rem % num_theta);
  const PhaseShiftFault fault{spec.grid.theta_at(theta_index),
                              spec.grid.phi_at(phi_index)};
  backend::SuffixConfig config;
  config.injected = {fault.as_instruction(point.qubit)};
  config.seed =
      config_seed(spec, global_point, static_cast<std::uint64_t>(phi_index),
                  static_cast<std::uint64_t>(theta_index), 0);
  return config;
}

double faultfree_qvf(const Prepared& prep, const CampaignSpec& spec) {
  const auto result = prep.exec->run(prep.transpiled.circuit, spec.shots,
                                     config_seed(spec, ~0ULL, 0, 0, 0));
  return compute_qvf(result.probabilities, prep.golden);
}

CampaignMetadata base_metadata(const CampaignSpec& spec, const Prepared& prep) {
  CampaignMetadata meta;
  meta.circuit_name = spec.circuit.name();
  meta.backend_name = prep.exec->name();
  meta.circuit_qubits = spec.circuit.num_qubits();
  meta.transpiled_gates = prep.transpiled.circuit.num_unitary_gates();
  meta.grid = spec.grid;
  meta.shots = spec.shots;
  meta.seed = spec.seed;
  meta.idle_noise = spec.idle_noise;
  meta.faultfree_qvf = faultfree_qvf(prep, spec);
  return meta;
}

/// Announces the campaign to CampaignSpec::record_sink, if any: called once
/// the final metadata is set and before the sweep emits anything.
void begin_sink(const CampaignSpec& spec, const CampaignResult& result,
                std::uint64_t expected_total_records) {
  if (spec.record_sink) {
    spec.record_sink->begin(result.meta, result.points,
                            expected_total_records);
  }
}

/// Scores one executed config: pa/pb via the shared QVF split (paper
/// Eq. 1) instead of a re-implemented loop.
void score_record(InjectionRecord& rec, std::span<const double> probs,
                  const GoldenOutput& golden) {
  const ProbabilitySplit split = split_probabilities(probs, golden);
  rec.pa = split.pa;
  rec.pb = split.pb;
  rec.qvf = qvf_from_contrast(michelson_contrast(split.pa, split.pb));
}

/// Validates a shard subset against the global point table: strictly
/// increasing indices, all in range. Sorted-unique input keeps shard record
/// order canonical (ascending global point index) by construction.
void validate_subset(std::span<const std::size_t> subset,
                     std::size_t num_points) {
  for (std::size_t s = 0; s < subset.size(); ++s) {
    require(subset[s] < num_points,
            "campaign subset: point index out of range");
    require(s == 0 || subset[s - 1] < subset[s],
            "campaign subset: point indices must be strictly increasing");
  }
}

std::vector<std::size_t> identity_subset(std::size_t n) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  return all;
}

/// Streaming-emission state for CampaignSpec::record_sink: one lazily
/// allocated record buffer per subset point plus an atomic countdown of its
/// unfinished configs. The lane that scores a point's last config emits the
/// whole buffer to the sink and frees it, so engine memory is bounded by the
/// records of in-flight points instead of the whole campaign. The release
/// decrements / acquire final-decrement pair makes every lane's buffer
/// writes visible to the emitting lane.
class PointEmitter {
 public:
  PointEmitter(ResultBlockSink& sink, std::size_t num_slices)
      : sink_(sink),
        buffers_(num_slices),
        sizes_(num_slices, 0),
        once_(std::make_unique<std::once_flag[]>(num_slices)),
        remaining_(std::make_unique<std::atomic<std::size_t>[]>(num_slices)) {}

  void set_slice_size(std::size_t s, std::size_t num_records) {
    remaining_[s].store(num_records, std::memory_order_relaxed);
    sizes_[s] = num_records;
  }

  /// Slot for record `local` (enumeration order within the point) of slice
  /// `s`. Safe to call concurrently for different locals of one slice.
  InjectionRecord& slot(std::size_t s, std::size_t local) {
    std::call_once(once_[s], [&] { buffers_[s].resize(sizes_[s]); });
    return buffers_[s][local];
  }

  /// Marks one record of slice `s` complete; emits and frees the buffer
  /// when it was the last.
  void complete_one(std::size_t s) {
    if (remaining_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      sink_.emit(buffers_[s]);
      buffers_[s] = {};
    }
  }

 private:
  ResultBlockSink& sink_;
  std::vector<std::vector<InjectionRecord>> buffers_;
  std::vector<std::size_t> sizes_;
  std::unique_ptr<std::once_flag[]> once_;
  std::unique_ptr<std::atomic<std::size_t>[]> remaining_;
};

/// The campaign's injection points over `transpiled`, after max_points
/// striding.
std::vector<InjectionPoint> strided_points(
    const transpile::TranspileResult& transpiled, const CampaignSpec& spec) {
  return stride_points(enumerate_injection_points(transpiled, spec.strategy),
                       spec.max_points);
}

/// A prepared campaign, its point table and the global point indices to
/// run.
struct Entry {
  Prepared prep;
  std::vector<InjectionPoint> points;
  std::vector<std::size_t> subset;
};

/// The one entry path of every campaign kind: refuses an adaptive spec for
/// kinds without adaptive estimation, prepares the campaign, builds its
/// point table (an empty one is refused with `no_points`) and resolves the
/// subset, every point when there is none.
Entry enter_campaign(
    const CampaignSpec& spec, bool adaptive_ok,
    std::optional<std::span<const std::size_t>> subset,
    std::string_view no_points = "campaign: no injection points") {
  require(adaptive_ok || !spec.adaptive,
          "campaign: adaptive estimation supports single-fault campaigns "
          "only");
  Entry entry{prepare(spec), {}, {}};
  entry.points = strided_points(entry.prep.transpiled, spec);
  require(!entry.points.empty(), no_points);
  entry.subset = subset ? std::vector<std::size_t>(subset->begin(),
                                                   subset->end())
                        : identity_subset(entry.points.size());
  return entry;
}

}  // namespace

std::vector<InjectionPoint> stride_points(std::vector<InjectionPoint> points,
                                          std::size_t max_points) {
  if (max_points == 0 || points.size() <= max_points) return points;
  std::vector<InjectionPoint> kept;
  kept.reserve(max_points);
  // Integer striding: floor(k * N / M) is strictly increasing for M <= N,
  // so exactly M distinct in-range points are kept (the floating-point
  // stride this replaces could duplicate or skip points).
  for (std::size_t k = 0; k < max_points; ++k) {
    kept.push_back(points[k * points.size() / max_points]);
  }
  return kept;
}

transpile::TranspileResult campaign_transpile(const CampaignSpec& spec) {
  return transpile::transpile(spec.circuit, spec.backend,
                              spec.transpile_options);
}

std::vector<InjectionPoint> campaign_points(const CampaignSpec& spec) {
  return strided_points(campaign_transpile(spec), spec);
}

std::vector<std::pair<InjectionPoint, int>> campaign_point_neighbor_pairs(
    const CampaignSpec& spec) {
  const auto transpiled = campaign_transpile(spec);
  const auto coupling = transpile::CouplingMap::from_backend(spec.backend);
  const auto points = strided_points(transpiled, spec);
  std::vector<std::pair<InjectionPoint, int>> pairs;
  for (const auto& p : points) {
    for (int nb : neighbor_candidates(transpiled, coupling, p)) {
      pairs.emplace_back(p, nb);
    }
  }
  return pairs;
}

namespace {

/// Shared single-fault engine: executes the configs of the subset's points
/// (subset entries are *global* indices into `result.points`). Seeds and
/// record point_index fields use global indices, so disjoint subsets union
/// to exactly the full-campaign record set; record slots are subset-local
/// (slot = subset position x configs_per_point + rem), keeping shard output
/// compact and in canonical ascending-point order.
CampaignResult single_campaign_impl(const CampaignSpec& spec, Prepared& prep,
                                    std::vector<InjectionPoint> points,
                                    std::span<const std::size_t> subset) {
  CampaignResult result;
  result.points = std::move(points);
  validate_subset(subset, result.points.size());

  const int num_theta = spec.grid.num_theta();
  const int num_phi = spec.grid.num_phi();
  const std::size_t configs_per_point =
      static_cast<std::size_t>(num_theta) * static_cast<std::size_t>(num_phi);
  const std::size_t total = subset.size() * configs_per_point;
  result.meta = base_metadata(spec, prep);
  begin_sink(spec, result, result.points.size() * configs_per_point);
  std::unique_ptr<PointEmitter> emitter;
  if (spec.record_sink) {
    // Streaming mode: records live in per-point buffers that are emitted
    // and freed as each point's grid completes; result.records stays empty.
    emitter = std::make_unique<PointEmitter>(*spec.record_sink, subset.size());
    for (std::size_t s = 0; s < subset.size(); ++s) {
      emitter->set_slice_size(s, configs_per_point);
    }
  } else {
    result.records.resize(total);
  }

  // Subset position s owns the flat record slots [s x configs_per_point,
  // (s + 1) x configs_per_point); `rem` is the slot's offset in the grid.
  std::vector<std::size_t> slice_begin(subset.size() + 1);
  for (std::size_t s = 0; s <= subset.size(); ++s) {
    slice_begin[s] = s * configs_per_point;
  }

  // Sweeps flat configs [begin, end) of subset position s from its
  // snapshot as one batch, filling and scoring their record slots.
  const auto sweep = [&](std::size_t s, std::size_t begin, std::size_t end,
                         const backend::PrefixSnapshot& snapshot) {
    const InjectionPoint& point = result.points[subset[s]];
    std::vector<backend::SuffixConfig> configs;
    configs.reserve(end - begin);
    for (std::size_t idx = begin; idx < end; ++idx) {
      configs.push_back(
          single_fault_config(spec, point, subset[s], idx - slice_begin[s]));
    }
    const auto runs = run_batch(prep, spec, snapshot, configs);
    for (std::size_t idx = begin; idx < end; ++idx) {
      const std::size_t rem = idx - slice_begin[s];
      InjectionRecord& rec =
          emitter ? emitter->slot(s, rem) : result.records[idx];
      rec.point_index = static_cast<std::uint32_t>(subset[s]);
      rec.theta_index = static_cast<int>(rem % num_theta);
      rec.phi_index = static_cast<int>(rem / num_theta);
      score_record(rec, runs[idx - begin].probabilities, prep.golden);
      if (emitter) emitter->complete_one(s);
    }
  };

  // Prefix-tree engine: one snapshot per unique split (operand points of a
  // multi-qubit gate share one), derived along chains, each point's grid
  // swept in fixed-size chunks.
  std::optional<util::ThreadPool> owned_pool;
  util::ThreadPool& pool = campaign_pool(spec, owned_pool);
  sweep_snapshot_tree(pool, prep, spec, subset_splits(result.points, subset),
                      slice_begin, kTreeChunk1q, sweep);

  result.meta.executions = total;
  result.meta.injections = campaign_injections(total, spec.shots);
  return result;
}

/// Adaptive single-fault engine (CampaignSpec::adaptive): each subset point
/// runs the adaptive estimator (core/adaptive.hpp) instead of sweeping the
/// whole grid, executing the estimator's batches through the same
/// snapshot + run_suffix_batch machinery as the exhaustive engine with the
/// same global (point, phi, theta)-addressed seeds. A point's whole
/// estimation loop lives on one pool lane and its batch compositions are a
/// pure function of the estimator's deterministic request sequence, so
/// records are bit-identical across reruns, thread counts and shardings —
/// the same contract as the exhaustive engine, reached the same way.
/// Per-point record blocks are sorted into grid-enumeration order before
/// they are stored or emitted, keeping merged-shard output canonical.
CampaignResult adaptive_campaign_impl(const CampaignSpec& spec, Prepared& prep,
                                      std::vector<InjectionPoint> points,
                                      std::span<const std::size_t> subset) {
  const AdaptivePolicy& policy = *spec.adaptive;
  validate_adaptive_policy(policy);

  CampaignResult result;
  result.points = std::move(points);
  validate_subset(subset, result.points.size());
  result.point_estimates.resize(result.points.size());
  result.meta = base_metadata(spec, prep);
  result.meta.adaptive = true;
  result.meta.adaptive_policy = policy;
  begin_sink(spec, result, 0);

  const int num_theta = spec.grid.num_theta();
  std::vector<std::vector<InjectionRecord>> blocks(subset.size());
  std::atomic<std::uint64_t> executions{0};

  std::optional<util::ThreadPool> owned_pool;
  util::ThreadPool& pool = campaign_pool(spec, owned_pool);
  const auto estimate_point = [&](std::size_t s,
                                  const backend::PrefixSnapshotPtr& snapshot) {
    const std::size_t global_point = subset[s];
    const InjectionPoint& point = result.points[global_point];
    auto& block = blocks[s];

    const AdaptiveBatchEval eval =
        [&](std::span<const std::uint32_t> rems) -> std::vector<double> {
      std::vector<backend::SuffixConfig> configs;
      configs.reserve(rems.size());
      for (const std::uint32_t rem : rems) {
        configs.push_back(single_fault_config(spec, point, global_point, rem));
      }
      const auto runs = run_batch(prep, spec, *snapshot, configs);
      std::vector<double> qvfs;
      qvfs.reserve(rems.size());
      for (std::size_t k = 0; k < runs.size(); ++k) {
        InjectionRecord rec;
        rec.point_index = static_cast<std::uint32_t>(global_point);
        rec.theta_index = static_cast<int>(rems[k] % num_theta);
        rec.phi_index = static_cast<int>(rems[k] / num_theta);
        score_record(rec, runs[k].probabilities, prep.golden);
        block.push_back(rec);
        qvfs.push_back(rec.qvf);
      }
      return qvfs;
    };

    const AdaptivePointEstimate estimate = run_adaptive_point(
        spec.grid, policy, spec.seed, global_point, eval);
    result.point_estimates[global_point] = estimate;
    executions.fetch_add(estimate.configs_evaluated,
                         std::memory_order_relaxed);
    std::sort(block.begin(), block.end(),
              [](const InjectionRecord& a, const InjectionRecord& b) {
                return std::pair(a.phi_index, a.theta_index) <
                       std::pair(b.phi_index, b.theta_index);
              });
    if (spec.record_sink) {
      spec.record_sink->emit(block);
      block = {};
    }
  };
  run_tree_chains(pool, prep, spec, subset_splits(result.points, subset),
                  kEveryPosition, estimate_point);

  if (!spec.record_sink) {
    for (auto& block : blocks) {
      result.records.insert(result.records.end(), block.begin(), block.end());
    }
  }
  result.meta.executions = executions.load(std::memory_order_relaxed);
  result.meta.injections =
      campaign_injections(result.meta.executions, spec.shots);
  return result;
}

/// Single-fault campaign over `subset`, or over every point without one.
CampaignResult single_fault_entry(
    const CampaignSpec& spec,
    std::optional<std::span<const std::size_t>> subset) {
  Entry entry = enter_campaign(spec, /*adaptive_ok=*/true, subset);
  if (spec.adaptive) {
    return adaptive_campaign_impl(spec, entry.prep, std::move(entry.points),
                                  entry.subset);
  }
  return single_campaign_impl(spec, entry.prep, std::move(entry.points),
                              entry.subset);
}

}  // namespace

CampaignResult run_single_fault_campaign(const CampaignSpec& spec) {
  return single_fault_entry(spec, std::nullopt);
}

CampaignResult run_single_fault_campaign_subset(
    const CampaignSpec& spec, std::span<const std::size_t> point_indices) {
  return single_fault_entry(spec, point_indices);
}

namespace {

/// Shared double-fault engine (see single_campaign_impl for the sharding
/// contract). The flat config list is enumerated over ALL points so every
/// config knows its global flat index — the seed input — and then filtered
/// to the subset's points; record slots are subset-local in global order.
CampaignResult double_campaign_impl(const CampaignSpec& spec, Prepared& prep,
                                    std::vector<InjectionPoint> points,
                                    std::span<const std::size_t> subset,
                                    bool require_neighbors) {
  CampaignResult result;
  result.points = std::move(points);
  validate_subset(subset, result.points.size());

  std::vector<char> in_subset(result.points.size(), 0);
  for (const std::size_t g : subset) in_subset[g] = 1;

  // Flatten (point, neighbor, theta0, phi0, theta1 <= theta0, phi1 <= phi0)
  // over all points, keeping only the subset's configs. `global_index` is
  // the position in the full enumeration — the seed stays sharding-
  // independent even though the kept list is compact.
  struct Config {
    std::uint64_t global_index;
    std::uint32_t point_index;
    std::int32_t neighbor;
    std::int32_t theta_index, phi_index;
    std::int32_t theta1_index, phi1_index;
  };
  std::vector<Config> configs;
  std::uint64_t global_index = 0;
  bool any_neighbors = false;
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const auto neighbors =
        neighbor_candidates(prep.transpiled, prep.coupling, result.points[p]);
    if (!neighbors.empty()) any_neighbors = true;
    for (int nb : neighbors) {
      for (int j0 = 0; j0 < spec.grid.num_phi(); ++j0) {
        for (int i0 = 0; i0 < spec.grid.num_theta(); ++i0) {
          for (int j1 = 0; j1 <= j0; ++j1) {
            for (int i1 = 0; i1 <= i0; ++i1) {
              if (in_subset[p]) {
                configs.push_back(Config{global_index,
                                         static_cast<std::uint32_t>(p), nb,
                                         i0, j0, i1, j1});
              }
              ++global_index;
            }
          }
        }
      }
    }
  }
  require(!require_neighbors || any_neighbors,
          "double campaign: no coupled active neighbors (check topology)");
  result.meta = base_metadata(spec, prep);
  result.meta.double_fault = true;
  begin_sink(spec, result, global_index);

  // Each subset point owns one contiguous slice of `configs` (the list is
  // ordered by point). The boundaries drive both the tree sweep and the
  // streaming emitter, so compute them once up front.
  std::vector<std::size_t> slice_begin(subset.size() + 1, 0);
  std::vector<std::size_t> subset_pos(result.points.size(), 0);
  for (std::size_t s = 0; s < subset.size(); ++s) subset_pos[subset[s]] = s;
  for (const Config& cfg : configs) {
    ++slice_begin[subset_pos[cfg.point_index] + 1];
  }
  for (std::size_t s = 0; s < subset.size(); ++s) {
    slice_begin[s + 1] += slice_begin[s];
  }

  std::unique_ptr<PointEmitter> emitter;
  if (spec.record_sink) {
    // Streaming mode: see single_campaign_impl. Zero-length slices (points
    // with no coupled active neighbor) simply never emit.
    emitter = std::make_unique<PointEmitter>(*spec.record_sink, subset.size());
    for (std::size_t s = 0; s < subset.size(); ++s) {
      emitter->set_slice_size(s, slice_begin[s + 1] - slice_begin[s]);
    }
  } else {
    result.records.resize(configs.size());
  }

  // Sweeps flat configs [begin, end) — all in subset position s's slice —
  // from its snapshot as one batch, filling and scoring their records.
  const auto sweep = [&](std::size_t s, std::size_t begin, std::size_t end,
                         const backend::PrefixSnapshot& snapshot) {
    std::vector<backend::SuffixConfig> batch;
    batch.reserve(end - begin);
    for (std::size_t idx = begin; idx < end; ++idx) {
      // The single source of a flat config's fault pair and seed.
      const Config& cfg = configs[idx];
      const PhaseShiftFault primary{spec.grid.theta_at(cfg.theta_index),
                                    spec.grid.phi_at(cfg.phi_index)};
      const PhaseShiftFault secondary{spec.grid.theta_at(cfg.theta1_index),
                                      spec.grid.phi_at(cfg.phi1_index)};
      backend::SuffixConfig sc;
      sc.injected = {
          primary.as_instruction(result.points[cfg.point_index].qubit),
          secondary.as_instruction(cfg.neighbor)};
      sc.seed = config_seed(spec, cfg.global_index, cfg.point_index,
                            static_cast<std::uint64_t>(cfg.theta_index),
                            static_cast<std::uint64_t>(cfg.phi_index));
      batch.push_back(std::move(sc));
    }
    const auto runs = run_batch(prep, spec, snapshot, batch);
    for (std::size_t idx = begin; idx < end; ++idx) {
      const Config& cfg = configs[idx];
      InjectionRecord& rec = emitter ? emitter->slot(s, idx - slice_begin[s])
                                     : result.records[idx];
      rec.point_index = cfg.point_index;
      rec.theta_index = cfg.theta_index;
      rec.phi_index = cfg.phi_index;
      rec.neighbor_qubit = cfg.neighbor;
      rec.theta1_index = cfg.theta1_index;
      rec.phi1_index = cfg.phi1_index;
      score_record(rec, runs[idx - begin].probabilities, prep.golden);
      if (emitter) emitter->complete_one(s);
    }
  };

  // Prefix-tree engine (see single_campaign_impl): each point's slice — the
  // full primary x secondary grid over every coupled neighbor — sweeps from
  // its shared snapshot. Points with an empty slice (no coupled active
  // neighbor) never materialize a snapshot.
  std::optional<util::ThreadPool> owned_pool;
  util::ThreadPool& pool = campaign_pool(spec, owned_pool);
  sweep_snapshot_tree(pool, prep, spec, subset_splits(result.points, subset),
                      slice_begin, kTreeChunk2q, sweep);

  result.meta.executions = configs.size();
  result.meta.injections = campaign_injections(configs.size(), spec.shots);
  return result;
}

}  // namespace

CampaignResult run_double_fault_campaign(const CampaignSpec& spec) {
  Entry entry = enter_campaign(spec, /*adaptive_ok=*/false, std::nullopt);
  return double_campaign_impl(spec, entry.prep, std::move(entry.points),
                              entry.subset, /*require_neighbors=*/true);
}

CampaignResult run_double_fault_campaign_subset(
    const CampaignSpec& spec, std::span<const std::size_t> point_indices) {
  Entry entry = enter_campaign(spec, /*adaptive_ok=*/false, point_indices);
  return double_campaign_impl(spec, entry.prep, std::move(entry.points),
                              entry.subset, /*require_neighbors=*/false);
}

std::vector<NamedFaultQvf> run_named_fault_campaign(
    const CampaignSpec& spec, std::span<const NamedFault> faults) {
  Entry entry = enter_campaign(spec, /*adaptive_ok=*/false, std::nullopt,
                               "named-fault campaign: no injection points");
  const Prepared& prep = entry.prep;
  const auto& points = entry.points;

  // One snapshot per split covers every named fault injected there, so all
  // named faults at one point go out as a single batch.
  std::vector<std::vector<double>> qvfs(
      faults.size(), std::vector<double>(points.size(), 0.0));
  std::optional<util::ThreadPool> owned_pool;
  util::ThreadPool& pool = campaign_pool(spec, owned_pool);
  const auto inject_all = [&](std::size_t p,
                              const backend::PrefixSnapshotPtr& snapshot) {
    std::vector<backend::SuffixConfig> batch(faults.size());
    for (std::size_t f = 0; f < faults.size(); ++f) {
      batch[f].injected = {faults[f].fault.as_instruction(points[p].qubit)};
      batch[f].seed = config_seed(spec, f, p, 0, 1);
    }
    const auto runs = run_batch(prep, spec, *snapshot, batch);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      qvfs[f][p] = compute_qvf(runs[f].probabilities, prep.golden);
    }
  };
  run_tree_chains(pool, prep, spec, subset_splits(points, entry.subset),
                  kEveryPosition, inject_all);

  std::vector<NamedFaultQvf> out;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    NamedFaultQvf entry;
    entry.fault_name = faults[f].name;
    entry.mean_qvf = util::mean_of(qvfs[f]);
    entry.executions = points.size();
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace qufi
