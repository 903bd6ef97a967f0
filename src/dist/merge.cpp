#include "dist/merge.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/result_io.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qufi::dist {

namespace {

/// The adaptive analog of the idle-noise mode check: an adaptive shard in
/// an exhaustive campaign (or a different policy) evaluates a different
/// config set per point, so the mixup gets its own diagnosis before the
/// generic metadata comparison.
void require_adaptive_compatible(const CampaignMetadata& a,
                                 const CampaignMetadata& b) {
  require(a.adaptive == b.adaptive,
          "merge: cannot mix adaptive and exhaustive shards (adaptive "
          "estimation changes which configs each point evaluates; re-run "
          "the shard with the campaign's mode)");
  require(!a.adaptive || a.adaptive_policy == b.adaptive_policy,
          "merge: shards disagree on the adaptive policy (budget, CI "
          "target, floor and seed must match for the evaluated config sets "
          "to line up; re-run the shard with the campaign's policy)");
}

/// Adaptive completeness: with no pre-computable record total (partials
/// carry expected_total_records = 0), a merged adaptive campaign is
/// complete when every point of the table contributed records — the
/// estimator always evaluates at least its coarse lattice per point.
void require_adaptive_coverage(const MissingPointReport& missing) {
  require(missing.count == 0,
          "merge: incomplete adaptive campaign (missing shard output?)" +
              missing.describe());
}

bool meta_matches(const CampaignMetadata& a, const CampaignMetadata& b) {
  return a.circuit_name == b.circuit_name &&
         a.backend_name == b.backend_name &&
         a.circuit_qubits == b.circuit_qubits &&
         a.transpiled_gates == b.transpiled_gates &&
         a.grid.theta_step_deg == b.grid.theta_step_deg &&
         a.grid.phi_step_deg == b.grid.phi_step_deg &&
         a.grid.theta_max_deg == b.grid.theta_max_deg &&
         a.grid.phi_max_deg == b.grid.phi_max_deg && a.shots == b.shots &&
         a.seed == b.seed && a.double_fault == b.double_fault &&
         a.idle_noise == b.idle_noise && a.adaptive == b.adaptive &&
         (!a.adaptive || a.adaptive_policy == b.adaptive_policy) &&
         a.faultfree_qvf == b.faultfree_qvf;
}

bool points_match(const std::vector<InjectionPoint>& a,
                  const std::vector<InjectionPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].instr_index != b[i].instr_index || a[i].qubit != b[i].qubit ||
        a[i].logical_qubit != b[i].logical_qubit ||
        a[i].moment != b[i].moment) {
      return false;
    }
  }
  return true;
}

/// Every input of a merge must describe one campaign. The mode mixups get
/// their own diagnosis before the generic metadata comparison.
void require_same_campaign(const CampaignMetadata& a_meta,
                           const std::vector<InjectionPoint>& a_points,
                           const CampaignMetadata& b_meta,
                           const std::vector<InjectionPoint>& b_points) {
  require(a_meta.idle_noise == b_meta.idle_noise,
          "merge: cannot mix idle-noise and non-idle shards (the "
          "idle_noise execution mode changes every record; re-run the "
          "shard with the campaign's mode)");
  require_adaptive_compatible(a_meta, b_meta);
  require(meta_matches(a_meta, b_meta),
          "merge: shard metadata mismatch (different campaigns?)");
  require(points_match(a_points, b_points),
          "merge: shard point tables differ (different campaigns?)");
}

/// Bit-exact record equality. Doubles compare by bit pattern, not value:
/// shards are deterministic, so a retried shard reproduces the *bits* — a
/// value-equal-but-bit-different double (-0.0 vs 0.0) still means the
/// workers diverged.
bool record_matches(const InjectionRecord& a, const InjectionRecord& b) {
  return a.point_index == b.point_index && a.theta_index == b.theta_index &&
         a.phi_index == b.phi_index && a.neighbor_qubit == b.neighbor_qubit &&
         a.theta1_index == b.theta1_index && a.phi1_index == b.phi1_index &&
         std::bit_cast<std::uint64_t>(a.qvf) ==
             std::bit_cast<std::uint64_t>(b.qvf) &&
         std::bit_cast<std::uint64_t>(a.pa) ==
             std::bit_cast<std::uint64_t>(b.pa) &&
         std::bit_cast<std::uint64_t>(a.pb) ==
             std::bit_cast<std::uint64_t>(b.pb);
}

/// "shard 0 and shard 2 disagree on point 17 (...)" — duplicate points are
/// only legal as bit-exact retries, so a conflict must name the pair that
/// diverged for the operator to requeue the right shard.
std::string conflict_message(const std::string& a, const std::string& b,
                             std::uint32_t point, const std::string& detail) {
  return "merge: " + a + " and " + b + " disagree on point " +
         std::to_string(point) + " (" + detail +
         "); duplicates must be bit-exact retries";
}

/// The points of a per-point `seen` bitmap that contributed no records.
MissingPointReport unseen_points(const std::vector<bool>& seen) {
  constexpr std::size_t kMaxExamples = 8;
  MissingPointReport report;
  for (std::size_t p = 0; p < seen.size(); ++p) {
    if (seen[p]) continue;
    ++report.count;
    if (report.first.size() < kMaxExamples) {
      report.first.push_back(static_cast<std::uint32_t>(p));
    }
  }
  return report;
}

/// One input of the streaming merge: a block-indexed reader plus a cursor
/// over the current (single) decoded block — the only record storage the
/// merge holds per input.
struct BlockStream {
  std::unique_ptr<resio::ResultReader> reader;
  std::string label;
  std::size_t next_block = 0;
  std::vector<InjectionRecord> cur;
  std::size_t pos = 0;

  /// Positions the cursor on the next record; false at end of input.
  bool ready() {
    while (pos == cur.size()) {
      if (next_block == reader->num_blocks()) {
        cur.clear();
        pos = 0;
        return false;
      }
      cur = reader->read_block(next_block++);
      pos = 0;
    }
    return true;
  }

  std::uint32_t point() const { return cur[pos].point_index; }

  /// Consumes and returns the current point's whole record run. A point
  /// never spans blocks (container invariant), so the run is a contiguous
  /// slice of the current block; the span stays valid until the next
  /// ready() call.
  std::span<const InjectionRecord> take_run() {
    const std::uint32_t p = point();
    const std::size_t begin = pos;
    while (pos < cur.size() && cur[pos].point_index == p) ++pos;
    return {cur.data() + begin, pos - begin};
  }
};

/// Consumes every later stream's run at `point` and cross-checks it against
/// the owning stream's run (the bit-exact retry rule shared by all merges).
/// Returns the number of duplicate records dropped.
std::uint64_t consume_duplicate_runs(std::vector<BlockStream>& streams,
                                     std::size_t owner, std::uint32_t point,
                                     std::span<const InjectionRecord> run) {
  std::uint64_t dropped = 0;
  for (std::size_t i = owner + 1; i < streams.size(); ++i) {
    if (!streams[i].ready() || streams[i].point() != point) continue;
    const auto dup = streams[i].take_run();
    if (dup.size() != run.size()) {
      throw Error(conflict_message(streams[owner].label, streams[i].label,
                                   point,
                                   std::to_string(run.size()) + " vs " +
                                       std::to_string(dup.size()) +
                                       " records"));
    }
    for (std::size_t k = 0; k < run.size(); ++k) {
      if (!record_matches(run[k], dup[k])) {
        throw Error(conflict_message(
            streams[owner].label, streams[i].label, point,
            "record " + std::to_string(k) + " of " +
                std::to_string(run.size()) + " differs"));
      }
    }
    dropped += dup.size();
  }
  return dropped;
}

/// The walk every file merge shares: takes the minimum pending point below
/// `end_point`, owned by the first input at it (first input wins),
/// cross-checks duplicate runs bit-exactly, and hands the owner's run to
/// `emit` in ascending point order. Returns the duplicate records dropped.
template <typename Emit>
std::uint64_t walk_min_points(std::vector<BlockStream>& streams,
                              std::uint64_t end_point, const Emit& emit) {
  std::uint64_t dropped = 0;
  while (true) {
    std::size_t owner = streams.size();
    std::uint32_t min_point = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (!streams[i].ready()) continue;
      if (owner == streams.size() || streams[i].point() < min_point) {
        owner = i;
        min_point = streams[i].point();
      }
    }
    if (owner == streams.size() || min_point >= end_point) break;
    const auto run = streams[owner].take_run();
    dropped += consume_duplicate_runs(streams, owner, min_point, run);
    emit(run);
  }
  return dropped;
}

/// Opens every input as a sealed stream and checks that all headers
/// describe one campaign.
std::vector<BlockStream> open_merge_inputs(
    std::span<const std::string> inputs) {
  require(!inputs.empty(), "merge: no partial results");
  std::vector<BlockStream> streams;
  streams.reserve(inputs.size());
  for (const std::string& input : inputs) {
    BlockStream s;
    s.reader = std::make_unique<resio::ResultReader>(input);
    s.label = "shard " + std::to_string(s.reader->header().shard_index);
    streams.push_back(std::move(s));
  }
  const resio::ResultFileHeader& first = streams[0].reader->header();
  for (const BlockStream& s : streams) {
    const resio::ResultFileHeader& h = s.reader->header();
    require_same_campaign(first.meta, first.points, h.meta, h.points);
    require(h.shard_count == first.shard_count,
            "merge: partials disagree on shard count");
    require(h.expected_total_records == first.expected_total_records,
            "merge: partials disagree on expected record count");
  }
  return streams;
}

/// Core streaming k-way merge over opened inputs: repeatedly extracts the
/// minimum-point run across inputs, cross-checks duplicate runs
/// bit-exactly, and hands the surviving run to `emit` in ascending global
/// point order. Memory: one decoded block per input, one run in flight.
template <typename Emit>
StreamingMergeStats run_file_merge(std::span<const std::string> inputs,
                                   const MergeOptions& options,
                                   std::vector<BlockStream>& streams,
                                   const Emit& emit) {
  const resio::ResultFileHeader& first = streams[0].reader->header();
  const std::uint64_t expected = first.expected_total_records;
  StreamingMergeStats stats;
  std::vector<bool> emitted(first.points.size(), false);
  stats.duplicate_records = walk_min_points(
      streams, std::numeric_limits<std::uint64_t>::max(),
      [&](std::span<const InjectionRecord> run) {
        emit(run);
        stats.merged_records += run.size();
        const std::uint32_t point = run.front().point_index;
        if (point < emitted.size()) emitted[point] = true;
      });

  // The requeue-aware diagnostic: which global points contributed nothing.
  // A lost or still-requeued shard shows up here by its point indices, so
  // dispatcher logs and --allow-partial CLI output name the same thing.
  stats.missing = unseen_points(emitted);

  if (!options.allow_incomplete && expected > 0) {
    require(stats.merged_records == expected,
            "merge: incomplete campaign: " +
                std::to_string(stats.merged_records) + " of " +
                std::to_string(expected) +
                " expected records (missing shard output?)" +
                stats.missing.describe());
  }
  if (!options.allow_incomplete && first.meta.adaptive) {
    require_adaptive_coverage(stats.missing);
  }
  for (const std::string& path : inputs) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec) stats.input_bytes += size;
  }
  return stats;
}

}  // namespace

std::string MissingPointReport::describe() const {
  if (count == 0) return "";
  std::string out = " (" + std::to_string(count) + " point" +
                    (count == 1 ? "" : "s") + " have no records; first missing:";
  for (std::size_t i = 0; i < first.size(); ++i) {
    out += (i == 0 ? " " : ", ") + std::to_string(first[i]);
  }
  if (count > first.size()) out += ", ...";
  out += ")";
  return out;
}

StreamingMergeStats merge_result_files(std::span<const std::string> inputs,
                                       const std::string& out_path,
                                       const MergeOptions& options) {
  std::vector<BlockStream> streams = open_merge_inputs(inputs);
  resio::ResultFileHeader header = streams[0].reader->header();
  header.shard_index = 0;
  header.shard_count = 1;
  resio::ResultWriter writer(out_path, header);
  const StreamingMergeStats stats = run_file_merge(
      inputs, options, streams,
      [&](std::span<const InjectionRecord> run) { writer.append(run); });
  // Executions are recomputed from the merged record set, not summed over
  // shards (duplicates would double-count).
  writer.finish(stats.merged_records,
                campaign_injections(stats.merged_records, header.meta.shots));
  return stats;
}

StreamingMergeStats merge_result_files_to_csv(
    std::span<const std::string> inputs, const std::string& csv_path,
    const MergeOptions& options, util::ThreadPool* borrowed) {
  std::vector<BlockStream> streams = open_merge_inputs(inputs);
  const resio::ResultFileHeader& header = streams[0].reader->header();
  CampaignCsvWriter csv(csv_path, header.meta, header.points);
  // Whole point runs are gathered into batches, so each write hands the
  // pool many blocks to format at once, as CampaignResult::write_csv does.
  std::optional<util::ThreadPool> owned;
  util::ThreadPool& pool = borrowed != nullptr ? *borrowed : owned.emplace();
  std::vector<InjectionRecord> batch;
  const StreamingMergeStats stats = run_file_merge(
      inputs, options, streams, [&](std::span<const InjectionRecord> run) {
        batch.insert(batch.end(), run.begin(), run.end());
        if (batch.size() >= kMergeCsvBatchRecords) {
          csv.write(batch, pool);
          batch.clear();
        }
      });
  csv.write(batch, pool);
  csv.commit();
  return stats;
}

bool result_files_equivalent(const std::string& a, const std::string& b) {
  BlockStream x;
  BlockStream y;
  x.reader = std::make_unique<resio::ResultReader>(a);
  y.reader = std::make_unique<resio::ResultReader>(b);
  if (!meta_matches(x.reader->header().meta, y.reader->header().meta) ||
      !points_match(x.reader->header().points, y.reader->header().points) ||
      x.reader->total_records() != y.reader->total_records()) {
    return false;
  }
  while (true) {
    const bool more_x = x.ready();
    const bool more_y = y.ready();
    if (more_x != more_y) return false;
    if (!more_x) return true;
    if (!record_matches(x.cur[x.pos], y.cur[y.pos])) return false;
    ++x.pos;
    ++y.pos;
  }
}

PrefixMergeResult merge_result_prefix(
    std::span<const PrefixMergeInput> inputs) {
  PrefixMergeResult out;

  // Open every input that already has a complete header, in Tail mode. An
  // input whose header has not reached the disk yet contributes nothing
  // (counted, skipped); once the header is readable, any inconsistency the
  // Tail reader finds is corruption and propagates.
  std::vector<BlockStream> streams;
  std::vector<const PrefixMergeInput*> specs;
  for (const PrefixMergeInput& input : inputs) {
    if (!resio::result_header_available(input.path)) {
      ++out.unreadable_inputs;
      continue;
    }
    BlockStream s;
    s.reader = std::make_unique<resio::ResultReader>(input.path,
                                                     resio::ReadMode::Tail);
    s.label = "shard " + std::to_string(s.reader->header().shard_index) +
              " (" + input.path + ")";
    if (s.reader->sealed()) ++out.sealed_inputs;
    streams.push_back(std::move(s));
    specs.push_back(&input);
  }
  if (streams.empty()) return out;

  const resio::ResultFileHeader& first = streams[0].reader->header();
  const std::size_t num_points = first.points.size();
  out.total_points = static_cast<std::uint32_t>(num_points);
  out.meta = first.meta;
  out.points = first.points;
  for (const BlockStream& s : streams) {
    const resio::ResultFileHeader& h = s.reader->header();
    require_same_campaign(first.meta, first.points, h.meta, h.points);
  }

  // Resolve the frontier. A point is final when an input *owning* it proves
  // it: a complete block whose range covers the point (block ranges within a
  // file are pairwise disjoint, so that input can never append the point
  // again), or the input being sealed (proving the point produced zero
  // records). Range coverage alone is not enough — under strided ownership
  // a block's range can straddle points the writing shard never executes.
  std::vector<bool> resolved(num_points, false);
  for (std::size_t si = 0; si < streams.size(); ++si) {
    const std::vector<std::size_t>& owned = specs[si]->owned_points;
    if (streams[si].reader->sealed()) {
      for (std::size_t p : owned) {
        if (p < num_points) resolved[p] = true;
      }
      continue;
    }
    for (std::size_t b = 0; b < streams[si].reader->num_blocks(); ++b) {
      const auto& info = streams[si].reader->block_info(b);
      const auto lo = std::lower_bound(
          owned.begin(), owned.end(),
          static_cast<std::size_t>(info.first_point));
      const auto hi = std::upper_bound(
          owned.begin(), owned.end(),
          static_cast<std::size_t>(info.last_point));
      for (auto it = lo; it != hi; ++it) {
        if (*it < num_points) resolved[*it] = true;
      }
    }
  }
  std::uint32_t frontier = 0;
  while (frontier < num_points && resolved[frontier]) ++frontier;
  out.frontier = frontier;
  out.complete = frontier == num_points;

  // Merge exactly the points below the frontier — the full file merge's
  // walk, cut short at the first unresolved point.
  walk_min_points(streams, frontier,
                  [&](std::span<const InjectionRecord> run) {
                    out.records.insert(out.records.end(), run.begin(),
                                       run.end());
                  });
  out.meta.executions = out.records.size();
  out.meta.injections =
      campaign_injections(out.records.size(), out.meta.shots);
  return out;
}

}  // namespace qufi::dist
