#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/fault_model.hpp"
#include "core/injection.hpp"
#include "util/stats.hpp"

namespace qufi {

namespace util {
class CsvWriter;
class ThreadPool;
}  // namespace util

/// One executed injection configuration and its score.
struct InjectionRecord {
  std::uint32_t point_index = 0;  ///< into CampaignResult::points
  std::int32_t theta_index = 0;   ///< primary-fault grid indices
  std::int32_t phi_index = 0;
  // Double-fault fields (negative when single fault):
  std::int32_t neighbor_qubit = -1;
  std::int32_t theta1_index = -1;
  std::int32_t phi1_index = -1;

  double qvf = 0.0;
  double pa = 0.0;  ///< correct-state probability mass
  double pb = 0.0;  ///< strongest incorrect state
};

/// (theta, phi)-indexed aggregation of QVF values — the data behind the
/// paper's heatmap figures. mean_qvf[phi_index][theta_index].
struct HeatmapGrid {
  std::vector<double> theta_rad;
  std::vector<double> phi_rad;
  std::vector<std::vector<double>> mean_qvf;
  std::vector<std::vector<std::uint64_t>> samples;

  /// Elementwise difference this - other (paper Fig. 9). Grids must match.
  HeatmapGrid delta(const HeatmapGrid& other) const;

  double at(int phi_index, int theta_index) const;
};

/// Campaign-level metadata for reports.
struct CampaignMetadata {
  std::string circuit_name;
  std::string backend_name;
  int circuit_qubits = 0;
  int transpiled_gates = 0;
  FaultParamGrid grid;
  std::uint64_t shots = 0;  ///< 0 = exact distributions
  std::uint64_t seed = 0;
  bool double_fault = false;
  /// Moment-scheduled idle-qubit relaxation was active (see
  /// CampaignSpec::idle_noise). Carried through partial-result files so the
  /// shard merger can reject mixing idle-noise and plain shards.
  bool idle_noise = false;
  /// Campaign ran in adaptive estimation mode (CampaignSpec::adaptive):
  /// records cover only the estimator's evaluated subset of each point's
  /// grid. Carried through partial-result files and manifests so the shard
  /// merger can reject mixing adaptive and exhaustive shards (or shards
  /// with differing policies, which sample different config sets).
  bool adaptive = false;
  AdaptivePolicy adaptive_policy;  ///< meaningful only when `adaptive`
  double faultfree_qvf = 0.0;  ///< QVF of the noisy, fault-free execution
  std::uint64_t executions = 0;  ///< faulty circuits executed
  std::uint64_t injections = 0;  ///< paper accounting: executions x shots
};

/// Receives a running campaign's output as the engine produces it.
///
/// When CampaignSpec::record_sink is set, the engine first calls begin()
/// exactly once — before any emit(), also for an empty subset — with what
/// is fixed before the sweep: the final metadata (the fault-free QVF
/// included; executions/injections are zero, they are end-of-run totals),
/// the full global point table, and the record total of the full campaign
/// (all shards; 0 for adaptive campaigns, whose record count is decided
/// while they run). It then hands each injection point's finished record
/// slice to emit() the moment its grid sweep completes — blocks arrive in
/// completion order, not point order, and concurrently from pool lanes, so
/// emit() must be internally synchronized and must consume the span before
/// returning (it aliases engine-owned storage that is recycled afterwards).
/// Each emitted block is one whole point's records, sorted in enumeration
/// order — exactly the block shape the columnar result container stores
/// (src/core/result_io.hpp) and the streaming shard merger consumes.
class ResultBlockSink {
 public:
  virtual ~ResultBlockSink() = default;
  virtual void begin(const CampaignMetadata& meta,
                     std::span<const InjectionPoint> points,
                     std::uint64_t expected_total_records) = 0;
  virtual void emit(std::span<const InjectionRecord> records) = 0;
};

/// Full output of a fault-injection campaign plus the aggregations used by
/// every figure of the paper.
class CampaignResult {
 public:
  CampaignMetadata meta;
  std::vector<InjectionPoint> points;
  std::vector<InjectionRecord> records;
  /// Adaptive campaigns only: per-point estimator outputs, parallel to
  /// `points` (empty otherwise). Derived data, filled only by the engine:
  /// every exporter recomputes these from `records` via
  /// replay_adaptive_point rather than trusting this vector, so a CSV
  /// merged from shard partials and the single-process write_csv cannot
  /// diverge; it exists for in-process consumers (CLIs, tests).
  std::vector<AdaptivePointEstimate> point_estimates;

  /// Mean QVF per primary (theta, phi) cell over all points (Fig. 5; for
  /// double campaigns this averages over all secondary combos too, Fig 8b).
  HeatmapGrid mean_heatmap() const;

  /// Mean heatmap restricted to points attributed to one logical qubit
  /// (Fig. 6 per-qubit profiles).
  HeatmapGrid heatmap_for_logical_qubit(int logical_qubit) const;

  /// Distinct logical qubits appearing across points (sorted).
  std::vector<int> logical_qubits() const;

  /// For double campaigns: QVF over the secondary (theta1, phi1) grid with
  /// the primary fault fixed (Fig. 8c "explosion plot").
  HeatmapGrid secondary_detail(int theta_index, int phi_index) const;

  /// All per-record QVF values, in record order.
  std::vector<double> all_qvf() const;

  util::Histogram qvf_histogram(std::size_t bins = 25) const;
  util::RunningStats qvf_stats() const;

  /// Fraction of records in each impact class (masked/dubious/silent).
  struct ImpactBreakdown {
    double masked = 0.0;
    double dubious = 0.0;
    double silent = 0.0;
  };
  ImpactBreakdown impact_breakdown() const;

  /// Writes one row per record through CampaignCsvWriter, its blocks
  /// formatted on a pool of hardware threads. Rows are sorted by point
  /// index (stable within a point), so output is deterministic for merged
  /// shard results as well as single-process runs.
  void write_csv(const std::string& path) const;

 private:
  HeatmapGrid empty_primary_grid() const;
};

/// The one campaign-CSV producer: CampaignResult::write_csv, the streaming
/// shard merge and qufid's live prefix CSV all write through it, so their
/// bytes agree by construction (column schema: README "Campaign CSV
/// schema"). Rows go to a process-unique temp file that commit() renames
/// into place; a writer destroyed without commit() removes the temp file,
/// so a failed export never leaves a CSV, whole or truncated, at `path`.
///
/// Rows are formatted in blocks of about kBlockRows records (whole point
/// runs for adaptive campaigns) by one row formatter. The grid-angle cells
/// are formatted once per writer, and the point (and adaptive estimator)
/// cells once per point run, each by the append_number call a per-row
/// cell would make. Both write overloads emit the same bytes.
class CampaignCsvWriter {
 public:
  /// Records per formatted block (an adaptive block extends to the end of
  /// its last point run).
  static constexpr std::size_t kBlockRows = 1024;

  /// Opens the temp file and writes the preamble (metadata comment row and
  /// column header). `points` is the global point table the rows index and
  /// must outlive the writer. Throws qufi::Error when the file cannot be
  /// created.
  CampaignCsvWriter(std::string path, const CampaignMetadata& meta,
                    std::span<const InjectionPoint> points);
  ~CampaignCsvWriter();

  CampaignCsvWriter(const CampaignCsvWriter&) = delete;
  CampaignCsvWriter& operator=(const CampaignCsvWriter&) = delete;

  /// Writes one row per record. `records` ascend by point and hold whole
  /// point runs: a point never continues into a later call. Adaptive
  /// campaigns stamp each run with its replayed estimate
  /// (adaptive_point_estimate), which throws on a partial run.
  void write(std::span<const InjectionRecord> records);

  /// As write(records), with the blocks formatted on `pool`'s lanes, at
  /// most 2 x pool.size() at a time, and appended in record order. Waits
  /// for every block it submitted before returning or throwing.
  void write(std::span<const InjectionRecord> records, util::ThreadPool& pool);

  /// Flushes, closes and renames the file into place. Throws qufi::Error
  /// naming the path on any failure, leaving no temp file behind.
  void commit();

 private:
  /// Appends the rows of `records` (whole point runs) to `out`.
  void format_rows(std::span<const InjectionRecord> records,
                   std::string& out) const;
  /// End of the block of `records` that starts at `begin`.
  std::size_t block_end(std::span<const InjectionRecord> records,
                        std::size_t begin) const;

  std::string path_;
  std::string temp_;
  CampaignMetadata meta_;
  std::span<const InjectionPoint> points_;
  std::vector<std::string> theta_text_;  ///< theta_at(i), formatted
  std::vector<std::string> phi_text_;    ///< phi_at(j), formatted
  std::unique_ptr<util::CsvWriter> csv_;
};

/// Recomputes one point's adaptive estimate from its complete record block
/// (all records share one point_index) by replaying the estimator against
/// the recorded QVF values — the single projection path every CSV exporter
/// shares. Throws qufi::Error when the block does not exactly match the
/// estimator's evaluated config set for that point.
AdaptivePointEstimate adaptive_point_estimate(
    const CampaignMetadata& meta, std::span<const InjectionRecord> records);

/// Paper-style injection accounting: executions x shots ("we report the
/// finding of more than 285,249,536 injections").
std::uint64_t single_campaign_executions(std::size_t num_points,
                                         const FaultParamGrid& grid);
std::uint64_t double_campaign_executions(std::size_t num_point_neighbor_pairs,
                                         const FaultParamGrid& primary_grid);

/// executions x shots, with exact runs (shots == 0) counting one injection
/// per execution — the single source of CampaignMetadata::injections,
/// shared by the campaign engines and the shard merger.
std::uint64_t campaign_injections(std::uint64_t executions,
                                  std::uint64_t shots);

}  // namespace qufi
