#include "core/results.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <set>

#include "core/qvf.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qufi {

HeatmapGrid HeatmapGrid::delta(const HeatmapGrid& other) const {
  require(theta_rad.size() == other.theta_rad.size() &&
              phi_rad.size() == other.phi_rad.size(),
          "HeatmapGrid::delta: grid shape mismatch");
  HeatmapGrid out = *this;
  for (std::size_t j = 0; j < mean_qvf.size(); ++j) {
    for (std::size_t i = 0; i < mean_qvf[j].size(); ++i) {
      out.mean_qvf[j][i] -= other.mean_qvf[j][i];
      out.samples[j][i] = std::min(samples[j][i], other.samples[j][i]);
    }
  }
  return out;
}

double HeatmapGrid::at(int phi_index, int theta_index) const {
  return mean_qvf.at(static_cast<std::size_t>(phi_index))
      .at(static_cast<std::size_t>(theta_index));
}

namespace {

HeatmapGrid make_grid(const FaultParamGrid& grid) {
  HeatmapGrid out;
  for (int i = 0; i < grid.num_theta(); ++i)
    out.theta_rad.push_back(grid.theta_at(i));
  for (int j = 0; j < grid.num_phi(); ++j) out.phi_rad.push_back(grid.phi_at(j));
  out.mean_qvf.assign(out.phi_rad.size(),
                      std::vector<double>(out.theta_rad.size(), 0.0));
  out.samples.assign(out.phi_rad.size(),
                     std::vector<std::uint64_t>(out.theta_rad.size(), 0));
  return out;
}

void finalize_means(HeatmapGrid& grid) {
  for (std::size_t j = 0; j < grid.mean_qvf.size(); ++j) {
    for (std::size_t i = 0; i < grid.mean_qvf[j].size(); ++i) {
      if (grid.samples[j][i] > 0) {
        grid.mean_qvf[j][i] /= static_cast<double>(grid.samples[j][i]);
      }
    }
  }
}

}  // namespace

HeatmapGrid CampaignResult::empty_primary_grid() const {
  return make_grid(meta.grid);
}

HeatmapGrid CampaignResult::mean_heatmap() const {
  HeatmapGrid grid = empty_primary_grid();
  for (const auto& r : records) {
    grid.mean_qvf[static_cast<std::size_t>(r.phi_index)]
                 [static_cast<std::size_t>(r.theta_index)] += r.qvf;
    ++grid.samples[static_cast<std::size_t>(r.phi_index)]
                  [static_cast<std::size_t>(r.theta_index)];
  }
  finalize_means(grid);
  return grid;
}

HeatmapGrid CampaignResult::heatmap_for_logical_qubit(int logical_qubit) const {
  HeatmapGrid grid = empty_primary_grid();
  for (const auto& r : records) {
    if (points[r.point_index].logical_qubit != logical_qubit) continue;
    grid.mean_qvf[static_cast<std::size_t>(r.phi_index)]
                 [static_cast<std::size_t>(r.theta_index)] += r.qvf;
    ++grid.samples[static_cast<std::size_t>(r.phi_index)]
                  [static_cast<std::size_t>(r.theta_index)];
  }
  finalize_means(grid);
  return grid;
}

std::vector<int> CampaignResult::logical_qubits() const {
  std::set<int> seen;
  for (const auto& p : points) {
    if (p.logical_qubit >= 0) seen.insert(p.logical_qubit);
  }
  return {seen.begin(), seen.end()};
}

HeatmapGrid CampaignResult::secondary_detail(int theta_index,
                                             int phi_index) const {
  require(meta.double_fault,
          "secondary_detail: campaign has no secondary faults");
  HeatmapGrid grid = empty_primary_grid();
  for (const auto& r : records) {
    if (r.theta_index != theta_index || r.phi_index != phi_index) continue;
    if (r.theta1_index < 0) continue;
    grid.mean_qvf[static_cast<std::size_t>(r.phi1_index)]
                 [static_cast<std::size_t>(r.theta1_index)] += r.qvf;
    ++grid.samples[static_cast<std::size_t>(r.phi1_index)]
                  [static_cast<std::size_t>(r.theta1_index)];
  }
  finalize_means(grid);
  return grid;
}

std::vector<double> CampaignResult::all_qvf() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.qvf);
  return out;
}

util::Histogram CampaignResult::qvf_histogram(std::size_t bins) const {
  util::Histogram hist(0.0, 1.0, bins);
  for (const auto& r : records) hist.add(r.qvf);
  return hist;
}

util::RunningStats CampaignResult::qvf_stats() const {
  util::RunningStats stats;
  for (const auto& r : records) stats.add(r.qvf);
  return stats;
}

CampaignResult::ImpactBreakdown CampaignResult::impact_breakdown() const {
  ImpactBreakdown b;
  if (records.empty()) return b;
  for (const auto& r : records) {
    switch (classify_qvf(r.qvf)) {
      case FaultImpact::Masked:
        b.masked += 1;
        break;
      case FaultImpact::Dubious:
        b.dubious += 1;
        break;
      case FaultImpact::SilentError:
        b.silent += 1;
        break;
    }
  }
  const double n = static_cast<double>(records.size());
  b.masked /= n;
  b.dubious /= n;
  b.silent /= n;
  return b;
}

namespace {

/// The two leading rows of every campaign CSV: metadata comment and column
/// header.
void write_csv_preamble(util::CsvWriter& csv, const CampaignMetadata& meta) {
  std::vector<std::string> head = {
      "# circuit", meta.circuit_name, "backend", meta.backend_name,
      "shots", util::CsvWriter::field(meta.shots), "seed",
      util::CsvWriter::field(meta.seed), "faultfree_qvf",
      util::CsvWriter::field(meta.faultfree_qvf)};
  if (meta.adaptive) {
    const AdaptivePolicy& ap = meta.adaptive_policy;
    for (const auto& f : {std::string("adaptive_fraction"),
                          util::CsvWriter::field(ap.max_config_fraction),
                          std::string("adaptive_ci_target"),
                          util::CsvWriter::field(ap.qvf_ci_target),
                          std::string("adaptive_min_configs"),
                          util::CsvWriter::field(ap.min_configs_per_point),
                          std::string("adaptive_seed"),
                          util::CsvWriter::field(ap.seed)}) {
      head.push_back(f);
    }
  }
  csv.write_row(head);
  std::vector<std::string> columns = {
      "point_index", "instr_index", "physical_qubit", "logical_qubit",
      "moment",      "theta",       "phi",            "neighbor_qubit",
      "theta1",      "phi1",        "qvf",            "pa",
      "pb"};
  if (meta.adaptive) {
    for (const char* c : {"configs_evaluated", "ci_halfwidth", "est_qvf"}) {
      columns.emplace_back(c);
    }
  }
  csv.write_row(columns);
}

/// Appends `value` as one cell, after a separating comma.
template <typename T>
void append_cell(std::string& out, T value) {
  out += ',';
  util::append_number(out, value);
}

/// Appends grid-angle cell `i` of `text` (the formatted angles), after a
/// separating comma, with FaultParamGrid's range check.
void append_angle(std::string& out, const std::vector<std::string>& text,
                  std::int32_t i, const char* range_error) {
  require(i >= 0 && static_cast<std::size_t>(i) < text.size(), range_error);
  out += ',';
  out += text[static_cast<std::size_t>(i)];
}

constexpr const char* kThetaRange = "FaultParamGrid: theta index range";
constexpr const char* kPhiRange = "FaultParamGrid: phi index range";

}  // namespace

void CampaignCsvWriter::format_rows(std::span<const InjectionRecord> records,
                                    std::string& out) const {
  // Cells that are the same on every row of a point run are formatted once
  // per run: the five point cells, and for adaptive campaigns the
  // estimator cells, a replay of the run's recorded QVFs.
  std::string head;
  std::string tail;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const InjectionRecord& r = records[i];
    if (i == 0 || r.point_index != records[i - 1].point_index) {
      const InjectionPoint& p = points_[r.point_index];
      head.clear();
      util::append_number(head, r.point_index);
      append_cell(head, p.instr_index);
      append_cell(head, p.qubit);
      append_cell(head, p.logical_qubit);
      append_cell(head, p.moment);
      if (meta_.adaptive) {
        std::size_t end = i;
        while (end < records.size() &&
               records[end].point_index == r.point_index) {
          ++end;
        }
        const AdaptivePointEstimate est =
            adaptive_point_estimate(meta_, records.subspan(i, end - i));
        tail.clear();
        append_cell(tail, est.configs_evaluated);
        append_cell(tail, est.ci_halfwidth);
        append_cell(tail, est.est_qvf);
      }
    }
    out += head;
    append_angle(out, theta_text_, r.theta_index, kThetaRange);
    append_angle(out, phi_text_, r.phi_index, kPhiRange);
    append_cell(out, r.neighbor_qubit);
    if (r.theta1_index >= 0) {
      append_angle(out, theta_text_, r.theta1_index, kThetaRange);
      append_angle(out, phi_text_, r.phi1_index, kPhiRange);
    } else {
      out += ",,";
    }
    append_cell(out, r.qvf);
    append_cell(out, r.pa);
    append_cell(out, r.pb);
    out += tail;
    out += '\n';
  }
}

std::size_t CampaignCsvWriter::block_end(
    std::span<const InjectionRecord> records, std::size_t begin) const {
  std::size_t end = std::min(records.size(), begin + kBlockRows);
  // An adaptive run's estimate needs the whole run in one block.
  while (meta_.adaptive && end < records.size() &&
         records[end].point_index == records[end - 1].point_index) {
    ++end;
  }
  return end;
}

AdaptivePointEstimate adaptive_point_estimate(
    const CampaignMetadata& meta, std::span<const InjectionRecord> records) {
  require(meta.adaptive,
          "adaptive_point_estimate: campaign is not adaptive");
  require(!records.empty(),
          "adaptive_point_estimate: empty record block");
  for (const auto& r : records) {
    require(r.point_index == records.front().point_index,
            "adaptive_point_estimate: record block spans multiple points");
  }
  return replay_adaptive_point(meta.grid, meta.adaptive_policy, meta.seed,
                               records.front().point_index, records);
}

CampaignCsvWriter::CampaignCsvWriter(std::string path,
                                     const CampaignMetadata& meta,
                                     std::span<const InjectionPoint> points)
    : path_(std::move(path)), meta_(meta), points_(points) {
  // Grid-angle cells are formatted once per writer, by the same
  // append_number call a per-row format would make.
  for (int i = 0; i < meta_.grid.num_theta(); ++i) {
    util::append_number(theta_text_.emplace_back(), meta_.grid.theta_at(i));
  }
  for (int j = 0; j < meta_.grid.num_phi(); ++j) {
    util::append_number(phi_text_.emplace_back(), meta_.grid.phi_at(j));
  }
  static std::atomic<std::uint64_t> counter{0};
  temp_ = path_ + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(counter.fetch_add(1));
  csv_ = std::make_unique<util::CsvWriter>(temp_);
  try {
    write_csv_preamble(*csv_, meta_);
  } catch (...) {
    csv_.reset();
    std::remove(temp_.c_str());
    throw;
  }
}

CampaignCsvWriter::~CampaignCsvWriter() {
  if (csv_) {
    csv_.reset();
    std::remove(temp_.c_str());
  }
}

void CampaignCsvWriter::write(std::span<const InjectionRecord> records) {
  std::string text;
  for (std::size_t begin = 0; begin < records.size();) {
    const std::size_t end = block_end(records, begin);
    text.clear();
    format_rows(records.subspan(begin, end - begin), text);
    csv_->write_rows(text);
    begin = end;
  }
}

void CampaignCsvWriter::write(std::span<const InjectionRecord> records,
                              util::ThreadPool& pool) {
  std::vector<std::size_t> starts;
  for (std::size_t begin = 0; begin < records.size();
       begin = block_end(records, begin)) {
    starts.push_back(begin);
  }
  starts.push_back(records.size());
  const std::size_t blocks = starts.size() - 1;
  // Block b is formatted into slot b % slots.size() on a pool lane and
  // appended here in block order; a slot is refilled only after its block
  // was written, so at most 2 x lanes blocks are in flight.
  struct Slot {
    std::string text;
    std::exception_ptr error;
    bool ready = false;
  };
  std::vector<Slot> slots(std::min(blocks, 2 * pool.size()));
  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending = 0;
  const auto submit = [&](std::size_t b) {
    Slot& slot = slots[b % slots.size()];
    slot.text.clear();
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++pending;
    }
    pool.submit([&, b] {
      std::exception_ptr error;
      try {
        format_rows(records.subspan(starts[b], starts[b + 1] - starts[b]),
                    slot.text);
      } catch (...) {
        error = std::current_exception();
      }
      // Notified under the lock: once the writer sees pending == 0 it may
      // unwind this frame.
      std::lock_guard<std::mutex> lock(mutex);
      slot.error = error;
      slot.ready = true;
      --pending;
      done.notify_all();
    });
  };
  try {
    for (std::size_t b = 0; b < slots.size(); ++b) submit(b);
    for (std::size_t b = 0; b < blocks; ++b) {
      Slot& slot = slots[b % slots.size()];
      {
        std::unique_lock<std::mutex> lock(mutex);
        done.wait(lock, [&] { return slot.ready; });
        slot.ready = false;
      }
      if (slot.error) std::rethrow_exception(slot.error);
      csv_->write_rows(slot.text);
      if (b + slots.size() < blocks) submit(b + slots.size());
    }
  } catch (...) {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return pending == 0; });
    throw;
  }
}

void CampaignCsvWriter::commit() {
  csv_->close();
  csv_.reset();
  if (std::rename(temp_.c_str(), path_.c_str()) != 0) {
    std::remove(temp_.c_str());
    throw Error("campaign CSV: cannot rename temp file into place: " + path_);
  }
}

void CampaignResult::write_csv(const std::string& path) const {
  // Rows go out in canonical point-ascending order no matter how the
  // records were assembled, so single-process and merged-shard CSVs are
  // byte-comparable. The sort is stable: within a point, records keep
  // their enumeration order, which every assembly path already shares.
  const auto by_point = [](const InjectionRecord& a, const InjectionRecord& b) {
    return a.point_index < b.point_index;
  };
  std::span<const InjectionRecord> rows = records;
  std::vector<InjectionRecord> sorted;
  if (!std::is_sorted(records.begin(), records.end(), by_point)) {
    sorted = records;
    std::stable_sort(sorted.begin(), sorted.end(), by_point);
    rows = sorted;
  }
  CampaignCsvWriter csv(path, meta, points);
  util::ThreadPool pool;
  csv.write(rows, pool);
  csv.commit();
}

std::uint64_t single_campaign_executions(std::size_t num_points,
                                         const FaultParamGrid& grid) {
  return static_cast<std::uint64_t>(num_points) *
         static_cast<std::uint64_t>(grid.num_configs());
}

std::uint64_t campaign_injections(std::uint64_t executions,
                                  std::uint64_t shots) {
  return executions * (shots ? shots : 1);
}

std::uint64_t double_campaign_executions(std::size_t num_point_neighbor_pairs,
                                         const FaultParamGrid& primary_grid) {
  const auto triangle = [](std::uint64_t n) { return n * (n + 1) / 2; };
  const auto combos = triangle(static_cast<std::uint64_t>(
                          primary_grid.num_theta())) *
                      triangle(static_cast<std::uint64_t>(
                          primary_grid.num_phi()));
  return static_cast<std::uint64_t>(num_point_neighbor_pairs) * combos;
}

}  // namespace qufi
