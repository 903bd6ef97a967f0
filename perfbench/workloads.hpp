#pragma once

// The benchmark's workloads. Constructing a workload is its set-up (inputs
// built, nothing executed); run() is one timed pass from the first campaign
// call until the last final CSV is renamed into place.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Inputs every workload is built from.
struct WorkloadConfig {
  std::uint64_t seed = 0x51754649;
  /// Fresh directory the pass writes its CSVs (and fleet spool) into.
  std::string out_dir;
  /// Engine threads of a single-process campaign.
  int threads = 4;
  /// Fleet shape (fleet_journal only).
  int fleet_workers = 2;
  int fleet_threads_per_worker = 2;
};

/// One final CSV as the pass left it.
struct CsvFile {
  std::string name;  ///< campaign key, e.g. "qft6_single"
  std::string path;
};

/// What one timed pass did.
struct PassResult {
  double time_to_csv_s = 0.0;
  double cpu_s = 0.0;             ///< user + sys over the timed region
  std::uint64_t attempted = 0;    ///< campaigns started
  std::vector<std::string> errors;  ///< one line per failed campaign
  std::vector<CsvFile> csvs;
  /// Traced passes only: per-layer metrics by name.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass. `traced` routes every call into a layer through a timing
  /// wrapper or probe; the records written must not change.
  virtual PassResult run(bool traced) = 0;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds the workload's inputs (its set-up). Throws qufi::Error on an
/// unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);

}  // namespace perfbench
