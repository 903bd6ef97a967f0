#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <thread>

#include "algorithms/algorithms.hpp"
#include "backend/density_backend.hpp"
#include "core/campaign.hpp"
#include "dist/shard_runner.hpp"
#include "noise/noise_model.hpp"
#include "service/fleet.hpp"
#include "service/submission.hpp"
#include "traced_backend.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

/// One campaign of the paper's 15-degree exact-distribution sweep on
/// fake_casablanca, on every injection point.
struct CampaignDef {
  const char* circuit;
  int width;
  bool double_fault;
  double phi_max_deg;
  bool idle_noise;

  std::string key() const {
    return std::string(circuit) + std::to_string(width) +
           (double_fault ? "_double" : idle_noise ? "_idle" : "_single");
  }
};

const std::vector<CampaignDef> kPaperSingles = {
    {"bv", 6, false, 360.0, false},
    {"dj", 6, false, 360.0, false},
    {"qft", 6, false, 360.0, false},
};

qufi::CampaignSpec make_spec(const CampaignDef& def,
                             const WorkloadConfig& config) {
  const auto bench = qufi::algo::paper_circuit(def.circuit, def.width);
  qufi::CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.backend = qufi::noise::fake_casablanca();
  spec.grid.theta_step_deg = 15.0;
  spec.grid.phi_step_deg = 15.0;
  spec.grid.phi_max_deg = def.phi_max_deg;
  spec.seed = config.seed;
  spec.idle_noise = def.idle_noise;
  spec.threads = config.threads;
  return spec;
}

/// single_sweep, double_sweep, idle_replay: campaigns run one after another
/// in this process, each written with CampaignResult::write_csv.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(const WorkloadConfig& config, std::vector<CampaignDef> defs)
      : config_(config), defs_(std::move(defs)) {
    for (const CampaignDef& def : defs_) {
      specs_.push_back(make_spec(def, config_));
      const auto start = Clock::now();
      qufi::campaign_transpile(specs_.back());
      transpile_s_ += seconds_since(start);
      noise_models_.push_back(qufi::noise::NoiseModel::from_backend(
          specs_.back().backend, specs_.back().noise_scale));
    }
  }

  PassResult run(bool traced) override {
    PassResult pass;
    BackendCounters backend;
    double campaign_s = 0.0;
    double write_s = 0.0;
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      ++pass.attempted;
      const std::string path =
          (fs::path(config_.out_dir) / (defs_[i].key() + ".csv")).string();
      try {
        qufi::CampaignResult result;
        if (traced) {
          // Built exactly as the campaign's own prepare() builds its
          // backend; an override makes the campaign ignore spec.idle_noise,
          // so it is passed here explicitly. Suffix response stays on.
          qufi::backend::DensityMatrixBackend inner(noise_models_[i],
                                                    specs_[i].idle_noise);
          TracedBackend wrapper(inner);
          qufi::CampaignSpec spec = specs_[i];
          spec.backend_override = &wrapper;
          const auto campaign_start = Clock::now();
          result = execute(spec, defs_[i].double_fault);
          campaign_s += seconds_since(campaign_start);
          backend += wrapper.counters();
        } else {
          result = execute(specs_[i], defs_[i].double_fault);
        }
        const auto write_start = Clock::now();
        result.write_csv(path);
        write_s += seconds_since(write_start);
        pass.csvs.push_back({defs_[i].key(), path});
      } catch (const std::exception& e) {
        pass.errors.push_back(defs_[i].key() + ": " + e.what());
      }
    }
    pass.time_to_csv_s = seconds_since(start);
    pass.cpu_s = cpu_seconds() - cpu0;
    if (traced) fill_layers(pass, backend, campaign_s, write_s);
    return pass;
  }

 private:
  static qufi::CampaignResult execute(const qufi::CampaignSpec& spec,
                                      bool double_fault) {
    return double_fault ? qufi::run_double_fault_campaign(spec)
                        : qufi::run_single_fault_campaign(spec);
  }

  void fill_layers(PassResult& pass, const BackendCounters& b,
                   double campaign_s, double write_s) const {
    std::uint64_t csv_bytes = 0;
    for (const CsvFile& csv : pass.csvs) csv_bytes += fs::file_size(csv.path);
    const double lanes = static_cast<double>(config_.threads);
    const double busy_s = 1e-9 * static_cast<double>(b.busy_ns());
    auto& m = pass.layers;
    m["transpile.busy_ms"] = 1e3 * transpile_s_;
    m["backend.prepare.calls"] = static_cast<double>(b.prepare_calls);
    m["backend.prepare.busy_ms"] = 1e-6 * static_cast<double>(b.prepare_ns);
    m["backend.extend.calls"] = static_cast<double>(b.extend_calls);
    m["backend.extend.gates"] = static_cast<double>(b.extend_gates);
    m["backend.extend.busy_ms"] = 1e-6 * static_cast<double>(b.extend_ns);
    m["backend.batch_first.busy_ms"] =
        1e-6 * static_cast<double>(b.batch_first_ns);
    m["backend.batch_first.configs"] =
        static_cast<double>(b.batch_first_configs);
    m["backend.batch_rest.busy_ms"] =
        1e-6 * static_cast<double>(b.batch_rest_ns);
    m["backend.batch_rest.us_per_config"] =
        b.batch_rest_configs == 0
            ? 0.0
            : 1e-3 * static_cast<double>(b.batch_rest_ns) /
                  static_cast<double>(b.batch_rest_configs);
    m["backend.batch_below_threshold.calls"] =
        static_cast<double>(b.batch_below_threshold_calls);
    m["backend.faultfree_run_ms"] = 1e-6 * static_cast<double>(b.run_ns);
    m["core.campaign.wall_ms"] = 1e3 * campaign_s;
    m["core.engine_self_ms"] = 1e3 * (lanes * campaign_s - busy_s);
    m["pool.lane_busy_share"] =
        campaign_s > 0.0 ? busy_s / (lanes * campaign_s) : 0.0;
    m["core.write_csv.busy_ms"] = 1e3 * write_s;
    m["core.csv_bytes"] = static_cast<double>(csv_bytes);
    m["core.write_csv.mb_per_s"] =
        write_s > 0.0 ? 1e-6 * static_cast<double>(csv_bytes) / write_s : 0.0;
  }

  WorkloadConfig config_;
  std::vector<CampaignDef> defs_;
  std::vector<qufi::CampaignSpec> specs_;
  std::vector<qufi::noise::NoiseModel> noise_models_;
  double transpile_s_ = 0.0;
};

/// fleet_journal: the three single_sweep campaigns, each planned into 12
/// cost-weighted shards, submitted to an in-process Dispatcher with its
/// write-ahead journal on, and drained by a ThreadWorkerFleet.
class FleetWorkload final : public Workload {
 public:
  static constexpr std::uint32_t kShards = 12;

  explicit FleetWorkload(const WorkloadConfig& config) : config_(config) {
    const fs::path spool = fs::path(config_.out_dir) / "spool";
    fs::create_directories(spool);
    std::vector<qufi::service::CampaignJob> jobs;
    for (const CampaignDef& def : kPaperSingles) {
      qufi::service::CampaignRequest request;
      request.name = def.key();
      request.circuit = def.circuit;
      request.width = def.width;
      request.device = "casablanca";
      request.seed = config_.seed;
      request.shards = kShards;
      request.policy = "cost";
      request.csv_path =
          (fs::path(config_.out_dir) / (def.key() + ".csv")).string();
      const auto start = Clock::now();
      jobs.push_back(qufi::service::plan_submission(request));
      plan_s_ += seconds_since(start);
      keys_.push_back(def.key());
      csv_paths_.push_back(request.csv_path);
    }
    qufi::service::DispatcherOptions options;
    options.work_dir = spool.string();
    options.journal_path = (spool / "qufid.journal").string();
    journal_path_ = options.journal_path;
    dispatcher_ =
        std::make_unique<qufi::service::Dispatcher>(std::move(options), clock_);
    const auto start = Clock::now();
    for (auto& job : jobs) dispatcher_->submit(std::move(job));
    submit_s_ = seconds_since(start);
  }

  PassResult run(bool traced) override {
    PassResult pass;
    pass.attempted = keys_.size();
    std::vector<WorkerLog> logs(static_cast<std::size_t>(config_.fleet_workers));
    double transpile_s = 0.0;
    if (traced) {
      // The transpile each plan_submission ran during set-up, repeated as
      // an outside probe of that layer.
      for (const CampaignDef& def : kPaperSingles) {
        const qufi::CampaignSpec spec = make_spec(def, config_);
        const auto start = Clock::now();
        qufi::campaign_transpile(spec);
        transpile_s += seconds_since(start);
      }
    }
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    if (traced) {
      std::vector<std::thread> workers;
      for (std::size_t w = 0; w < logs.size(); ++w) {
        workers.emplace_back([this, w, &logs] { traced_worker(w, logs[w]); });
      }
      for (std::thread& worker : workers) worker.join();
      pass.time_to_csv_s = seconds_since(start);
    } else {
      qufi::service::FleetOptions options;
      options.workers = config_.fleet_workers;
      options.threads_per_worker = config_.fleet_threads_per_worker;
      qufi::service::ThreadWorkerFleet fleet(*dispatcher_, options);
      fleet.drain();
      pass.time_to_csv_s = seconds_since(start);
      fleet.stop();
    }
    pass.cpu_s = cpu_seconds() - cpu0;

    std::uint32_t requeues = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      const auto status = dispatcher_->campaign_status(keys_[i]);
      requeues += status.requeues;
      if (status.state == qufi::service::CampaignState::Completed) {
        pass.csvs.push_back({keys_[i], csv_paths_[i]});
      } else {
        pass.errors.push_back(keys_[i] + ": campaign not completed: " +
                              status.error);
      }
    }
    for (const WorkerLog& log : logs) {
      pass.errors.insert(pass.errors.end(), log.errors.begin(),
                         log.errors.end());
    }
    if (traced) fill_layers(pass, logs, transpile_s, requeues);
    return pass;
  }

 private:
  /// What one traced worker thread observed; owned by that thread until
  /// it is joined.
  struct WorkerLog {
    std::vector<double> acquire_s, run_shard_s, complete_s;
    double idle_wait_s = 0.0;
    std::uint64_t partial_bytes = 0;
    std::vector<std::string> errors;
  };

  /// The ThreadWorkerFleet worker loop, with each dispatcher and dist call
  /// timed. The fleet's heartbeat supervisor is left out: a shard runs far
  /// inside the default 30 s lease timeout.
  void traced_worker(std::size_t index, WorkerLog& log) {
    const std::string worker_id = "traced-" + std::to_string(index);
    try {
      while (true) {
        auto start = Clock::now();
        std::optional<qufi::service::ShardLease> lease =
            dispatcher_->acquire(worker_id);
        log.acquire_s.push_back(seconds_since(start));
        if (!lease) {
          if (dispatcher_->idle()) return;
          start = Clock::now();
          std::this_thread::sleep_for(std::chrono::milliseconds(
              qufi::service::FleetOptions{}.poll_interval_ms));
          log.idle_wait_s += seconds_since(start);
          continue;
        }
        qufi::dist::ShardRunOptions options;
        options.threads = config_.fleet_threads_per_worker;
        options.columnar_output_path = lease->output_path;
        options.columnar_live = true;
        try {
          start = Clock::now();
          const auto out = qufi::dist::run_shard(lease->manifest, options);
          log.run_shard_s.push_back(seconds_since(start));
          log.partial_bytes += out.partial_bytes;
          start = Clock::now();
          dispatcher_->complete(lease->id);
          log.complete_s.push_back(seconds_since(start));
        } catch (const std::exception& e) {
          log.errors.push_back(lease->campaign + " shard " +
                               std::to_string(lease->shard_index) + ": " +
                               e.what());
          dispatcher_->fail(lease->id, e.what());
        }
      }
    } catch (const std::exception& e) {
      log.errors.push_back(worker_id + ": " + e.what());
    }
  }

  void fill_layers(PassResult& pass, const std::vector<WorkerLog>& logs,
                   double transpile_s, std::uint32_t requeues) const {
    std::vector<double> acquire_s, run_shard_s, complete_s;
    double idle_wait_s = 0.0;
    std::uint64_t partial_bytes = 0;
    for (const WorkerLog& log : logs) {
      acquire_s.insert(acquire_s.end(), log.acquire_s.begin(),
                       log.acquire_s.end());
      run_shard_s.insert(run_shard_s.end(), log.run_shard_s.begin(),
                         log.run_shard_s.end());
      complete_s.insert(complete_s.end(), log.complete_s.begin(),
                        log.complete_s.end());
      idle_wait_s += log.idle_wait_s;
      partial_bytes += log.partial_bytes;
    }
    double run_shard_total = 0.0;
    for (const double s : run_shard_s) run_shard_total += s;
    std::uint64_t journal_records = 0;
    std::uint64_t journal_bytes = 0;
    try {
      journal_records = qufi::service::read_journal(journal_path_).events.size();
      journal_bytes = fs::file_size(journal_path_);
    } catch (const std::exception& e) {
      pass.errors.push_back(std::string("journal: ") + e.what());
    }
    auto& m = pass.layers;
    m["transpile.busy_ms"] = 1e3 * transpile_s;
    m["dist.plan_ms"] = 1e3 * plan_s_;
    m["dist.run_shard.p50_ms"] = 1e3 * median(run_shard_s);
    m["dist.run_shard.max_ms"] = 1e3 * max_of(run_shard_s);
    m["dist.partial_bytes"] = static_cast<double>(partial_bytes);
    m["fleet.worker_busy_share"] =
        run_shard_total /
        (static_cast<double>(logs.size()) * pass.time_to_csv_s);
    m["service.submit_ms"] = 1e3 * submit_s_;
    m["service.acquire.p50_ms"] = 1e3 * median(acquire_s);
    m["service.complete.p50_ms"] = 1e3 * median(complete_s);
    m["service.complete.max_ms"] = 1e3 * max_of(complete_s);
    m["service.idle_wait_ms"] = 1e3 * idle_wait_s;
    m["service.requeues"] = requeues;
    m["service.journal_bytes"] = static_cast<double>(journal_bytes);
    m["service.journal_records"] = static_cast<double>(journal_records);
  }

  WorkloadConfig config_;
  std::vector<std::string> keys_;
  std::vector<std::string> csv_paths_;
  std::string journal_path_;
  double plan_s_ = 0.0;
  double submit_s_ = 0.0;
  qufi::service::SystemClock clock_;
  std::unique_ptr<qufi::service::Dispatcher> dispatcher_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "single_sweep", "double_sweep", "idle_replay", "fleet_journal"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "single_sweep") {
    return std::make_unique<CampaignWorkload>(config, kPaperSingles);
  }
  if (name == "double_sweep") {
    return std::make_unique<CampaignWorkload>(
        config, std::vector<CampaignDef>{{"bv", 5, true, 180.0, false}});
  }
  if (name == "idle_replay") {
    return std::make_unique<CampaignWorkload>(
        config, std::vector<CampaignDef>{{"qft", 5, false, 360.0, true}});
  }
  if (name == "fleet_journal") return std::make_unique<FleetWorkload>(config);
  throw qufi::Error("unknown workload: " + name);
}

}  // namespace perfbench
