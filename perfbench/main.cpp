// qufi_perfbench: runs one benchmark workload for a time budget and prints
// one JSON object of raw samples (set-up times, per-pass timings, CSV
// digests, traced layer metrics) as its last stdout line. run.py builds
// this binary, runs it, checks the digests and reduces the samples to the
// metrics named in BENCHMARK.json.
//
//   qufi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "noise/channels.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernel_dispatch.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using perfbench::PassResult;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr std::uint64_t kDefaultSeed = 0x51754649;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: qufi_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (arg == "--workload") args.workload = value;
    else if (arg == "--seed") args.seed = std::stoull(value);
    else if (arg == "--seconds") args.seconds = std::stod(value);
    else if (arg == "--trace") args.trace = value == "1";
    else if (arg == "--work-dir") args.work_dir = value;
    else usage();
  }
  if (args.workload.empty() || args.seconds <= 0.0) usage();
  return args;
}

// ---- minimal JSON writer ---------------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string array(const std::vector<T>& items, F&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += render(items[i]);
  }
  return out + "]";
}

// ---- output checks ---------------------------------------------------------

/// One final CSV, checked after the timed region: FNV-1a 64 digests of the
/// whole file and of its body (everything after the metadata line, which
/// carries the seed), the record count, and whether every QVF lies in
/// [0, 1].
struct CsvCheck {
  std::string name;
  std::string digest;
  std::string body_digest;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  bool qvf_in_range = true;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

CsvCheck check_csv(const perfbench::CsvFile& file) {
  constexpr std::uint64_t kOffset = 1469598103934665603ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  constexpr int kQvfColumn = 10;  // see write_csv_preamble
  CsvCheck check;
  check.name = file.name;
  std::ifstream in(file.path, std::ios::binary);
  qufi::require(static_cast<bool>(in), "cannot read " + file.path);
  std::uint64_t whole = kOffset;
  std::uint64_t body = kOffset;
  std::uint64_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    const bool terminated = !in.eof();
    for (const char c : line) {
      whole = (whole ^ static_cast<unsigned char>(c)) * kPrime;
      if (lines > 0) body = (body ^ static_cast<unsigned char>(c)) * kPrime;
    }
    if (terminated) {
      whole = (whole ^ '\n') * kPrime;
      if (lines > 0) body = (body ^ '\n') * kPrime;
    }
    check.bytes += line.size() + (terminated ? 1 : 0);
    if (lines >= 2) {
      ++check.records;
      std::size_t pos = 0;
      for (int col = 0; col < kQvfColumn && pos != std::string::npos; ++col) {
        pos = line.find(',', pos);
        if (pos != std::string::npos) ++pos;
      }
      const double qvf =
          pos == std::string::npos ? -1.0 : std::strtod(line.c_str() + pos, nullptr);
      if (!(qvf >= 0.0 && qvf <= 1.0)) check.qvf_in_range = false;
    }
    ++lines;
  }
  check.digest = hex64(whole);
  check.body_digest = hex64(body);
  return check;
}

struct CheckedPass {
  PassResult pass;
  std::vector<CsvCheck> csvs;
};

/// Builds the workload's inputs in a fresh `dir`, appending the set-up
/// time to `setup_s`.
std::unique_ptr<perfbench::Workload> timed_setup(
    const Args& args, const fs::path& dir, perfbench::WorkloadConfig config,
    std::vector<double>& setup_s) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  config.out_dir = dir.string();
  const auto start = Clock::now();
  auto workload = perfbench::make_workload(args.workload, config);
  setup_s.push_back(seconds_since(start));
  return workload;
}

/// Set-up-only rounds run before every pass, so the set-up median samples
/// the whole run rather than one moment of it.
constexpr int kSetupRoundsPerPass = 4;

/// Runs set-up and one pass in a fresh directory, checks its CSVs, then
/// removes the directory.
CheckedPass run_pass(const Args& args, const fs::path& dir,
                     const perfbench::WorkloadConfig& config, bool traced,
                     std::vector<double>& setup_s) {
  for (int i = 0; i < kSetupRoundsPerPass; ++i) {
    timed_setup(args, dir, config, setup_s).reset();
  }
  CheckedPass out;
  auto workload = timed_setup(args, dir, config, setup_s);
  out.pass = workload->run(traced);
  workload.reset();
  for (const auto& csv : out.pass.csvs) {
    try {
      out.csvs.push_back(check_csv(csv));
    } catch (const std::exception& e) {
      out.pass.errors.push_back(csv.name + ": " + e.what());
    }
  }
  fs::remove_all(dir);
  return out;
}

// ---- sim kernel probe ------------------------------------------------------

/// ns per density-matrix amplitude of DensityMatrix::apply_superop1/2 under
/// the active kernel set: median over timed blocks cycling every qubit (or
/// adjacent pair) of a `width`-qubit state.
double superop_ns_per_amp(int width, bool two_qubit) {
  qufi::noise::KrausChannel1 rotation;
  qufi::util::Mat2 u;
  const double c = std::cos(0.3), s = std::sin(0.3);
  u.a = {c, -s, s, c};  // real rotation: norm-preserving, no denormals
  rotation.ops = {u};
  const qufi::util::Mat4 superop1 = qufi::noise::channel_superop(rotation);
  const qufi::noise::SuperOp2 superop2 =
      qufi::noise::embed_superops(superop1, superop1);
  qufi::sim::DensityMatrix rho(width);
  for (int q = 0; q < width; ++q) rho.apply_superop1(superop1, q);

  const double amps = std::pow(4.0, width);
  const int calls_per_block = std::max(1, static_cast<int>(4e5 / amps)) * width;
  std::vector<double> per_amp;
  const auto start = Clock::now();
  while (per_amp.size() < 5 || seconds_since(start) < 0.2) {
    const auto block = Clock::now();
    for (int i = 0; i < calls_per_block; ++i) {
      const int q = i % width;
      if (two_qubit) {
        rho.apply_superop2(superop2.a, q, (q + 1) % width);
      } else {
        rho.apply_superop1(superop1, q);
      }
    }
    per_amp.push_back(1e9 * seconds_since(block) / (calls_per_block * amps));
  }
  std::sort(per_amp.begin(), per_amp.end());
  return per_amp[per_amp.size() / 2];
}

// ---- output ----------------------------------------------------------------

std::string render_pass(const CheckedPass& p) {
  std::ostringstream out;
  out << "{\"time_to_csv_s\":" << number(p.pass.time_to_csv_s)
      << ",\"cpu_s\":" << number(p.pass.cpu_s)
      << ",\"attempted\":" << p.pass.attempted << ",\"errors\":"
      << array(p.pass.errors, quoted) << ",\"csvs\":"
      << array(p.csvs,
               [](const CsvCheck& c) {
                 std::ostringstream o;
                 o << "{\"name\":" << quoted(c.name)
                   << ",\"digest\":" << quoted(c.digest)
                   << ",\"body_digest\":" << quoted(c.body_digest)
                   << ",\"records\":" << c.records << ",\"bytes\":" << c.bytes
                   << ",\"qvf_in_range\":"
                   << (c.qvf_in_range ? "true" : "false") << "}";
                 return o.str();
               })
      << ",\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : p.pass.layers) {
    out << (first ? "" : ",") << quoted(name) << ":" << number(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median_time(const std::vector<CheckedPass>& passes) {
  std::vector<double> t;
  for (const auto& p : passes) t.push_back(p.pass.time_to_csv_s);
  std::sort(t.begin(), t.end());
  return t.empty() ? 0.0 : t[t.size() / 2];
}

/// Passes until `budget_s` is spent: at least `min_passes`, and no pass
/// started that the median so far says would end more than half a pass
/// past the budget.
std::vector<CheckedPass> run_passes(const Args& args, const fs::path& root,
                                    const perfbench::WorkloadConfig& config,
                                    bool traced, double budget_s,
                                    std::size_t min_passes,
                                    std::vector<double>& setup_s) {
  std::vector<CheckedPass> passes;
  const auto start = Clock::now();
  while (true) {
    const fs::path dir = root / ((traced ? "traced" : "pass") +
                                 std::to_string(passes.size()));
    passes.push_back(run_pass(args, dir, config, traced, setup_s));
    const double elapsed = seconds_since(start);
    if (passes.size() >= min_passes &&
        elapsed + 0.5 * median_time(passes) > budget_s) {
      break;
    }
  }
  return passes;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const auto& names = perfbench::workload_names();
    qufi::require(std::find(names.begin(), names.end(), args.workload) !=
                      names.end(),
                  "unknown workload: " + args.workload);
    perfbench::WorkloadConfig config;
    config.seed = args.seed;
    config.threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    const fs::path root =
        fs::path(args.work_dir) /
        (args.workload + "-" + std::to_string(::getpid()));

    std::vector<double> setup_s;
    std::vector<CheckedPass> passes;
    std::vector<CheckedPass> traced;
    std::vector<std::pair<std::string, double>> sim;
    if (args.trace) {
      passes = run_passes(args, root, config, false, 0.5 * args.seconds, 2,
                          setup_s);
      traced = run_passes(args, root, config, true, 0.5 * args.seconds, 2,
                          setup_s);
      for (const int width : {5, 6}) {
        const std::string w = ".w" + std::to_string(width);
        sim.emplace_back("sim.dm_superop1_ns_per_amp" + w,
                         superop_ns_per_amp(width, false));
        sim.emplace_back("sim.dm_superop2_ns_per_amp" + w,
                         superop_ns_per_amp(width, true));
      }
    } else {
      passes = run_passes(args, root, config, false, args.seconds, 2, setup_s);
    }
    const double rss_mb = peak_rss_mb();
    // At a seed without committed reference digests, the fleet's CSVs are
    // compared byte for byte against the single-process campaigns instead.
    std::vector<CheckedPass> cross_check;
    if (args.workload == "fleet_journal" && args.seed != kDefaultSeed) {
      Args single = args;
      single.workload = "single_sweep";
      std::vector<double> unused;
      cross_check.push_back(
          run_pass(single, root / "cross_check", config, false, unused));
    }
    fs::remove_all(root);

    std::ostringstream out;
    out << "{\"workload\":" << quoted(args.workload)
        << ",\"seed\":" << args.seed << ",\"threads\":" << config.threads
        << ",\"fleet_workers\":" << config.fleet_workers
        << ",\"fleet_threads_per_worker\":" << config.fleet_threads_per_worker
        << ",\"kernel_set\":"
        << quoted(qufi::sim::active_kernel_set().name)
        << ",\"compiler\":" << quoted(QUFI_PERFBENCH_COMPILER)
        << ",\"build_type\":" << quoted(QUFI_PERFBENCH_BUILD_TYPE)
        << ",\"peak_rss_mb\":" << number(rss_mb)
        << ",\"setup_s\":" << array(setup_s, number)
        << ",\"passes\":" << array(passes, render_pass)
        << ",\"traced\":" << array(traced, render_pass)
        << ",\"cross_check\":" << array(cross_check, render_pass)
        << ",\"sim\":{";
    for (std::size_t i = 0; i < sim.size(); ++i) {
      out << (i ? "," : "") << quoted(sim[i].first) << ":"
          << number(sim[i].second);
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qufi_perfbench: %s\n", e.what());
    return 1;
  }
}
