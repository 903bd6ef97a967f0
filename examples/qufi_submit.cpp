// Campaign submission CLI — writes one qufi-submission file into a qufid
// spool directory (docs/DISPATCHER.md). The file carries the campaign
// *definition* (the same knobs qufi_cli takes), not planned shards: qufid
// plans deterministically on intake. qufi_submit runs that planning first
// and refuses what the intake would reject. The write is temp + rename, so
// the daemon's spool scan never sees a half-written submission.
//
// Usage examples:
//   qufi_submit --spool spool/ --name bv4 --circuit bv --width 4 \
//               --csv out/bv4.csv
//   qufi_submit --spool spool/ --name urgent-dj --circuit dj --width 4 \
//               --priority 10 --shards 4 --csv out/dj.csv

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "service/submission.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s --spool DIR --name NAME --csv PATH [options]\n"
      "  --spool DIR         qufid spool directory (required)\n"
      "  --name NAME         campaign name, unique per daemon (required)\n"
      "  --csv PATH          final merged campaign CSV (required)\n"
      "  --priority N        higher runs first              (default 0)\n"
      "  --circuit NAME      bv | dj | qft | ghz | grover   (default bv)\n"
      "  --width N           total qubits                   (default 4)\n"
      "  --device NAME       casablanca | jakarta | linear | full\n"
      "  --opt N             transpiler optimization level  (default 3)\n"
      "  --theta-step DEG    theta grid step                (default 15)\n"
      "  --phi-step DEG      phi grid step                  (default 15)\n"
      "  --phi-max DEG       phi range limit                (default 360)\n"
      "  --shots N           0 = exact distributions        (default 0)\n"
      "  --seed N            campaign seed\n"
      "  --points N          cap injection points (0 = all)\n"
      "  --double            submit the double-fault campaign\n"
      "  --idle-noise        moment-scheduled idle relaxation\n"
      "  --shards N          shard count                    (default 2)\n"
      "  --backend-kind NAME density | trajectory           (default density)\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using qufi::util::parse_number_flag;
  using qufi::util::parse_unsigned_flag;
  std::string spool;
  qufi::service::CampaignRequest request;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--spool") spool = value();
      else if (arg == "--name") request.name = value();
      else if (arg == "--csv") request.csv_path = value();
      else if (arg == "--priority")
        request.priority = parse_number_flag<int>(arg, value());
      else if (arg == "--circuit") request.circuit = value();
      else if (arg == "--width")
        request.width = parse_unsigned_flag<std::uint16_t>(arg, value());
      else if (arg == "--device") request.device = value();
      else if (arg == "--opt")
        request.opt_level = parse_unsigned_flag<std::uint16_t>(arg, value());
      else if (arg == "--theta-step")
        request.theta_step = parse_number_flag<double>(arg, value());
      else if (arg == "--phi-step")
        request.phi_step = parse_number_flag<double>(arg, value());
      else if (arg == "--phi-max")
        request.phi_max = parse_number_flag<double>(arg, value());
      else if (arg == "--shots")
        request.shots = parse_unsigned_flag<std::uint64_t>(arg, value());
      else if (arg == "--seed")
        request.seed = parse_unsigned_flag<std::uint64_t>(arg, value());
      else if (arg == "--points")
        request.max_points = parse_unsigned_flag<std::size_t>(arg, value());
      else if (arg == "--double") request.double_fault = true;
      else if (arg == "--idle-noise") request.idle_noise = true;
      else if (arg == "--shards")
        request.shards = parse_unsigned_flag<std::uint32_t>(arg, value());
      else if (arg == "--backend-kind") request.backend_kind = value();
      else usage(argv[0]);
    }
    if (spool.empty() || request.name.empty() || request.csv_path.empty()) {
      usage(argv[0]);
    }

    // The intake's own planning, run here: whatever qufid would reject
    // (zero shards, an unknown circuit or policy, an out-of-range width, a
    // grid whose step count overflows, idle noise on the trajectory kind)
    // exits 1 and leaves no submission behind.
    (void)qufi::service::plan_submission(request);
    std::filesystem::create_directories(spool);
    const std::string path =
        (std::filesystem::path(spool) / (request.name + ".submission"))
            .string();
    qufi::service::save_submission(request, path);
    std::printf(
        "{\"tool\":\"qufi_submit\",\"campaign\":\"%s\",\"priority\":%d,"
        "\"shards\":%u,\"submission\":\"%s\"}\n",
        request.name.c_str(), request.priority, request.shards, path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
