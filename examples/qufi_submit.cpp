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

#include "dist/campaign_definition.hpp"
#include "service/submission.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s --spool DIR --name NAME --csv PATH [options]\n"
      "  --spool DIR         qufid spool directory (required)\n"
      "  --name NAME         campaign name, unique per daemon (required)\n"
      "  --csv PATH          final merged campaign CSV (required)\n"
      "  --priority N        higher runs first                 (default 0)\n"
      "  --shards N          shard count                       (default 2)\n"
      "  --backend-kind NAME density | trajectory              (default density)\n"
      "%s"
      "A submission cannot carry an adaptive policy: --adaptive is refused.\n",
      argv0, qufi::dist::campaign_flags_help());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using qufi::util::json_string;
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
      if (qufi::dist::parse_campaign_flag(arg, value, request)) continue;
      if (arg == "--spool") spool = value();
      else if (arg == "--name") request.name = value();
      else if (arg == "--csv") request.csv_path = value();
      else if (arg == "--priority")
        request.priority = parse_number_flag<int>(arg, value());
      else if (arg == "--shards")
        request.shards = parse_unsigned_flag<std::uint32_t>(arg, value());
      else if (arg == "--backend-kind") request.backend_kind = value();
      else usage(argv[0]);
    }
    if (spool.empty() || request.name.empty() || request.csv_path.empty()) {
      usage(argv[0]);
    }

    // The intake's own planning, run here: whatever qufid would reject
    // (zero shards, an unknown circuit or policy, a bad campaign name, an
    // out-of-range width, a grid whose step count overflows, idle noise on
    // the trajectory kind) exits 1 and leaves no submission behind; so
    // does an adaptive policy, which the file cannot carry.
    (void)qufi::service::plan_submission(request);
    std::filesystem::create_directories(spool);
    const std::string path =
        (std::filesystem::path(spool) / (request.name + ".submission"))
            .string();
    qufi::service::save_submission(request, path);
    std::printf(
        "{\"tool\":\"qufi_submit\",\"campaign\":%s,\"priority\":%d,"
        "\"shards\":%u,\"submission\":%s}\n",
        json_string(request.name).c_str(), request.priority, request.shards,
        json_string(path).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
