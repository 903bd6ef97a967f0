// Command-line campaign driver — the equivalent of the original QuFI's
// top-level scripts. Runs a single- or double-fault campaign for any of
// the built-in circuits on any fake backend and prints the summary,
// heatmap and (optionally) a per-record CSV.
//
// Usage examples:
//   qufi_cli --circuit bv --width 4
//   qufi_cli --circuit qft --width 5 --device jakarta --opt 2
//            --theta-step 30 --phi-step 30 --shots 1024 --csv out.csv
//   qufi_cli --circuit dj --width 4 --double --phi-max 180
//   qufi_cli --circuit ghz --width 5 --points 16

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/result_io.hpp"
#include "dist/campaign_definition.hpp"

namespace {

using namespace qufi;

struct CliOptions {
  dist::CampaignDefinition campaign;
  std::string csv_path;
  std::string out_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n%s"
      "  --csv PATH          write per-record CSV\n"
      "  --out PATH          write binary columnar result (QUFIPART,\n"
      "                      docs/RESULT_FORMAT.md; qufi_shard_merge converts)\n",
      argv0, dist::campaign_flags_help());
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (dist::parse_campaign_flag(arg, value, options.campaign)) continue;
    if (arg == "--csv") options.csv_path = value();
    else if (arg == "--out") options.out_path = value();
    else usage(argv[0]);
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions options = parse(argc, argv);
    const CampaignSpec spec = dist::campaign_spec(options.campaign);

    const auto result = options.campaign.double_fault
                            ? run_double_fault_campaign(spec)
                            : run_single_fault_campaign(spec);

    std::printf("%s\n", render_campaign_summary(result).c_str());
    std::printf("%s\n",
                render_heatmap(result.mean_heatmap(),
                               spec.circuit.name() + " mean QVF heatmap")
                    .c_str());
    std::printf("%s\n",
                render_histogram(result.qvf_histogram(), "QVF distribution")
                    .c_str());
    if (!options.csv_path.empty()) {
      result.write_csv(options.csv_path);
      std::printf("records written to %s\n", options.csv_path.c_str());
    }
    if (!options.out_path.empty()) {
      resio::ResultFileHeader header;
      header.expected_total_records = result.records.size();
      header.meta = result.meta;
      header.points = result.points;
      resio::write_result_file(options.out_path, header, result.records,
                               result.meta.executions,
                               result.meta.injections);
      std::printf("columnar result written to %s\n",
                  options.out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
