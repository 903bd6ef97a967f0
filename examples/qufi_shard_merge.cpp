// Shard-merge CLI — recombines QUFIPART partial files (docs/SHARDING.md,
// docs/RESULT_FORMAT.md) into the full campaign. Deterministic: output row
// order is canonical (ascending point index), independent of the order
// partials are listed or arrived in; on the density backend the merged CSV
// is byte-identical to the one a single-process `qufi_cli --csv` run
// writes.
//
// The merge streams: a k-way merge over block iterators holds at most one
// decoded block per shard in memory, so merge peak-RSS is bounded by
// shards x block size, not by the campaign. An input that is not a sealed
// QUFIPART file is refused with the reader's diagnosis.
//
// Usage examples:
//   qufi_shard_merge --out merged.csv parts/part_000.qp parts/part_001.qp
//   qufi_shard_merge --out merged.qp --format columnar parts/part_*.qp
//   qufi_shard_merge --out partial.csv --allow-partial parts/part_000.qp
//
// --format picks the *output* flavor: csv (campaign CSV, default) or
// columnar (one merged QUFIPART file). A single input with --format csv is
// the QUFIPART-to-CSV export:
//   qufi_shard_merge --out campaign.csv merged.qp

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dist/merge.hpp"
#include "util/error.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s --out PATH [options] PARTIAL.qp...\n"
      "  --out PATH       merged campaign file to write\n"
      "  --format FMT     output format: csv (default) or columnar\n"
      "  --allow-partial  merge even when shard outputs are missing; the\n"
      "                   summary then reports how many points have no\n"
      "                   records and the first few missing global indices\n",
      argv0);
  std::exit(2);
}

/// `"missing_points":N,"first_missing":[a,b,...]` — the requeue-aware gap
/// report (count stays 0 for a complete merge).
std::string missing_json(const qufi::dist::MissingPointReport& missing) {
  std::string out =
      "\"missing_points\":" + std::to_string(missing.count) +
      ",\"first_missing\":[";
  for (std::size_t i = 0; i < missing.first.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(missing.first[i]);
  }
  out += "]";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path, format = "csv";
  qufi::dist::MergeOptions options;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) usage(argv[0]);
      out_path = argv[++i];
    } else if (arg == "--format") {
      if (i + 1 >= argc) usage(argv[0]);
      format = argv[++i];
    } else if (arg == "--allow-partial") {
      options.allow_incomplete = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (out_path.empty() || inputs.empty()) usage(argv[0]);
  if (format != "csv" && format != "columnar") usage(argv[0]);

  try {
    const auto stats =
        format == "csv"
            ? qufi::dist::merge_result_files_to_csv(inputs, out_path, options)
            : qufi::dist::merge_result_files(inputs, out_path, options);
    std::printf(
        "{\"tool\":\"qufi_shard_merge\",\"partials\":%zu,\"records\":%llu,"
        "\"duplicates\":%llu,\"input_bytes\":%llu,%s,\"format\":\"%s\","
        "\"out\":\"%s\"}\n",
        inputs.size(), static_cast<unsigned long long>(stats.merged_records),
        static_cast<unsigned long long>(stats.duplicate_records),
        static_cast<unsigned long long>(stats.input_bytes),
        missing_json(stats.missing).c_str(), format.c_str(), out_path.c_str());
    return 0;
  } catch (const qufi::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
