// Shard-worker CLI — executes exactly one shard manifest and streams the
// binary QUFIPART partial the merger consumes (docs/SHARDING.md,
// docs/RESULT_FORMAT.md). Workers are stateless and idempotent: re-running
// a manifest reproduces the same partial bit-for-bit, whatever the thread
// count.
//
// Usage examples:
//   qufi_shard_worker --manifest shards/shard_000.manifest \
//                     --out parts/part_000.qp
//   qufi_shard_worker --manifest shards/shard_001.manifest \
//                     --out parts/part_001.qp -j 4

#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>

#include "dist/shard_runner.hpp"
#include "util/parse.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s --manifest PATH --out PATH [options]\n"
      "  --manifest PATH      shard manifest from qufi_shard_plan\n"
      "  --out PATH           QUFIPART partial to write (streamed to disk\n"
      "                       as points complete; docs/RESULT_FORMAT.md)\n"
      "  -j, --threads N      worker threads (0 = hardware concurrency)\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  qufi::dist::ShardRunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--manifest") manifest_path = value();
      else if (arg == "--out") options.columnar_output_path = value();
      else if (arg == "-j" || arg == "--threads")
        options.threads =
            qufi::util::parse_unsigned_flag<std::uint16_t>(arg, value());
      else usage(argv[0]);
    }
    if (manifest_path.empty() || options.columnar_output_path.empty()) {
      usage(argv[0]);
    }

    const auto manifest = qufi::dist::load_manifest(manifest_path);
    const auto output = qufi::dist::run_shard(manifest, options);
    std::printf(
        "{\"tool\":\"qufi_shard_worker\",\"shard\":%u,\"of\":%u,"
        "\"points\":%zu,\"records\":%llu,\"partial_bytes\":%llu,"
        "\"out\":\"%s\"}\n",
        manifest.shard_index, manifest.shard_count,
        manifest.point_indices.size(),
        static_cast<unsigned long long>(output.streamed_records),
        static_cast<unsigned long long>(output.partial_bytes),
        options.columnar_output_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
