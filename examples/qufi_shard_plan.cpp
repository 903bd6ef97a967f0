// Shard-plan CLI — the coordinator step of a distributed campaign
// (docs/SHARDING.md): partitions a campaign's injection points into N
// deterministic shards and writes one self-contained manifest per shard.
// Re-running with the same flags reproduces byte-identical manifests, so a
// crashed coordinator just re-plans.
//
// Usage examples:
//   qufi_shard_plan --circuit bv --width 4 --shards 4 --out-dir shards/
//   qufi_shard_plan --circuit qft --width 5 --shards 8 \
//                   --theta-step 30 --phi-step 30 --out-dir shards/

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/campaign.hpp"
#include "dist/campaign_definition.hpp"
#include "dist/manifest.hpp"
#include "dist/shard_plan.hpp"
#include "util/parse.hpp"

namespace {

using namespace qufi;

struct CliOptions {
  dist::CampaignDefinition campaign;
  std::uint32_t shards = 2;
  std::string backend_kind = "density";
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n%s"
      "  --shards N          number of shards                  (default 2)\n"
      "  --backend-kind NAME density | trajectory              (default density)\n"
      "  --out-dir DIR       where shard_NNN.manifest files go (default .)\n",
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
    if (arg == "--shards")
      options.shards = util::parse_unsigned_flag<std::uint32_t>(arg, value());
    else if (arg == "--backend-kind") options.backend_kind = value();
    else if (arg == "--out-dir") options.out_dir = value();
    else usage(argv[0]);
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions options = parse(argc, argv);
    const dist::WorkerBackendKind kind =
        dist::worker_backend_kind_from_name(options.backend_kind);
    const CampaignSpec spec = dist::campaign_spec(options.campaign);

    const auto plan = dist::plan_campaign_shards(spec, options.shards);
    const auto manifests =
        dist::make_manifests(spec, options.campaign.device, kind, plan,
                             options.campaign.double_fault);

    std::filesystem::create_directories(options.out_dir);
    for (const auto& manifest : manifests) {
      char name[64];
      std::snprintf(name, sizeof name, "shard_%03u.manifest",
                    manifest.shard_index);
      const auto path =
          (std::filesystem::path(options.out_dir) / name).string();
      dist::save_manifest(manifest, path);
      std::printf("shard %u: %zu points, est. cost %llu -> %s\n",
                  manifest.shard_index, manifest.point_indices.size(),
                  static_cast<unsigned long long>(
                      plan.shards[manifest.shard_index].estimated_cost),
                  path.c_str());
    }
    std::printf("planned %zu points across %u shards\n", plan.total_points,
                plan.num_shards);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
