// Shard-partial helpers shared by the merge tests: run a campaign shard by
// shard into QUFIPART partials (the engine-to-sink path dist::run_shard
// takes), run manifests through run_shard itself, merge partials with the
// production file merge (and expect a refusal from it and from the prefix
// merge), and load a QUFIPART file back as the campaign result it
// encodes. Every merge test then compares that result with the
// single-process run.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/result_io.hpp"
#include "dist/manifest.hpp"
#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "test_files.hpp"
#include "util/error.hpp"

namespace qufi::test_support {

/// Runs `spec` over `points` (global indices, ascending) as shard
/// `shard_index` of `shard_count`, streaming the records into the QUFIPART
/// partial at `path`: the engine writes the header (metadata, point table,
/// full-campaign expected_total_records), exactly as a worker's partial.
/// Single-, idle-noise-, adaptive- and trajectory-backed specs run the
/// single-fault subset; `double_fault` runs the double-fault subset.
inline void write_partial(const CampaignSpec& spec,
                          std::span<const std::size_t> points,
                          std::uint32_t shard_index, std::uint32_t shard_count,
                          const std::string& path, bool double_fault = false) {
  CampaignSpec shard = spec;
  resio::ResultFileSink sink(path, shard_index, shard_count);
  shard.record_sink = &sink;
  const CampaignResult result =
      double_fault ? run_double_fault_campaign_subset(shard, points)
                   : run_single_fault_campaign_subset(shard, points);
  sink.finish(result.meta.executions, result.meta.injections);
}

/// Writes every shard of `plan` as `dir`/part_<k>.qp; returns the paths in
/// shard order (empty shards included: they carry the header only).
inline std::vector<std::string> write_partials(const CampaignSpec& spec,
                                               const dist::ShardPlan& plan,
                                               const std::string& dir,
                                               bool double_fault = false) {
  std::vector<std::string> paths;
  for (const dist::ShardAssignment& shard : plan.shards) {
    paths.push_back(dir + "/part_" + std::to_string(shard.shard_index) +
                    ".qp");
    write_partial(spec, shard.point_indices, shard.shard_index,
                  plan.num_shards, paths.back(), double_fault);
  }
  return paths;
}

/// A QUFIPART file loaded back as the campaign result it encodes
/// (executions/injections from the end marker; no point estimates).
inline CampaignResult load_result(const std::string& path) {
  auto file = resio::read_result_file(path);
  CampaignResult result;
  result.meta = file.header.meta;
  result.meta.executions = file.executions;
  result.meta.injections = file.injections;
  result.points = std::move(file.header.points);
  result.records = std::move(file.records);
  return result;
}

/// merge_result_files over `paths` into `dir`/merged.qp, loaded back.
inline CampaignResult merge_partials(std::span<const std::string> paths,
                                     const std::string& dir) {
  const std::string merged = dir + "/merged.qp";
  (void)dist::merge_result_files(paths, merged);
  return load_result(merged);
}

/// Plans `spec` into `shards` shards, writes each as a partial in a scratch
/// directory and file-merges them: the sharded campaign as the merger
/// delivers it.
inline CampaignResult run_sharded(const CampaignSpec& spec,
                                  std::uint32_t shards,
                                  bool double_fault = false) {
  const TempDir dir("sharded");
  const auto plan = dist::plan_campaign_shards(spec, shards);
  return merge_partials(write_partials(spec, plan, dir.str(), double_fault),
                        dir.str());
}

/// Expects `fn` to throw a qufi::Error whose message contains `reason`.
template <typename Fn>
void expect_error(Fn&& fn, const std::string& reason) {
  try {
    fn();
    ADD_FAILURE() << "no error; expected: " << reason;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

/// Expects both the file merge (into `out_path`) and the dispatcher's
/// prefix merge over `inputs` to refuse them with an error containing
/// `reason`: the two merges share one campaign-identity check.
inline void expect_merges_refuse(
    const std::vector<dist::PrefixMergeInput>& inputs,
    const std::string& out_path, const std::string& reason) {
  std::vector<std::string> paths;
  for (const auto& input : inputs) paths.push_back(input.path);
  expect_error([&] { (void)dist::merge_result_files(paths, out_path); },
               reason);
  expect_error([&] { (void)dist::merge_result_prefix(inputs); }, reason);
}

/// Runs every manifest through run_shard into `dir`/part_<k>.qp, then
/// file-merges the partials: the worker -> merger path of a real fleet.
inline CampaignResult run_manifests(
    const std::vector<dist::ShardManifest>& manifests, const TempDir& dir) {
  std::vector<std::string> paths;
  for (const auto& manifest : manifests) {
    dist::ShardRunOptions options;
    options.threads = 2;
    options.columnar_output_path =
        dir.str("part_" + std::to_string(manifest.shard_index) + ".qp");
    (void)dist::run_shard(manifest, options);
    paths.push_back(options.columnar_output_path);
  }
  return merge_partials(paths, dir.str());
}

}  // namespace qufi::test_support
