#include "dist/shard_runner.hpp"

#include <memory>

#include "backend/density_backend.hpp"
#include "backend/trajectory_backend.hpp"
#include "core/result_io.hpp"
#include "noise/noise_model.hpp"
#include "util/error.hpp"

namespace qufi::dist {

ShardRunOutput run_shard(const ShardManifest& manifest,
                         const ShardRunOptions& options) {
  require(!options.columnar_output_path.empty(),
          "run_shard: columnar_output_path is required (the shard's "
          "QUFIPART partial)");
  CampaignSpec spec = manifest_to_spec(manifest);
  spec.threads = options.threads;

  // The worker owns its execution backend explicitly (instead of letting
  // the campaign build one) so the trajectory family is reachable from a
  // manifest.
  std::unique_ptr<backend::Backend> exec;
  const auto noise_model =
      noise::NoiseModel::from_backend(spec.backend, spec.noise_scale);
  if (manifest.backend_kind == WorkerBackendKind::Trajectory) {
    require(spec.shots > 0,
            "run_shard: trajectory backend requires shots > 0");
    require(!manifest.idle_noise,
            "run_shard: idle_noise requires the density backend");
    exec = std::make_unique<backend::TrajectoryBackend>(noise_model);
  } else {
    exec = std::make_unique<backend::DensityMatrixBackend>(
        noise_model, manifest.idle_noise);
  }
  spec.backend_override = exec.get();

  // The file header — point table, metadata, expected total — is needed
  // before the first record exists, so mirror the campaign's own derivation
  // (one extra transpile, same enumeration).
  const auto transpiled = campaign_transpile(spec);
  resio::ResultFileHeader header;
  header.shard_index = manifest.shard_index;
  header.shard_count = manifest.shard_count;
  header.points = stride_points(
      enumerate_injection_points(transpiled, spec.strategy), spec.max_points);
  // Completeness total for the merger: planner-stamped when available,
  // otherwise derived here (hand-written manifests; double campaigns pay a
  // transpile via campaign_point_neighbor_pairs in that fallback only).
  // Adaptive campaigns decide their record count while running, so the
  // total stays 0 and the merger uses point coverage as its completeness
  // check instead.
  if (manifest.expected_records > 0) {
    header.expected_total_records = manifest.expected_records;
  } else if (!spec.adaptive) {
    header.expected_total_records =
        manifest.double_fault
            ? double_campaign_executions(
                  campaign_point_neighbor_pairs(spec).size(), spec.grid)
            : single_campaign_executions(header.points.size(), spec.grid);
  }
  header.meta.circuit_name = spec.circuit.name();
  header.meta.backend_name = spec.backend_override->name();
  header.meta.circuit_qubits = spec.circuit.num_qubits();
  header.meta.transpiled_gates = transpiled.circuit.num_unitary_gates();
  header.meta.grid = spec.grid;
  header.meta.shots = spec.shots;
  header.meta.seed = spec.seed;
  header.meta.double_fault = manifest.double_fault;
  header.meta.idle_noise = spec.idle_noise;
  if (spec.adaptive) {
    header.meta.adaptive = true;
    header.meta.adaptive_policy = *spec.adaptive;
  }
  // faultfree_qvf is only known once the campaign has run the fault-free
  // reference; set_meta patches it in before finish() seals the header.
  header.meta.faultfree_qvf = 0.0;
  resio::ResultWriter writer(
      options.columnar_output_path, header, resio::kDefaultBlockRecords,
      options.columnar_live ? resio::WriteMode::Live
                            : resio::WriteMode::TempRename);
  resio::ResultFileSink sink(writer);
  spec.record_sink = &sink;

  const CampaignResult result =
      manifest.double_fault
          ? run_double_fault_campaign_subset(spec, manifest.point_indices)
          : run_single_fault_campaign_subset(spec, manifest.point_indices);
  writer.set_meta(result.meta);
  writer.finish(result.meta.executions, result.meta.injections);

  ShardRunOutput out;
  out.partial_bytes = writer.bytes_written();
  out.streamed_records = writer.records_written();
  return out;
}

}  // namespace qufi::dist
