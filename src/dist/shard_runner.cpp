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
  spec.pool = options.pool;

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

  // The engine hands the sink the final header contents (metadata with the
  // fault-free QVF, point table, full-campaign record total) before its
  // first record, so the partial's header is written once.
  resio::ResultFileSink sink(options.columnar_output_path,
                             manifest.shard_index, manifest.shard_count,
                             options.columnar_live
                                 ? resio::WriteMode::Live
                                 : resio::WriteMode::TempRename);
  spec.record_sink = &sink;
  const CampaignResult result =
      manifest.double_fault
          ? run_double_fault_campaign_subset(spec, manifest.point_indices)
          : run_single_fault_campaign_subset(spec, manifest.point_indices);
  sink.finish(result.meta.executions, result.meta.injections);

  ShardRunOutput out;
  out.partial_bytes = sink.writer()->bytes_written();
  out.streamed_records = sink.writer()->records_written();
  return out;
}

}  // namespace qufi::dist
