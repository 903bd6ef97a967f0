#pragma once

// Backend decorator for the benchmark's traced pass: forwards every call to
// an inner backend unchanged and accumulates call counts and busy time at
// the campaign -> backend boundary. Passed to campaigns through
// CampaignSpec::backend_override (the pattern dist::SnapshotCachingBackend
// uses), so no engine code is instrumented and the records are untouched.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "backend/backend.hpp"

namespace perfbench {

/// Counters of one traced campaign run. Times are nanoseconds summed over
/// calls (concurrent calls on different pool lanes each count in full).
struct BackendCounters {
  std::uint64_t prepare_calls = 0;
  std::uint64_t prepare_ns = 0;
  std::uint64_t extend_calls = 0;
  std::uint64_t extend_gates = 0;
  std::uint64_t extend_ns = 0;
  /// First run_suffix_batch per (snapshot split, target qubits): the call
  /// that builds the suffix-response basis when the batch is eligible.
  std::uint64_t batch_first_configs = 0;
  std::uint64_t batch_first_ns = 0;
  /// Later batches on an already-seen key: per-config resolve or replay.
  std::uint64_t batch_rest_configs = 0;
  std::uint64_t batch_rest_ns = 0;
  /// Batches smaller than the backend's response threshold for their
  /// target count (kResponseMinConfigs1q / kResponseMinConfigs2q).
  std::uint64_t batch_below_threshold_calls = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t suffix_ns = 0;

  std::uint64_t busy_ns() const {
    return prepare_ns + extend_ns + batch_first_ns + batch_rest_ns + run_ns +
           suffix_ns;
  }
  BackendCounters& operator+=(const BackendCounters& other);
};

class TracedBackend final : public qufi::backend::Backend {
 public:
  /// \param inner Backend that executes (not owned; must outlive this).
  explicit TracedBackend(qufi::backend::Backend& inner) : inner_(inner) {}

  /// Snapshot of the counters accumulated so far.
  BackendCounters counters() const;

  std::string name() const override { return inner_.name(); }
  bool supports_checkpointing() const override {
    return inner_.supports_checkpointing();
  }
  std::uint64_t snapshot_schedule_digest(
      const qufi::circ::QuantumCircuit& circuit,
      std::size_t prefix_length) const override {
    return inner_.snapshot_schedule_digest(circuit, prefix_length);
  }

  qufi::backend::ExecutionResult run(const qufi::circ::QuantumCircuit& circuit,
                                     std::uint64_t shots,
                                     std::uint64_t seed) override;

  qufi::backend::PrefixSnapshotPtr prepare_prefix(
      const qufi::circ::QuantumCircuit& circuit, std::size_t prefix_length,
      std::uint64_t shots_hint = 0, std::uint64_t snapshot_seed = 0) override;

  qufi::backend::PrefixSnapshotPtr extend_snapshot(
      const qufi::backend::PrefixSnapshot& parent, std::size_t from_gate,
      std::size_t to_gate, std::uint64_t shots_hint = 0,
      std::uint64_t snapshot_seed = 0) override;

  qufi::backend::ExecutionResult run_suffix(
      const qufi::backend::PrefixSnapshot& snapshot,
      std::span<const qufi::circ::Instruction> injected, std::uint64_t shots,
      std::uint64_t seed) override;

  std::vector<qufi::backend::ExecutionResult> run_suffix_batch(
      const qufi::backend::PrefixSnapshot& snapshot,
      std::span<const qufi::backend::SuffixConfig> configs,
      std::uint64_t shots) override;

  bool save_snapshot(const qufi::backend::PrefixSnapshot& snapshot,
                     std::ostream& out) const override {
    return inner_.save_snapshot(snapshot, out);
  }
  qufi::backend::PrefixSnapshotPtr load_snapshot(
      std::istream& in) const override {
    return inner_.load_snapshot(in);
  }

 private:
  using Counter = std::atomic<std::uint64_t>;
  /// (circuit, split, sorted target qubits) of a batch's snapshot and
  /// injected gates. Snapshots of one campaign share its transpiled circuit,
  /// so the key is unique within one traced campaign run.
  using BatchKey =
      std::tuple<const qufi::circ::QuantumCircuit*, std::size_t,
                 std::vector<int>>;

  qufi::backend::Backend& inner_;
  Counter prepare_calls_{0}, prepare_ns_{0};
  Counter extend_calls_{0}, extend_gates_{0}, extend_ns_{0};
  Counter first_configs_{0}, first_ns_{0};
  Counter rest_configs_{0}, rest_ns_{0};
  Counter below_threshold_{0};
  Counter run_ns_{0};
  Counter suffix_ns_{0};
  std::mutex seen_mutex_;
  std::set<BatchKey> seen_;  // guarded by seen_mutex_
};

}  // namespace perfbench
