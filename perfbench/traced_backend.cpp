#include "traced_backend.hpp"

#include <algorithm>
#include <chrono>

#include "backend/density_backend.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

std::vector<int> target_qubits(
    std::span<const qufi::backend::SuffixConfig> configs) {
  std::vector<int> targets;
  if (configs.empty()) return targets;
  for (const auto& gate : configs.front().injected) {
    targets.insert(targets.end(), gate.qubits.begin(), gate.qubits.end());
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  return targets;
}

}  // namespace

BackendCounters& BackendCounters::operator+=(const BackendCounters& other) {
  prepare_calls += other.prepare_calls;
  prepare_ns += other.prepare_ns;
  extend_calls += other.extend_calls;
  extend_gates += other.extend_gates;
  extend_ns += other.extend_ns;
  batch_first_configs += other.batch_first_configs;
  batch_first_ns += other.batch_first_ns;
  batch_rest_configs += other.batch_rest_configs;
  batch_rest_ns += other.batch_rest_ns;
  batch_below_threshold_calls += other.batch_below_threshold_calls;
  run_ns += other.run_ns;
  suffix_ns += other.suffix_ns;
  return *this;
}

BackendCounters TracedBackend::counters() const {
  BackendCounters c;
  c.prepare_calls = prepare_calls_.load();
  c.prepare_ns = prepare_ns_.load();
  c.extend_calls = extend_calls_.load();
  c.extend_gates = extend_gates_.load();
  c.extend_ns = extend_ns_.load();
  c.batch_first_configs = first_configs_.load();
  c.batch_first_ns = first_ns_.load();
  c.batch_rest_configs = rest_configs_.load();
  c.batch_rest_ns = rest_ns_.load();
  c.batch_below_threshold_calls = below_threshold_.load();
  c.run_ns = run_ns_.load();
  c.suffix_ns = suffix_ns_.load();
  return c;
}

qufi::backend::ExecutionResult TracedBackend::run(
    const qufi::circ::QuantumCircuit& circuit, std::uint64_t shots,
    std::uint64_t seed) {
  const auto start = Clock::now();
  auto result = inner_.run(circuit, shots, seed);
  run_ns_ += ns_since(start);
  return result;
}

qufi::backend::PrefixSnapshotPtr TracedBackend::prepare_prefix(
    const qufi::circ::QuantumCircuit& circuit, std::size_t prefix_length,
    std::uint64_t shots_hint, std::uint64_t snapshot_seed) {
  const auto start = Clock::now();
  auto snapshot =
      inner_.prepare_prefix(circuit, prefix_length, shots_hint, snapshot_seed);
  prepare_ns_ += ns_since(start);
  ++prepare_calls_;
  return snapshot;
}

qufi::backend::PrefixSnapshotPtr TracedBackend::extend_snapshot(
    const qufi::backend::PrefixSnapshot& parent, std::size_t from_gate,
    std::size_t to_gate, std::uint64_t shots_hint,
    std::uint64_t snapshot_seed) {
  const auto start = Clock::now();
  auto snapshot = inner_.extend_snapshot(parent, from_gate, to_gate,
                                         shots_hint, snapshot_seed);
  extend_ns_ += ns_since(start);
  ++extend_calls_;
  extend_gates_ += to_gate - from_gate;
  return snapshot;
}

qufi::backend::ExecutionResult TracedBackend::run_suffix(
    const qufi::backend::PrefixSnapshot& snapshot,
    std::span<const qufi::circ::Instruction> injected, std::uint64_t shots,
    std::uint64_t seed) {
  const auto start = Clock::now();
  auto result = inner_.run_suffix(snapshot, injected, shots, seed);
  suffix_ns_ += ns_since(start);
  return result;
}

std::vector<qufi::backend::ExecutionResult> TracedBackend::run_suffix_batch(
    const qufi::backend::PrefixSnapshot& snapshot,
    std::span<const qufi::backend::SuffixConfig> configs,
    std::uint64_t shots) {
  std::vector<int> targets = target_qubits(configs);
  using Density = qufi::backend::DensityMatrixBackend;
  const std::size_t threshold = targets.size() >= 2
                                    ? Density::kResponseMinConfigs2q
                                    : Density::kResponseMinConfigs1q;
  if (configs.size() < threshold) ++below_threshold_;
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(seen_mutex_);
    first = seen_
                .emplace(snapshot.circuit(), snapshot.prefix_length(),
                         std::move(targets))
                .second;
  }

  const auto start = Clock::now();
  auto results = inner_.run_suffix_batch(snapshot, configs, shots);
  const std::uint64_t ns = ns_since(start);
  if (first) {
    first_ns_ += ns;
    first_configs_ += configs.size();
  } else {
    rest_ns_ += ns;
    rest_configs_ += configs.size();
  }
  return results;
}

}  // namespace perfbench
