#include "backend/density_backend.hpp"

#include <algorithm>
#include <complex>
#include <map>
#include <memory>
#include <mutex>

#include "circuit/moments.hpp"
#include "noise/channels.hpp"
#include "noise/readout.hpp"
#include "sim/density_matrix.hpp"
#include "util/arena.hpp"
#include "util/binary_io.hpp"
#include "util/error.hpp"

namespace qufi::backend {

using circ::GateKind;
using circ::Instruction;

namespace {

/// Reset-to-|0> as a Kraus channel: {|0><0|, |0><1|}.
const noise::KrausChannel1& reset_channel() {
  static const noise::KrausChannel1 kChannel = [] {
    util::Mat2 k0 = util::Mat2::zero();
    k0(0, 0) = 1;
    util::Mat2 k1 = util::Mat2::zero();
    k1(0, 1) = 1;
    return noise::KrausChannel1{{k0, k1}};
  }();
  return kChannel;
}

void apply_channel(sim::DensityMatrix& dm, const noise::KrausChannel1& ch,
                   int q) {
  if (!ch.is_identity()) dm.apply_kraus1(ch.ops, q);
}

double instruction_duration_ns(const Instruction& instr,
                               const noise::NoiseModel& nm) {
  switch (instr.kind) {
    case GateKind::Barrier:
      return 0.0;
    case GateKind::Measure:
      return nm.measure_duration_ns();
    default:
      break;
  }
  const auto& info = circ::gate_info(instr.kind);
  if (info.num_qubits == 2) {
    return nm.duration_2q_ns(instr.qubits[0], instr.qubits[1]);
  }
  if (info.num_qubits == 1 && noise::NoiseModel::is_noisy_1q_gate(instr.kind)) {
    return nm.duration_1q_ns(instr.qubits[0]);
  }
  return 0.0;  // virtual gates
}

/// Executor over the *compacted* qubit set: the density matrix holds only
/// qubits the circuit touches (a 4-qubit circuit transpiled onto a 7-qubit
/// device simulates 16x16, not 128x128), while noise lookups keep the
/// original physical indices so per-qubit calibration stays correct.
struct DensityExecutor {
  sim::DensityMatrix dm;
  const noise::NoiseModel& nm;
  const DensityRunOptions& options;
  const std::vector<int>& to_compact;  // physical -> compact (-1 unused)

  int compact(int physical) const {
    return to_compact[static_cast<std::size_t>(physical)];
  }

  void execute(const Instruction& instr) {
    switch (instr.kind) {
      case GateKind::Barrier:
      case GateKind::Measure:
        return;  // terminal measures are resolved from the final diagonal
      case GateKind::Reset:
        dm.apply_kraus1(reset_channel().ops, compact(instr.qubits[0]));
        return;
      default:
        break;
    }

    apply_unitary(instr);
    if (nm.is_ideal()) return;

    const auto& info = circ::gate_info(instr.kind);
    if (info.num_qubits == 1) {
      const int physical = instr.qubits[0];
      const int q = compact(physical);
      if (!options.coherent_errors.empty() &&
          noise::NoiseModel::is_noisy_1q_gate(instr.kind)) {
        const auto& ce =
            options.coherent_errors[static_cast<std::size_t>(physical)];
        if (ce.z_angle != 0.0) {
          const double params[] = {ce.z_angle};
          dm.apply_unitary1(circ::gate_matrix1(GateKind::RZ, params), q);
        }
        if (ce.x_angle != 0.0) {
          const double params[] = {ce.x_angle};
          dm.apply_unitary1(circ::gate_matrix1(GateKind::RX, params), q);
        }
      }
      if (const auto* superop = nm.superop_after_1q(instr.kind, physical)) {
        dm.apply_superop1(*superop, q);
      }
    } else if (info.num_qubits == 2) {
      // Combined edge superoperator, built for the sorted physical pair.
      const int lo = std::min(instr.qubits[0], instr.qubits[1]);
      const int hi = std::max(instr.qubits[0], instr.qubits[1]);
      if (const auto* superop = nm.superop_after_2q(lo, hi)) {
        dm.apply_superop2(superop->a, compact(lo), compact(hi));
      }
    }
    // 3q gates (ccx) run noiselessly: transpiled circuits never contain
    // them; untranspiled use is an ideal-composition approximation.
  }

 private:
  void apply_unitary(const Instruction& instr) {
    const auto& info = circ::gate_info(instr.kind);
    switch (info.num_qubits) {
      case 1:
        dm.apply_unitary1(circ::gate_matrix1(instr.kind, instr.params),
                          compact(instr.qubits[0]));
        return;
      case 2:
        dm.apply_unitary2(circ::gate_matrix2(instr.kind, instr.params),
                          compact(instr.qubits[0]), compact(instr.qubits[1]));
        return;
      case 3: {
        require(instr.kind == GateKind::CCX,
                "run_density_probs: unsupported 3-qubit gate");
        const Instruction mapped{instr.kind,
                                 {compact(instr.qubits[0]),
                                  compact(instr.qubits[1]),
                                  compact(instr.qubits[2])},
                                 {},
                                 {}};
        dm.apply_instruction(mapped);
        return;
      }
      default:
        throw Error("run_density_probs: unsupported operand count");
    }
  }
};

/// Executes moments [from_moment, to_moment) of `moments` over `circuit`:
/// each moment's instructions in index order, then thermal relaxation on
/// the moment's idle active qubits. This is the idle-noise scheduling loop,
/// shared by run_density_probs and by the moment-aware snapshot paths
/// (prepare_prefix / extend_snapshot / run_suffix), so a resumed execution
/// applies the exact same kernel sequence a from-scratch run would.
void execute_idle_moments(DensityExecutor& exec,
                          const circ::QuantumCircuit& circuit,
                          const circ::Moments& moments, int from_moment,
                          int to_moment, const noise::NoiseModel& nm,
                          const std::vector<int>& active) {
  const auto& instrs = circuit.instructions();
  for (int m = from_moment; m < to_moment; ++m) {
    const auto& idx =
        moments.instructions_per_moment[static_cast<std::size_t>(m)];
    double duration = 0.0;
    std::vector<bool> busy(active.size(), false);
    for (const auto i : idx) {
      duration = std::max(duration, instruction_duration_ns(instrs[i], nm));
      for (int q : instrs[i].qubits) {
        const int c = exec.compact(q);
        if (c >= 0) busy[static_cast<std::size_t>(c)] = true;
      }
    }
    for (const auto i : idx) exec.execute(instrs[i]);
    if (duration > 0.0) {
      for (std::size_t k = 0; k < active.size(); ++k) {
        if (busy[k]) continue;
        const auto idle = nm.idle_relaxation(active[k], duration);
        apply_channel(exec.dm, idle, static_cast<int>(k));
      }
    }
  }
}

/// Physical <-> compact index maps for a circuit's active-qubit set.
struct Compaction {
  std::vector<int> active;      // compact -> physical
  std::vector<int> to_compact;  // physical -> compact (-1 unused)
};

Compaction build_compaction(const circ::QuantumCircuit& circuit) {
  Compaction c;
  c.active = circuit.active_qubits();
  if (c.active.empty()) c.active.push_back(0);
  c.to_compact.assign(static_cast<std::size_t>(circuit.num_qubits()), -1);
  for (std::size_t k = 0; k < c.active.size(); ++k) {
    c.to_compact[static_cast<std::size_t>(c.active[k])] = static_cast<int>(k);
  }
  return c;
}

/// Terminal-measurement layout of a circuit, precomputed once and reused
/// across every execution that shares the circuit (batched suffix sweeps
/// resolve hundreds of distributions against one resolver).
struct MeasurementResolver {
  std::vector<int> clbit_source_compact;  ///< per clbit, -1 = never measured
  std::vector<int> measured_clbits;
  std::vector<noise::ReadoutError> readout_errors;
  int num_clbits = 0;
  bool apply_readout = false;
};

MeasurementResolver build_measurement_resolver(
    const circ::QuantumCircuit& circuit, const std::vector<int>& to_compact,
    const noise::NoiseModel& noise_model) {
  MeasurementResolver res;
  res.num_clbits = circuit.num_clbits();
  res.clbit_source_compact.assign(
      static_cast<std::size_t>(circuit.num_clbits()), -1);
  std::vector<int> clbit_source_physical(
      static_cast<std::size_t>(circuit.num_clbits()), -1);
  bool any_measure = false;
  for (const auto& instr : circuit.instructions()) {
    if (instr.kind != GateKind::Measure) continue;
    // Last measure into a clbit wins (Qiskit semantics).
    const auto c = static_cast<std::size_t>(instr.clbits[0]);
    res.clbit_source_compact[c] =
        to_compact[static_cast<std::size_t>(instr.qubits[0])];
    clbit_source_physical[c] = instr.qubits[0];
    any_measure = true;
  }
  require(any_measure, "run_density_probs: circuit has no measurements");

  res.apply_readout = !noise_model.is_ideal();
  if (res.apply_readout) {
    for (int c = 0; c < circuit.num_clbits(); ++c) {
      const int q = clbit_source_physical[static_cast<std::size_t>(c)];
      if (q < 0) continue;
      res.measured_clbits.push_back(c);
      res.readout_errors.push_back(noise_model.readout(q));
    }
  }
  return res;
}

/// Resolves terminal measurements from precomputed basis-state
/// probabilities and applies readout error per the resolver.
std::vector<double> resolve_probs_from(std::span<const double> qubit_probs,
                                       const MeasurementResolver& res) {
  std::vector<double> clbit_probs(std::size_t{1} << res.num_clbits, 0.0);
  for (std::uint64_t i = 0; i < qubit_probs.size(); ++i) {
    if (qubit_probs[i] == 0.0) continue;
    std::uint64_t j = 0;
    for (int c = 0; c < res.num_clbits; ++c) {
      const int q = res.clbit_source_compact[static_cast<std::size_t>(c)];
      if (q >= 0 && ((i >> q) & 1ULL)) j |= 1ULL << c;
    }
    clbit_probs[j] += qubit_probs[i];
  }
  if (res.apply_readout) {
    noise::apply_readout_error(clbit_probs, res.measured_clbits,
                               res.readout_errors);
  }
  return clbit_probs;
}

/// Resolves terminal measurements from the final diagonal and applies
/// readout error per the resolver.
std::vector<double> resolve_probs(const sim::DensityMatrix& dm,
                                  const MeasurementResolver& res) {
  return resolve_probs_from(dm.probabilities(), res);
}

/// Arena-backed variant for batch loops: the dim-sized diagonal scratch
/// comes from the arena instead of a per-config heap allocation.
std::vector<double> resolve_probs(const sim::DensityMatrix& dm,
                                  const MeasurementResolver& res,
                                  util::Arena& arena) {
  auto qubit_probs = arena.alloc<double>(dm.dim());
  dm.probabilities_into(qubit_probs);
  return resolve_probs_from(qubit_probs, res);
}

std::vector<double> resolve_clbit_probs(const DensityExecutor& exec,
                                        const circ::QuantumCircuit& circuit,
                                        const noise::NoiseModel& noise_model) {
  return resolve_probs(
      exec.dm,
      build_measurement_resolver(circuit, exec.to_compact, noise_model));
}

// ---- batched suffix execution ----------------------------------------------
//
// A batch sweeps hundreds of fault configs from one snapshot; every config
// replays the *same* suffix instructions. The suffix is therefore compiled
// once into a flat list of prebaked operations: gate matrices are built
// once (no per-config trig), noise superoperators are looked up once, and —
// the big win — each noisy gate's unitary is fused into its noise channel so
// the replay applies one superoperator pass instead of a unitary pass plus a
// channel pass. Only the injected U-gate parameters differ per config.

/// Swaps the operand order of a two-qubit gate matrix (local index bit 0
/// <-> bit 1), so a gate given in (q0, q1) order can be expressed over the
/// sorted pair an edge superoperator is built for.
util::Mat4 swap_operand_order(const util::Mat4& u) {
  static constexpr int kPerm[4] = {0, 2, 1, 3};
  util::Mat4 out;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) out(r, c) = u(kPerm[r], kPerm[c]);
  }
  return out;
}

/// One precompiled suffix operation over compact qubit indices.
struct BakedOp {
  enum class Kind : std::uint8_t {
    Unitary1,  ///< noiseless 1q gate: m1 on q0
    Unitary2,  ///< noiseless 2q gate: m4 on (q0, q1)
    Superop1,  ///< fused 1q gate+channel superop: m4 on q0
    Superop2,  ///< fused 2q gate+channel superop: so2 on (q0, q1)
    CCX,       ///< noiseless Toffoli on (q0, q1, q2)
    Inject,    ///< per-config fault slot: injected[q0] executes here
  };
  Kind kind = Kind::Unitary1;
  int q0 = 0, q1 = 0, q2 = 0;
  util::Mat2 m1{};
  util::Mat4 m4{};
  /// Held out of line: it is 16x the size of m4 and only Superop2 ops need
  /// it, while compiled suffixes of many snapshots are alive at once.
  std::unique_ptr<const noise::SuperOp2> so2;
};

/// Bakes one instruction into `op` (gate matrix built once, noise fused in).
/// Returns false for instructions with nothing to replay (barriers, and
/// terminal measures, which are resolved from the final diagonal).
bool bake_instruction(const Instruction& instr,
                      const std::vector<int>& to_compact,
                      const noise::NoiseModel& nm, BakedOp& op) {
  const auto compact = [&](int physical) {
    return to_compact[static_cast<std::size_t>(physical)];
  };
  switch (instr.kind) {
    case GateKind::Barrier:
    case GateKind::Measure:
      return false;
    case GateKind::Reset:
      op.kind = BakedOp::Kind::Superop1;
      op.q0 = compact(instr.qubits[0]);
      op.m4 = noise::channel_superop(reset_channel());
      return true;
    default:
      break;
  }

  const auto& info = circ::gate_info(instr.kind);
  if (info.num_qubits == 1) {
    const util::Mat2 u = circ::gate_matrix1(instr.kind, instr.params);
    op.q0 = compact(instr.qubits[0]);
    if (const auto* superop = nm.superop_after_1q(instr.kind,
                                                  instr.qubits[0])) {
      op.kind = BakedOp::Kind::Superop1;
      op.m4 = noise::compose_superops(
          *superop, noise::channel_superop(noise::KrausChannel1{{u}}));
    } else {
      op.kind = BakedOp::Kind::Unitary1;
      op.m1 = u;
    }
  } else if (info.num_qubits == 2) {
    const util::Mat4 u = circ::gate_matrix2(instr.kind, instr.params);
    const int lo = std::min(instr.qubits[0], instr.qubits[1]);
    const int hi = std::max(instr.qubits[0], instr.qubits[1]);
    if (const auto* superop = nm.superop_after_2q(lo, hi)) {
      // Edge superops are built for the sorted pair, so re-express the
      // gate over (lo, hi) before fusing.
      const util::Mat4 u_sorted =
          instr.qubits[0] == lo ? u : swap_operand_order(u);
      op.kind = BakedOp::Kind::Superop2;
      op.q0 = compact(lo);
      op.q1 = compact(hi);
      op.so2 = std::make_unique<const noise::SuperOp2>(
          noise::compose_superops(*superop,
                                  noise::channel_superop(
                                      noise::KrausChannel2{{u_sorted}})));
    } else {
      op.kind = BakedOp::Kind::Unitary2;
      op.q0 = compact(instr.qubits[0]);
      op.q1 = compact(instr.qubits[1]);
      op.m4 = u;
    }
  } else {
    require(instr.kind == GateKind::CCX,
            "run_suffix_batch: unsupported 3-qubit gate");
    op.kind = BakedOp::Kind::CCX;
    op.q0 = compact(instr.qubits[0]);
    op.q1 = compact(instr.qubits[1]);
    op.q2 = compact(instr.qubits[2]);
  }
  return true;
}

std::vector<BakedOp> bake_suffix(const circ::QuantumCircuit& circuit,
                                 std::size_t prefix_length,
                                 const std::vector<int>& to_compact,
                                 const noise::NoiseModel& nm) {
  std::vector<BakedOp> ops;
  const auto& instrs = circuit.instructions();
  for (std::size_t i = prefix_length; i < instrs.size(); ++i) {
    BakedOp op;
    if (bake_instruction(instrs[i], to_compact, nm, op)) {
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

void apply_baked_op(sim::DensityMatrix& dm, const BakedOp& op) {
  switch (op.kind) {
    case BakedOp::Kind::Unitary1:
      dm.apply_unitary1(op.m1, op.q0);
      break;
    case BakedOp::Kind::Unitary2:
      dm.apply_unitary2(op.m4, op.q0, op.q1);
      break;
    case BakedOp::Kind::Superop1:
      dm.apply_superop1(op.m4, op.q0);
      break;
    case BakedOp::Kind::Superop2:
      dm.apply_superop2(op.so2->a, op.q0, op.q1);
      break;
    case BakedOp::Kind::CCX: {
      const Instruction mapped{GateKind::CCX, {op.q0, op.q1, op.q2}, {}, {}};
      dm.apply_instruction(mapped);
      break;
    }
    case BakedOp::Kind::Inject:
      break;  // per-config; callers substitute the config's fault gate
  }
}

/// Replays a compiled suffix, skipping Inject slots — the form the response
/// basis builds against (the injection itself lives in the config weights).
/// Per-config replays walk the op list themselves so Inject slots execute
/// the config's own fault gates.
void replay_suffix(sim::DensityMatrix& dm, std::span<const BakedOp> ops) {
  for (const auto& op : ops) apply_baked_op(dm, op);
}

/// Complex analogue of resolve_probs for the response basis: basis matrices
/// are not Hermitian, so their diagonals (and hence their "probabilities")
/// are complex; the imaginary parts cancel when configs recombine them.
/// The readout confusion map is real-linear, so it applies to the real and
/// imaginary parts independently.
std::vector<std::complex<double>> resolve_probs_complex(
    const sim::DensityMatrix& dm, const MeasurementResolver& res) {
  const std::uint64_t dim = dm.dim();
  const auto raw = dm.raw();
  const std::size_t num_outcomes = std::size_t{1} << res.num_clbits;
  std::vector<std::complex<double>> clbit_probs(num_outcomes, 0.0);
  for (std::uint64_t i = 0; i < dim; ++i) {
    const sim::cplx diag = raw[i * dim + i];
    if (diag == sim::cplx{}) continue;
    std::uint64_t j = 0;
    for (int c = 0; c < res.num_clbits; ++c) {
      const int q = res.clbit_source_compact[static_cast<std::size_t>(c)];
      if (q >= 0 && ((i >> q) & 1ULL)) j |= 1ULL << c;
    }
    clbit_probs[j] += diag;
  }
  if (res.apply_readout) {
    std::vector<double> re(num_outcomes), im(num_outcomes);
    for (std::size_t o = 0; o < num_outcomes; ++o) {
      re[o] = clbit_probs[o].real();
      im[o] = clbit_probs[o].imag();
    }
    noise::apply_readout_error(re, res.measured_clbits, res.readout_errors);
    noise::apply_readout_error(im, res.measured_clbits, res.readout_errors);
    for (std::size_t o = 0; o < num_outcomes; ++o) {
      clbit_probs[o] = {re[o], im[o]};
    }
  }
  return clbit_probs;
}

/// The suffix pipeline of a snapshot, compiled into a linear-response basis
/// over the fault slot — the deepest level of the prefix tree, where the
/// injection site itself becomes a split point shared by the whole grid.
///
/// Everything a batched config executes after its injected gates is one
/// fixed linear map L on density matrices (suffix superoperators, diagonal
/// extraction, readout confusion). A config only perturbs the k injected
/// qubits (k = 1 or 2), so its post-injection state decomposes over m^4
/// slot basis matrices (m = 2^k):
///
///   rho' = sum_{a,b,c,d} Phi(|c><d|)_{ab} * B_{ab,cd},
///   B_{ab,cd} = |a><b|_slot (x) rho0_slice(c,d),
///
/// where Phi is the config's slot channel (its injected unitaries composed
/// with their noise channels). Precomputing the m^4 responses L(B) per
/// snapshot turns each config into a 4^k-qubit channel build plus one
/// m^4 x 2^nc weighted sum — replacing a full suffix replay. The responses
/// are complex (the basis matrices are not Hermitian); imaginary parts
/// cancel in the weighted sum.
struct SuffixResponseBasis {
  std::vector<int> targets;  ///< compact qubit indices, ascending (size 1-2)
  /// Injection-shape key the basis was compiled for (empty when the suffix
  /// does not depend on the shape, i.e. non-idle snapshots). Moment-aware
  /// suffixes weave the spliced schedule's idle channels into the replayed
  /// ops, and that schedule depends on where the fault gates land.
  std::string shape;
  /// Response vectors, indexed [((a*m + b)*m + c)*m + d] * num_outcomes + o.
  std::vector<std::complex<double>> responses;
  std::size_t num_outcomes = 0;
};

/// Stable key of a batch config's injection *shape* — the gate kinds and
/// operand qubits, excluding parameters. Two configs with the same shape
/// splice into circuits with identical moment schedules (moment placement
/// depends on qubits, durations on kind + qubits), so they share a compiled
/// idle suffix and a response basis.
std::string injection_shape_key(std::span<const Instruction> injected) {
  util::ByteWriter w;
  for (const Instruction& instr : injected) {
    w.u32(static_cast<std::uint32_t>(instr.kind));
    w.u32(static_cast<std::uint32_t>(instr.qubits.size()));
    for (const int q : instr.qubits) w.u32(static_cast<std::uint32_t>(q));
  }
  return w.data();
}

/// Density-matrix state captured after a circuit prefix, together with the
/// compaction maps, the circuit whose suffix run_suffix will replay, and a
/// lazily-built cache of the compiled suffix program so every batch chunk
/// submitted against this snapshot shares one compilation.
class DensitySnapshot final : public PrefixSnapshot {
 public:
  /// \param idle_noise      True when the snapshot is moment-aware: the
  ///                        state covers exactly the sealed moments below
  ///                        `moment_cursor` (not a flat gate prefix).
  /// \param moment_cursor   First unsealed moment at the split (0 for
  ///                        non-idle snapshots).
  DensitySnapshot(sim::DensityMatrix dm, Compaction compaction,
                  circ::QuantumCircuit circuit, std::size_t prefix_length,
                  bool idle_noise = false, std::size_t moment_cursor = 0)
      : PrefixSnapshot(prefix_length),
        dm_(std::move(dm)),
        compaction_(std::move(compaction)),
        circuit_(std::move(circuit)),
        idle_noise_(idle_noise),
        moment_cursor_(moment_cursor) {}

  const sim::DensityMatrix& dm() const { return dm_; }
  const Compaction& compaction() const { return compaction_; }
  const circ::QuantumCircuit* circuit() const override { return &circuit_; }
  bool idle_noise() const { return idle_noise_; }
  std::size_t moment_cursor() const { return moment_cursor_; }

  /// The fused suffix program plus the terminal-measurement resolver,
  /// compiled on first use and cached. Thread-safe: snapshots are shared
  /// across pool lanes, and chunked campaigns submit several batches
  /// against one snapshot.
  struct CompiledSuffix {
    std::vector<BakedOp> ops;
    MeasurementResolver resolver;
  };
  const CompiledSuffix& compiled_suffix(const noise::NoiseModel& nm) const {
    std::call_once(compile_once_, [&] {
      compiled_.ops =
          bake_suffix(circuit_, prefix_length(), compaction_.to_compact, nm);
      compiled_.resolver =
          build_measurement_resolver(circuit_, compaction_.to_compact, nm);
    });
    return compiled_;
  }

  /// Shape-keyed compiled suffixes for moment-aware snapshots: the spliced
  /// schedule (and with it the interleaved idle channels and the Inject
  /// slot positions) depends on where the fault gates land, so each
  /// injection shape bakes its own program. Built on first use by `build`
  /// under the snapshot's lock and shared across chunks and lanes, so
  /// results stay independent of batch granularity.
  template <typename BuildFn>
  const CompiledSuffix& compiled_idle_suffix(const std::string& shape,
                                             BuildFn&& build) const {
    std::lock_guard<std::mutex> lock(idle_compiled_mutex_);
    auto it = idle_compiled_.find(shape);
    if (it == idle_compiled_.end()) {
      it = idle_compiled_
               .emplace(shape, std::make_unique<CompiledSuffix>(build()))
               .first;
    }
    return *it->second;
  }

  /// Cached response basis per (target-qubit set, injection shape), built
  /// on first use by `build` under the snapshot's lock. Chunked submissions
  /// against one snapshot share the basis, so per-config results are
  /// independent of batch granularity (the shard byte-identity contract).
  template <typename BuildFn>
  const SuffixResponseBasis& response_basis(const std::vector<int>& targets,
                                            const std::string& shape,
                                            BuildFn&& build) const {
    std::lock_guard<std::mutex> lock(response_mutex_);
    for (const auto& basis : response_bases_) {
      if (basis->targets == targets && basis->shape == shape) return *basis;
    }
    response_bases_.push_back(
        std::make_unique<SuffixResponseBasis>(build(targets)));
    response_bases_.back()->shape = shape;
    return *response_bases_.back();
  }

 private:
  sim::DensityMatrix dm_;
  Compaction compaction_;
  circ::QuantumCircuit circuit_;
  bool idle_noise_ = false;
  std::size_t moment_cursor_ = 0;
  mutable std::once_flag compile_once_;
  mutable CompiledSuffix compiled_;
  mutable std::mutex idle_compiled_mutex_;
  mutable std::map<std::string, std::unique_ptr<CompiledSuffix>>
      idle_compiled_;
  mutable std::mutex response_mutex_;
  mutable std::vector<std::unique_ptr<SuffixResponseBasis>> response_bases_;
};

/// Compiles the moment-aware suffix of a snapshot for one injection shape:
/// splices representative fault gates in at the split, recomputes the
/// spliced circuit's moment schedule, and flattens every moment at or above
/// the snapshot's sealed boundary into baked ops — residue prefix gates
/// (sealed later than the split), Inject slots where the fault gates land,
/// the suffix gates (noise fused as in bake_suffix), and one idle-channel
/// superop per (moment, idle qubit) pair. Replaying the result from the
/// snapshot state applies the same schedule a from-scratch run of the
/// spliced circuit would (parameters of the representative gates never
/// matter: moment placement depends on qubits, durations on kind + qubits).
DensitySnapshot::CompiledSuffix compile_idle_suffix(
    const DensitySnapshot& snap, std::span<const Instruction> injected_rep,
    const noise::NoiseModel& nm) {
  const circ::QuantumCircuit& circuit = *snap.circuit();
  const circ::QuantumCircuit spliced =
      splice_circuit(circuit, snap.prefix_length(), injected_rep);
  const circ::Moments moments = circ::compute_moments(spliced);
  const auto& instrs = spliced.instructions();
  const std::vector<int>& to_compact = snap.compaction().to_compact;
  const std::vector<int>& active = snap.compaction().active;
  const std::size_t split = snap.prefix_length();
  const std::size_t num_injected = injected_rep.size();

  DensitySnapshot::CompiledSuffix compiled;
  for (int m = static_cast<int>(snap.moment_cursor());
       m < moments.num_moments(); ++m) {
    const auto& idx =
        moments.instructions_per_moment[static_cast<std::size_t>(m)];
    double duration = 0.0;
    std::vector<bool> busy(active.size(), false);
    for (const auto i : idx) {
      duration = std::max(duration, instruction_duration_ns(instrs[i], nm));
      for (int q : instrs[i].qubits) {
        const int c = to_compact[static_cast<std::size_t>(q)];
        if (c >= 0) busy[static_cast<std::size_t>(c)] = true;
      }
    }
    for (const auto i : idx) {
      if (i >= split && i < split + num_injected) {
        BakedOp op;
        op.kind = BakedOp::Kind::Inject;
        op.q0 = static_cast<int>(i - split);
        compiled.ops.push_back(std::move(op));
        continue;
      }
      BakedOp op;
      if (bake_instruction(instrs[i], to_compact, nm, op)) {
        compiled.ops.push_back(std::move(op));
      }
    }
    if (duration > 0.0) {
      for (std::size_t k = 0; k < active.size(); ++k) {
        if (busy[k]) continue;
        const auto idle = nm.idle_relaxation(active[k], duration);
        if (idle.is_identity()) continue;
        BakedOp op;
        op.kind = BakedOp::Kind::Superop1;
        op.q0 = static_cast<int>(k);
        op.m4 = noise::channel_superop(idle);
        compiled.ops.push_back(std::move(op));
      }
    }
  }
  compiled.resolver = build_measurement_resolver(circuit, to_compact, nm);
  return compiled;
}

/// True when a baked op acts on any of `targets` (compact indices) —
/// the response-path eligibility scan under idle noise: an op on a target
/// ahead of the last Inject slot would have to commute past the config's
/// slot channel, which only disjoint-qubit ops do.
bool op_touches(const BakedOp& op, const std::vector<int>& targets) {
  const auto has = [&](int q) {
    return std::find(targets.begin(), targets.end(), q) != targets.end();
  };
  switch (op.kind) {
    case BakedOp::Kind::Unitary1:
    case BakedOp::Kind::Superop1:
      return has(op.q0);
    case BakedOp::Kind::Unitary2:
    case BakedOp::Kind::Superop2:
      return has(op.q0) || has(op.q1);
    case BakedOp::Kind::CCX:
      return has(op.q0) || has(op.q1) || has(op.q2);
    case BakedOp::Kind::Inject:
      return false;
  }
  return false;
}

/// Response-path eligibility of a compiled idle suffix for one target set:
/// every non-Inject op that precedes the last Inject slot must be disjoint
/// from the targets. Then the whole post-injection pipeline factors as
/// "slot channel, then one fixed linear map" exactly — ops ahead of the
/// injection commute past the slot channel (disjoint qubits), idle channels
/// on the targets only ever appear after the last fault gate (a target is
/// busy in its own injection moment), and everything is baked into the
/// basis replay.
bool idle_response_eligible(const DensitySnapshot::CompiledSuffix& compiled,
                            const std::vector<int>& targets) {
  std::ptrdiff_t last_inject = -1;
  for (std::size_t i = 0; i < compiled.ops.size(); ++i) {
    if (compiled.ops[i].kind == BakedOp::Kind::Inject) {
      last_inject = static_cast<std::ptrdiff_t>(i);
    }
  }
  for (std::ptrdiff_t i = 0; i < last_inject; ++i) {
    if (op_touches(compiled.ops[static_cast<std::size_t>(i)], targets)) {
      return false;
    }
  }
  return true;
}

/// Builds the m^4 basis responses for one target set: each slot matrix unit
/// placement B_{ab,cd} (the |a><b| slot block filled with the snapshot's
/// (c,d) slice) is replayed through the compiled suffix and resolved. One
/// replay per basis element, amortized over every config that shares the
/// targets.
SuffixResponseBasis build_response_basis(
    const DensitySnapshot& snap, const std::vector<int>& targets,
    const DensitySnapshot::CompiledSuffix& compiled) {
  const int k = static_cast<int>(targets.size());
  const std::uint64_t m = std::uint64_t{1} << k;
  const sim::DensityMatrix& rho0 = snap.dm();
  const std::uint64_t dim = rho0.dim();
  const auto raw0 = rho0.raw();

  // spread[x]: slot label bits placed at their compact qubit positions;
  // rests: every full index whose target bits are all zero.
  std::vector<std::uint64_t> spread(m, 0);
  for (std::uint64_t x = 0; x < m; ++x) {
    for (int j = 0; j < k; ++j) {
      if ((x >> j) & 1ULL) spread[x] |= std::uint64_t{1} << targets[j];
    }
  }
  std::uint64_t target_mask = 0;
  for (const int t : targets) target_mask |= std::uint64_t{1} << t;
  std::vector<std::uint64_t> rests;
  rests.reserve(dim >> k);
  for (std::uint64_t i = 0; i < dim; ++i) {
    if ((i & target_mask) == 0) rests.push_back(i);
  }

  SuffixResponseBasis basis;
  basis.targets = targets;
  basis.num_outcomes = std::size_t{1} << compiled.resolver.num_clbits;
  basis.responses.resize(m * m * m * m * basis.num_outcomes);
  // One scratch matrix refilled in place per basis element, so the m^4 loop
  // allocates no dim^2 buffer per iteration.
  sim::DensityMatrix basis_dm(rho0.num_qubits());
  for (std::uint64_t a = 0; a < m; ++a) {
    for (std::uint64_t b = 0; b < m; ++b) {
      for (std::uint64_t c = 0; c < m; ++c) {
        for (std::uint64_t d = 0; d < m; ++d) {
          const std::span<sim::cplx> rawb = basis_dm.mutable_raw();
          std::fill(rawb.begin(), rawb.end(), sim::cplx{});
          for (const std::uint64_t ri : rests) {
            const std::uint64_t row = (ri | spread[a]) * dim + spread[b];
            const std::uint64_t src = (ri | spread[c]) * dim + spread[d];
            for (const std::uint64_t si : rests) {
              rawb[row + si] = raw0[src + si];
            }
          }
          replay_suffix(basis_dm, compiled.ops);
          const auto response =
              resolve_probs_complex(basis_dm, compiled.resolver);
          const std::uint64_t beta = ((a * m + b) * m + c) * m + d;
          std::copy(response.begin(), response.end(),
                    basis.responses.begin() +
                        static_cast<std::ptrdiff_t>(beta * basis.num_outcomes));
        }
      }
    }
  }
  return basis;
}

/// Weights of one config over a response basis: W_beta = Phi(|c><d|)[a][b],
/// where Phi is the config's slot channel — its injected unitaries composed
/// with the same per-qubit noise channels the replay path applies. Computed
/// by evolving each slot matrix unit through a tiny k-qubit density matrix
/// with the same kernels, so the channel semantics match execute() exactly.
std::span<std::complex<double>> slot_channel_weights(
    util::Arena& arena, std::span<const Instruction> injected,
    const std::vector<int>& targets, const std::vector<int>& to_compact,
    const noise::NoiseModel& nm) {
  const int k = static_cast<int>(targets.size());
  const std::uint64_t m = std::uint64_t{1} << k;
  auto weights = arena.alloc_zeroed<std::complex<double>>(m * m * m * m);
  sim::DensityMatrix tiny(k);
  for (std::uint64_t c = 0; c < m; ++c) {
    for (std::uint64_t d = 0; d < m; ++d) {
      const std::span<sim::cplx> raw = tiny.mutable_raw();
      std::fill(raw.begin(), raw.end(), sim::cplx{});
      raw[c * m + d] = 1.0;
      for (const Instruction& instr : injected) {
        const int compact =
            to_compact[static_cast<std::size_t>(instr.qubits[0])];
        int slot = 0;
        while (targets[static_cast<std::size_t>(slot)] != compact) ++slot;
        tiny.apply_unitary1(circ::gate_matrix1(instr.kind, instr.params),
                            slot);
        if (!nm.is_ideal()) {
          if (const auto* superop =
                  nm.superop_after_1q(instr.kind, instr.qubits[0])) {
            tiny.apply_superop1(*superop, slot);
          }
        }
      }
      for (std::uint64_t a = 0; a < m; ++a) {
        for (std::uint64_t b = 0; b < m; ++b) {
          weights[((a * m + b) * m + c) * m + d] = tiny.at(a, b);
        }
      }
    }
  }
  return weights;
}

}  // namespace

std::vector<double> run_density_probs(const circ::QuantumCircuit& circuit,
                                      const noise::NoiseModel& noise_model,
                                      const DensityRunOptions& options) {
  require(circuit.num_clbits() > 0,
          "run_density_probs: circuit has no classical bits");
  require(circuit.measurements_are_terminal(),
          "run_density_probs: density-matrix execution requires terminal "
          "measurements (use TrajectoryBackend for mid-circuit measures)");
  require(options.coherent_errors.empty() ||
              options.coherent_errors.size() ==
                  static_cast<std::size_t>(circuit.num_qubits()),
          "run_density_probs: coherent error vector size mismatch");

  // Compaction: simulate only the qubits the circuit touches.
  const Compaction compaction = build_compaction(circuit);
  const std::vector<int>& active = compaction.active;

  DensityExecutor exec{sim::DensityMatrix(static_cast<int>(active.size())),
                       noise_model, options, compaction.to_compact};

  if (options.idle_noise && !noise_model.is_ideal()) {
    // Moment-scheduled execution: idle qubits decohere while others work.
    const auto moments = circ::compute_moments(circuit);
    execute_idle_moments(exec, circuit, moments, 0, moments.num_moments(),
                         noise_model, active);
  } else {
    for (const auto& instr : circuit.instructions()) exec.execute(instr);
  }

  return resolve_clbit_probs(exec, circuit, noise_model);
}

DensityMatrixBackend::DensityMatrixBackend(noise::NoiseModel noise_model,
                                           bool idle_noise)
    : noise_model_(std::move(noise_model)), idle_noise_(idle_noise) {}

std::string DensityMatrixBackend::name() const {
  return "density_matrix(" + noise_model_.source_name() +
         (idle_noise_ ? ", idle_noise" : "") + ")";
}

ExecutionResult DensityMatrixBackend::run(const circ::QuantumCircuit& circuit,
                                          std::uint64_t shots,
                                          std::uint64_t seed) {
  DensityRunOptions options;
  options.idle_noise = idle_noise_;
  auto probs = run_density_probs(circuit, noise_model_, options);
  return ExecutionResult::from_distribution(
      std::move(probs), circuit.num_clbits(), shots, seed, name());
}

PrefixSnapshotPtr DensityMatrixBackend::prepare_prefix(
    const circ::QuantumCircuit& circuit, std::size_t prefix_length,
    std::uint64_t shots_hint, std::uint64_t snapshot_seed) {
  (void)shots_hint;
  (void)snapshot_seed;
  require(prefix_length <= circuit.size(),
          "prepare_prefix: prefix length exceeds circuit size");
  require(circuit.num_clbits() > 0,
          "prepare_prefix: circuit has no classical bits");
  require(circuit.measurements_are_terminal(),
          "prepare_prefix: density-matrix execution requires terminal "
          "measurements");

  // The compaction is built from the full circuit so the snapshot's matrix
  // has the same dimension a full faulty run would use; injected gates may
  // only touch qubits already active in the full circuit.
  Compaction compaction = build_compaction(circuit);
  const DensityRunOptions options{};
  DensityExecutor exec{
      sim::DensityMatrix(static_cast<int>(compaction.active.size())),
      noise_model_, options, compaction.to_compact};
  const auto& instrs = circuit.instructions();
  if (idle_mode_active()) {
    // Moment-aware snapshot: evolve exactly the moments that are sealed at
    // the split (no spliced-in fault gate or later instruction can ever
    // join them), in the same moment order a from-scratch run uses.
    // Everything above the boundary — including prefix gates whose moment
    // is still open — replays at run_suffix time against the spliced
    // circuit's own schedule.
    const circ::Moments moments = circ::compute_moments(circuit);
    const int sealed =
        circ::sealed_moment_count(circuit, prefix_length, compaction.active);
    execute_idle_moments(exec, circuit, moments, 0, sealed, noise_model_,
                         compaction.active);
    return std::make_shared<DensitySnapshot>(
        std::move(exec.dm), std::move(compaction), circuit, prefix_length,
        /*idle_noise=*/true, static_cast<std::size_t>(sealed));
  }
  for (std::size_t i = 0; i < prefix_length; ++i) exec.execute(instrs[i]);
  return std::make_shared<DensitySnapshot>(std::move(exec.dm),
                                           std::move(compaction), circuit,
                                           prefix_length);
}

PrefixSnapshotPtr DensityMatrixBackend::extend_snapshot(
    const PrefixSnapshot& parent, std::size_t from_gate, std::size_t to_gate,
    std::uint64_t shots_hint, std::uint64_t snapshot_seed) {
  const auto* snap = dynamic_cast<const DensitySnapshot*>(&parent);
  if (!snap) {
    return Backend::extend_snapshot(parent, from_gate, to_gate, shots_hint,
                                    snapshot_seed);
  }
  const circ::QuantumCircuit& circuit = *snap->circuit();
  require(from_gate == parent.prefix_length(),
          "extend_snapshot: from_gate does not match the parent prefix");
  require(to_gate >= from_gate,
          "extend_snapshot: cannot extend a snapshot backwards");
  require(to_gate <= circuit.size(),
          "extend_snapshot: to_gate exceeds circuit size");
  require(snap->idle_noise() == idle_mode_active(),
          "extend_snapshot: snapshot idle-noise mode does not match the "
          "backend");

  const DensityRunOptions options{};
  DensityExecutor exec{snap->dm().clone(), noise_model_, options,
                       snap->compaction().to_compact};
  const auto& instrs = circuit.instructions();
  if (snap->idle_noise()) {
    // Advance the sealed boundary: the child's sealed moments are a
    // superset of the parent's (frontiers only grow with the prefix), so
    // the derivation replays exactly the newly sealed moments — the same
    // moment sequence a from-scratch prepare at to_gate runs after the
    // parent's boundary. Bit-identical by construction.
    const circ::Moments moments = circ::compute_moments(circuit);
    const int sealed_to =
        circ::sealed_moment_count(circuit, to_gate, snap->compaction().active);
    const int sealed_from = static_cast<int>(snap->moment_cursor());
    require(sealed_to >= sealed_from,
            "extend_snapshot: sealed boundary regressed (corrupt snapshot?)");
    execute_idle_moments(exec, circuit, moments, sealed_from, sealed_to,
                         noise_model_, snap->compaction().active);
    return std::make_shared<DensitySnapshot>(
        std::move(exec.dm), snap->compaction(), circuit, to_gate,
        /*idle_noise=*/true, static_cast<std::size_t>(sealed_to));
  }
  for (std::size_t i = from_gate; i < to_gate; ++i) exec.execute(instrs[i]);
  return std::make_shared<DensitySnapshot>(std::move(exec.dm),
                                           snap->compaction(), circuit,
                                           to_gate);
}

ExecutionResult DensityMatrixBackend::run_suffix(
    const PrefixSnapshot& snapshot,
    std::span<const circ::Instruction> injected, std::uint64_t shots,
    std::uint64_t seed) {
  const auto* snap = dynamic_cast<const DensitySnapshot*>(&snapshot);
  if (!snap) return Backend::run_suffix(snapshot, injected, shots, seed);

  const circ::QuantumCircuit& circuit = *snap->circuit();
  require(snap->idle_noise() == idle_mode_active(),
          "run_suffix: snapshot idle-noise mode does not match the backend");
  for (const auto& instr : injected) {
    require(instr.is_unitary(), "run_suffix: injected gate not unitary");
    for (int q : instr.qubits) {
      require(q >= 0 && q < circuit.num_qubits(),
              "run_suffix: injected gate qubit out of range");
      // A fault on a qubit outside the snapshot's compacted set (mapped but
      // never gated, e.g. an idle double-fault neighbor) cannot resume from
      // the snapshot; re-simulate the spliced circuit, which stays exact.
      if (snap->compaction().to_compact[static_cast<std::size_t>(q)] < 0) {
        return run(splice_circuit(circuit, snap->prefix_length(), injected),
                   shots, seed);
      }
    }
  }

  const DensityRunOptions options{};
  DensityExecutor exec{snap->dm().clone(), noise_model_, options,
                       snap->compaction().to_compact};
  if (snap->idle_noise()) {
    // Moment-aware resume: recompute the schedule of the spliced circuit
    // (its sealed moments match the snapshot's by construction — that is
    // what sealing means) and execute everything from the boundary on, idle
    // channels included, in the same moment order run() uses.
    const circ::QuantumCircuit spliced =
        splice_circuit(circuit, snap->prefix_length(), injected);
    const circ::Moments moments = circ::compute_moments(spliced);
    execute_idle_moments(exec, spliced, moments,
                         static_cast<int>(snap->moment_cursor()),
                         moments.num_moments(), noise_model_,
                         snap->compaction().active);
    auto probs = resolve_clbit_probs(exec, spliced, noise_model_);
    return ExecutionResult::from_distribution(
        std::move(probs), circuit.num_clbits(), shots, seed, name());
  }
  for (const auto& instr : injected) exec.execute(instr);
  const auto& instrs = circuit.instructions();
  for (std::size_t i = snap->prefix_length(); i < instrs.size(); ++i) {
    exec.execute(instrs[i]);
  }
  auto probs = resolve_clbit_probs(exec, circuit, noise_model_);
  return ExecutionResult::from_distribution(
      std::move(probs), circuit.num_clbits(), shots, seed, name());
}

std::vector<ExecutionResult> DensityMatrixBackend::run_suffix_batch(
    const PrefixSnapshot& snapshot, std::span<const SuffixConfig> configs,
    std::uint64_t shots) {
  const auto* snap = dynamic_cast<const DensitySnapshot*>(&snapshot);
  if (!snap) return Backend::run_suffix_batch(snapshot, configs, shots);
  if (configs.empty()) return {};

  const circ::QuantumCircuit& circuit = *snap->circuit();
  const std::vector<int>& to_compact = snap->compaction().to_compact;

  // Validate every config up front; configs whose fault touches a qubit
  // outside the snapshot's compacted set (mapped but never gated, e.g. an
  // idle double-fault neighbor) cannot resume from the snapshot and fall
  // back to exact splice re-simulation individually.
  std::vector<char> needs_splice(configs.size(), 0);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (const auto& instr : configs[c].injected) {
      require(instr.is_unitary(), "run_suffix_batch: injected gate not unitary");
      for (int q : instr.qubits) {
        require(q >= 0 && q < circuit.num_qubits(),
                "run_suffix_batch: injected gate qubit out of range");
        if (to_compact[static_cast<std::size_t>(q)] < 0) needs_splice[c] = 1;
      }
    }
  }

  require(snap->idle_noise() == idle_mode_active(),
          "run_suffix_batch: snapshot idle-noise mode does not match the "
          "backend");
  const bool idle = snap->idle_noise();

  // Per-batch setup amortized over every config: the compiled suffix
  // (cached on the snapshot, so chunked submissions share one compile), the
  // backend name string, and one scratch density matrix (re-filled from the
  // snapshot with no allocation). Moment-aware snapshots compile one suffix
  // per injection *shape* (the spliced schedule depends on where the fault
  // gates land); a single-fault grid has one shape, a double-fault slice
  // one per neighbor.
  const DensitySnapshot::CompiledSuffix* shared_compiled =
      idle ? nullptr : &snap->compiled_suffix(noise_model_);
  std::vector<const DensitySnapshot::CompiledSuffix*> compiled_of(
      configs.size(), shared_compiled);
  std::vector<std::string> shape_of(configs.size());
  if (idle) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      if (needs_splice[c]) continue;
      shape_of[c] = injection_shape_key(configs[c].injected);
      compiled_of[c] = &snap->compiled_idle_suffix(shape_of[c], [&] {
        return compile_idle_suffix(*snap, configs[c].injected, noise_model_);
      });
    }
  }
  const std::string backend_name = name();

  // Suffix-response grouping (the injection-site level of the prefix tree):
  // configs whose injected gates are all single-qubit and touch at most two
  // compact qubits share one m^4 basis of suffix responses; when enough of
  // them share a target set (and, for moment-aware suffixes, an injection
  // shape whose pre-injection ops are disjoint from the targets), each is
  // evaluated as a weighted basis sum instead of a full suffix replay.
  // Everything else (small groups, splice fallbacks, exotic injections)
  // takes the replay path below.
  struct ResponseGroup {
    std::vector<int> targets;
    std::string shape;
    std::vector<std::size_t> config_indices;
  };
  std::vector<ResponseGroup> groups;
  std::vector<std::ptrdiff_t> group_of(configs.size(), -1);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (needs_splice[c] || configs[c].injected.empty()) continue;
    std::vector<int> targets;
    bool eligible = true;
    for (const auto& instr : configs[c].injected) {
      if (circ::gate_info(instr.kind).num_qubits != 1) {
        eligible = false;
        break;
      }
      const int q = to_compact[static_cast<std::size_t>(instr.qubits[0])];
      if (std::find(targets.begin(), targets.end(), q) == targets.end()) {
        targets.push_back(q);
      }
    }
    if (!eligible || targets.size() > 2) continue;
    std::sort(targets.begin(), targets.end());
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.targets == targets && g.shape == shape_of[c];
    });
    if (it == groups.end()) {
      groups.push_back(ResponseGroup{std::move(targets), shape_of[c], {}});
      it = groups.end() - 1;
    }
    it->config_indices.push_back(c);
    group_of[c] = it - groups.begin();
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t threshold = groups[g].targets.size() == 1
                                      ? kResponseMinConfigs1q
                                      : kResponseMinConfigs2q;
    // Below break-even, or a moment-aware shape whose pre-injection ops
    // touch a target (the slot channel would not factor out): replay
    // path. Both predicates are pure functions of the batch contents, so
    // the choice is identical across chunkings and shardings.
    const bool ineligible =
        groups[g].config_indices.size() < threshold ||
        (idle && !idle_response_eligible(
                     *compiled_of[groups[g].config_indices.front()],
                     groups[g].targets));
    if (ineligible) {
      for (const std::size_t c : groups[g].config_indices) group_of[c] = -1;
      groups[g].config_indices.clear();
    }
  }

  const DensityRunOptions options{};
  // The scratch starts empty (cheap |0><0| init, no snapshot copy) and is
  // re-filled from the snapshot per config below.
  DensityExecutor exec{sim::DensityMatrix(snap->dm().num_qubits()),
                       noise_model_, options, to_compact};

  std::vector<ExecutionResult> results(configs.size());
  // Per-config scratch (response weights, accumulators, diagonal buffers)
  // comes from one arena: after the first config its blocks are warm and
  // the steady-state loop allocates nothing.
  util::Arena arena;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    arena.reset();
    const SuffixConfig& config = configs[c];
    if (needs_splice[c]) {
      results[c] =
          run(splice_circuit(circuit, snap->prefix_length(), config.injected),
              shots, config.seed);
      continue;
    }
    if (group_of[c] >= 0) {
      const ResponseGroup& group = groups[static_cast<std::size_t>(group_of[c])];
      const SuffixResponseBasis& basis = snap->response_basis(
          group.targets, group.shape, [&](const std::vector<int>& targets) {
            return build_response_basis(*snap, targets, *compiled_of[c]);
          });
      const auto weights = slot_channel_weights(
          arena, config.injected, group.targets, to_compact, noise_model_);
      const auto acc = arena.alloc_zeroed<std::complex<double>>(
          basis.num_outcomes);
      for (std::size_t beta = 0; beta < weights.size(); ++beta) {
        const std::complex<double> w = weights[beta];
        if (w == std::complex<double>{}) continue;
        const auto* response = &basis.responses[beta * basis.num_outcomes];
        for (std::size_t o = 0; o < basis.num_outcomes; ++o) {
          acc[o] += w * response[o];
        }
      }
      // Imaginary parts cancel analytically; rounding can leave a state
      // with probability ~ -1e-16, which samplers must never see.
      std::vector<double> probs(basis.num_outcomes);
      for (std::size_t o = 0; o < basis.num_outcomes; ++o) {
        probs[o] = std::max(0.0, acc[o].real());
      }
      results[c] = ExecutionResult::from_distribution(
          std::move(probs), circuit.num_clbits(), shots, config.seed,
          backend_name);
      continue;
    }
    exec.dm = snap->dm();
    if (idle) {
      // Moment-aware replay: the compiled program interleaves residue
      // prefix gates, Inject slots, suffix gates and idle channels in the
      // spliced schedule's moment order; Inject slots execute this config's
      // own fault gates (unitary + its noise channel, as execute() would).
      for (const auto& op : compiled_of[c]->ops) {
        if (op.kind == BakedOp::Kind::Inject) {
          exec.execute(config.injected[static_cast<std::size_t>(op.q0)]);
        } else {
          apply_baked_op(exec.dm, op);
        }
      }
    } else {
      for (const auto& instr : config.injected) exec.execute(instr);
      replay_suffix(exec.dm, compiled_of[c]->ops);
    }
    results[c] = ExecutionResult::from_distribution(
        resolve_probs(exec.dm, compiled_of[c]->resolver, arena),
        circuit.num_clbits(), shots, config.seed, backend_name);
  }
  return results;
}

}  // namespace qufi::backend
