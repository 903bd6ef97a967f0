#include "backend/density_backend.hpp"

#include <algorithm>
#include <bit>
#include <complex>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

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

/// The execution schedule of a circuit with fault gates spliced in: the
/// order its instructions run in, plus the idle channels after each step.
/// With idle noise a step is one ASAP moment of the spliced circuit,
/// followed by thermal relaxation on the moment's idle active qubits;
/// without it a step is one instruction, in index order, with no idle
/// channels (and nothing is stored per instruction). Instruction indices
/// are over the spliced sequence circuit[0, split) + injected +
/// circuit[split, end), the order splice_circuit builds.
///
/// Every execution path walks this one schedule — full runs, prepare /
/// extend (up to a snapshot's sealed cursor), run_suffix and the batch
/// compiler (from it) — so a resumed execution applies the exact kernel
/// sequence a from-scratch run of the spliced circuit would.
class Schedule {
 public:
  Schedule(const circ::QuantumCircuit& circuit, bool idle_noise,
           std::size_t split = 0, std::span<const Instruction> injected = {})
      : circuit_(circuit), split_(split), injected_(injected) {
    if (!idle_noise) return;
    moments_ = injected.empty()
                   ? circ::compute_moments(circuit)
                   : circ::compute_moments(
                         splice_circuit(circuit, split, injected));
  }

  /// Instruction `i` of the spliced sequence.
  const Instruction& at(std::size_t i) const {
    const auto& instrs = circuit_.instructions();
    if (i < split_) return instrs[i];
    if (is_injected(i)) return injected_[i - split_];
    return instrs[i - injected_.size()];
  }

  bool is_injected(std::size_t i) const {
    return i >= split_ && i - split_ < injected_.size();
  }

  std::size_t num_steps() const {
    return moments_ ? static_cast<std::size_t>(moments_->num_moments())
                    : circuit_.size() + injected_.size();
  }

  /// A snapshot's sealed cursor: the number of leading steps that no
  /// instruction at or after `prefix_length` — nor a fault gate on
  /// `active` qubits spliced in there — can ever join. A moment index with
  /// idle noise (see circ::sealed_moment_count), `prefix_length` without.
  std::size_t sealed_steps(std::size_t prefix_length,
                           const std::vector<int>& active) const {
    if (!moments_) return prefix_length;
    return static_cast<std::size_t>(
        circ::sealed_moment_count(circuit_, prefix_length, active));
  }

  /// Walks steps [from, to): `gate(i)` for each instruction of a step in
  /// index order, then `idle(k, channel)` for each non-identity relaxation
  /// channel on a compact qubit k the step leaves idle.
  template <typename GateFn, typename IdleFn>
  void walk(std::size_t from, std::size_t to, const Compaction& compaction,
            const noise::NoiseModel& nm, GateFn&& gate, IdleFn&& idle) const {
    if (!moments_) {
      for (std::size_t i = from; i < to; ++i) gate(i);
      return;
    }
    const std::vector<int>& active = compaction.active;
    std::vector<bool> busy(active.size());
    for (std::size_t m = from; m < to; ++m) {
      const auto& idx = moments_->instructions_per_moment[m];
      double duration = 0.0;
      std::fill(busy.begin(), busy.end(), false);
      for (const auto i : idx) {
        duration = std::max(duration, instruction_duration_ns(at(i), nm));
        for (int q : at(i).qubits) {
          const int c = compaction.to_compact[static_cast<std::size_t>(q)];
          if (c >= 0) busy[static_cast<std::size_t>(c)] = true;
        }
      }
      for (const auto i : idx) gate(i);
      if (duration <= 0.0) continue;
      for (std::size_t k = 0; k < active.size(); ++k) {
        if (busy[k]) continue;
        const auto channel = nm.idle_relaxation(active[k], duration);
        if (!channel.is_identity()) idle(static_cast<int>(k), channel);
      }
    }
  }

 private:
  const circ::QuantumCircuit& circuit_;
  std::size_t split_;
  std::span<const Instruction> injected_;
  std::optional<circ::Moments> moments_;  ///< set with idle noise only
};

/// Executor over the *compacted* qubit set: the density matrix holds only
/// qubits the circuit touches (a 4-qubit circuit transpiled onto a 7-qubit
/// device simulates 16x16, not 128x128), while noise lookups keep the
/// original physical indices so per-qubit calibration stays correct.
struct DensityExecutor {
  sim::DensityMatrix dm;
  const noise::NoiseModel& nm;
  const DensityRunOptions& options;
  const Compaction& compaction;

  int compact(int physical) const {
    return compaction.to_compact[static_cast<std::size_t>(physical)];
  }

  /// Executes schedule steps [from, to) on the state.
  void run(const Schedule& schedule, std::size_t from, std::size_t to) {
    schedule.walk(
        from, to, compaction, nm,
        [&](std::size_t i) { execute(schedule.at(i)); },
        [&](int k, const noise::KrausChannel1& channel) {
          dm.apply_kraus1(channel.ops, k);
        });
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

std::vector<double> resolve_clbit_probs(const DensityExecutor& exec,
                                        const circ::QuantumCircuit& circuit,
                                        const noise::NoiseModel& noise_model) {
  return resolve_probs(
      exec.dm,
      build_measurement_resolver(circuit, exec.compaction.to_compact,
                                 noise_model));
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
    Fold,      ///< no later op touches q0: fold it into a lane bit
  };
  Kind kind = Kind::Unitary1;
  int q0 = 0, q1 = 0, q2 = 0;
  /// The (delta_in, delta_out) pairs the op carries amplitude along, where
  /// delta is an amplitude's row bits XOR column bits over the operands:
  /// bit (delta_in << n) | delta_out, n = num_operands(kind) <= 2, is set
  /// when an exact-nonzero coefficient maps an amplitude with delta_in onto
  /// one with delta_out (see proven_zero). Unitary and superop kinds only.
  std::uint16_t delta_pairs = 0;
  util::Mat2 m1{};
  util::Mat4 m4{};
  /// Held out of line and shared: it is 16x the size of m4, only Superop2
  /// ops need it, and every program a backend compiles shares one copy per
  /// gate through the bake memo.
  std::shared_ptr<const noise::SuperOp2> so2;
};

/// delta_pairs of an n-operand unitary u (dim = 2^n, row-major, operand 0 =
/// low local bit): amplitude (r, c) reaches (r', c') when u[r'][r] and
/// u[c'][c] are both nonzero.
std::uint16_t unitary_delta_pairs(const util::cplx* u, int n) {
  const int dim = 1 << n;
  std::uint16_t pairs = 0;
  for (int r = 0; r < dim; ++r) {
    for (int rp = 0; rp < dim; ++rp) {
      if (u[rp * dim + r] == util::cplx{}) continue;
      for (int c = 0; c < dim; ++c) {
        for (int cp = 0; cp < dim; ++cp) {
          if (u[cp * dim + c] == util::cplx{}) continue;
          pairs |= std::uint16_t(1u << (((r ^ c) << n) | (rp ^ cp)));
        }
      }
    }
  }
  return pairs;
}

/// delta_pairs of an n-operand superoperator s (4^n x 4^n, row-major): its
/// local index holds the n column bits low and the n row bits above them
/// (Superop1: col | row << 1; Superop2: col q0, col q1, row q0, row q1).
std::uint16_t superop_delta_pairs(const util::cplx* s, int n) {
  const int dim = 1 << (2 * n);
  const int low = (1 << n) - 1;
  std::uint16_t pairs = 0;
  for (int o = 0; o < dim; ++o) {
    for (int i = 0; i < dim; ++i) {
      if (s[o * dim + i] == util::cplx{}) continue;
      const int din = (i & low) ^ (i >> n);
      const int dout = (o & low) ^ (o >> n);
      pairs |= std::uint16_t(1u << ((din << n) | dout));
    }
  }
  return pairs;
}

/// Fills op.delta_pairs from its coefficients.
void set_delta_pairs(BakedOp& op) {
  switch (op.kind) {
    case BakedOp::Kind::Unitary1:
      op.delta_pairs = unitary_delta_pairs(op.m1.a.data(), 1);
      break;
    case BakedOp::Kind::Unitary2:
      op.delta_pairs = unitary_delta_pairs(op.m4.a.data(), 2);
      break;
    case BakedOp::Kind::Superop1:
      op.delta_pairs = superop_delta_pairs(op.m4.a.data(), 1);
      break;
    case BakedOp::Kind::Superop2:
      op.delta_pairs = superop_delta_pairs(op.so2->a.data(), 2);
      break;
    default:
      break;
  }
}

/// Bakes one replayable instruction (not a barrier or measure): gate
/// matrix built once, noise fused in.
BakedOp bake_instruction(const Instruction& instr,
                         const std::vector<int>& to_compact,
                         const noise::NoiseModel& nm) {
  const auto compact = [&](int physical) {
    return to_compact[static_cast<std::size_t>(physical)];
  };
  BakedOp op;
  const auto& info = circ::gate_info(instr.kind);
  if (instr.kind == GateKind::Reset) {
    op.kind = BakedOp::Kind::Superop1;
    op.q0 = compact(instr.qubits[0]);
    op.m4 = noise::channel_superop(reset_channel());
  } else if (info.num_qubits == 1) {
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
      op.so2 = std::make_shared<const noise::SuperOp2>(
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
  set_delta_pairs(op);
  return op;
}

}  // namespace

namespace detail {

/// Every gate a backend has baked. Across one campaign's snapshots,
/// compile_program bakes the same few hundred suffix gates thousands of
/// times, so each is baked once and copied out (a Superop2's matrix shared,
/// not copied). The key holds exactly what bake_instruction reads: the gate
/// kind, its parameters' bits, and each physical operand with its compact
/// index. Owned by its backend, so it lives no longer than the backend.
class BakeMemo {
 public:
  BakedOp bake(const Instruction& instr, const std::vector<int>& to_compact,
               const noise::NoiseModel& nm) {
    util::ByteWriter key;
    key.u32(static_cast<std::uint32_t>(instr.kind));
    for (const double p : instr.params) key.f64(p);
    for (const int q : instr.qubits) {
      key.u32(static_cast<std::uint32_t>(q));
      key.u32(static_cast<std::uint32_t>(
          to_compact[static_cast<std::size_t>(q)]));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ops_.find(key.data());
    if (it == ops_.end()) {
      it = ops_.emplace(key.data(), bake_instruction(instr, to_compact, nm))
               .first;
    }
    return it->second;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, BakedOp> ops_;
};

}  // namespace detail

namespace {

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
    case BakedOp::Kind::Fold:
      dm.fold(op.q0);
      break;
  }
}

/// How many of q0, q1, q2 are compact qubits the op acts on: none for an
/// Inject slot (its q0 indexes the fault gates) or a Fold.
int num_operands(BakedOp::Kind kind) {
  switch (kind) {
    case BakedOp::Kind::Unitary1:
    case BakedOp::Kind::Superop1:
      return 1;
    case BakedOp::Kind::Unitary2:
    case BakedOp::Kind::Superop2:
      return 2;
    case BakedOp::Kind::CCX:
      return 3;
    case BakedOp::Kind::Inject:
    case BakedOp::Kind::Fold:
      return 0;
  }
  return 0;
}

/// Replays a compiled suffix, skipping Inject slots — the form the response
/// basis builds against (the injection itself lives in the config weights).
/// Per-config replays walk the op list themselves so Inject slots execute
/// the config's own fault gates.
void replay_suffix(sim::DensityMatrix& dm, std::span<const BakedOp> ops) {
  for (const auto& op : ops) apply_baked_op(dm, op);
}

/// A snapshot's suffix compiled for one program key: the schedule from the
/// snapshot's sealed cursor on, flattened into baked ops (Inject slots where
/// the fault gates land), plus the terminal-measurement resolver.
struct CompiledProgram {
  std::vector<BakedOp> ops;
  MeasurementResolver resolver;
  /// Where the final diagonal lands once the ops' folds have run (see
  /// sim::folded_diagonal_positions): entry i is diagonal element (i, i).
  std::vector<std::uint64_t> diagonal;
};

/// Resolves terminal measurements from the final state of a per-config
/// replay (one matrix, folded as the program says), the diagonal read
/// through the program's positions into arena scratch.
std::vector<double> resolve_probs(const sim::DensityMatrix& dm,
                                  const CompiledProgram& program,
                                  util::Arena& arena) {
  const auto raw = dm.raw();
  auto qubit_probs = arena.alloc<double>(program.diagonal.size());
  for (std::size_t i = 0; i < qubit_probs.size(); ++i) {
    qubit_probs[i] = raw[program.diagonal[i]].real();
  }
  return resolve_probs_from(qubit_probs, program.resolver);
}

/// Complex analogue of resolve_probs for the response basis: basis matrices
/// are not Hermitian, so their diagonals (and hence their "probabilities")
/// are complex; the imaginary parts cancel when configs recombine them.
/// The readout confusion map is real-linear, so it applies to the real and
/// imaginary parts independently. `lane` picks one matrix of a replayed
/// lane batch that started with `lane_bits` lane bits; the diagonal is read
/// through the program's positions in ascending full-index order.
std::vector<std::complex<double>> resolve_probs_complex(
    const sim::DensityMatrix& dm, const CompiledProgram& program,
    int lane_bits, std::uint64_t lane) {
  const MeasurementResolver& res = program.resolver;
  const auto raw = dm.raw();
  const std::size_t num_outcomes = std::size_t{1} << res.num_clbits;
  std::vector<std::complex<double>> clbit_probs(num_outcomes, 0.0);
  for (std::uint64_t i = 0; i < program.diagonal.size(); ++i) {
    const sim::cplx diag = raw[(program.diagonal[i] << lane_bits) | lane];
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
///
/// Only the `live` elements are replayed: an element whose response
/// live_elements proves exactly zero is left out of the replay and of the
/// weighted sum alike.
struct SuffixResponseBasis {
  const CompiledProgram* program = nullptr;  ///< the replayed suffix
  std::vector<int> targets;  ///< compact qubit indices, ascending (size 1-2)
  /// Elements beta = ((a*m + b)*m + c)*m + d not proven zero, ascending.
  std::vector<std::uint64_t> live;
  /// Response vectors of the live elements, indexed
  /// [i * num_outcomes + o] for element live[i].
  std::vector<std::complex<double>> responses;
  std::size_t num_outcomes = 0;
};

/// Key of the compiled program a batch config replays: what of its
/// injection the spliced schedule depends on. A flat schedule depends only
/// on how many fault gates there are, so non-idle configs of any shape —
/// e.g. both operand points of a 2q gate under a double fault — share one
/// program and its response bases. A moment schedule also depends on the
/// gate kinds and operand qubits (moment placement on qubits, durations on
/// kind + qubits), never on parameters.
std::string program_key(bool idle_noise,
                        std::span<const Instruction> injected) {
  util::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(injected.size()));
  if (!idle_noise) return w.data();
  for (const Instruction& instr : injected) {
    w.u32(static_cast<std::uint32_t>(instr.kind));
    w.u32(static_cast<std::uint32_t>(instr.qubits.size()));
    for (const int q : instr.qubits) w.u32(static_cast<std::uint32_t>(q));
  }
  return w.data();
}

/// Density-matrix state captured after a circuit prefix, together with the
/// compaction maps, the circuit whose suffix run_suffix will replay, the
/// sealed cursor of its schedule, and a lazily-built cache of compiled
/// suffix programs so every batch chunk submitted against this snapshot
/// shares one compilation.
class DensitySnapshot final : public PrefixSnapshot {
 public:
  /// \param idle_noise  The schedule the state was evolved under (moments
  ///                    with idle channels, or one instruction per step).
  /// \param cursor      Schedule steps the state covers: the sealed moments
  ///                    below the split under idle noise, `prefix_length`
  ///                    instructions without.
  DensitySnapshot(sim::DensityMatrix dm, Compaction compaction,
                  circ::QuantumCircuit circuit, std::size_t prefix_length,
                  bool idle_noise, std::size_t cursor)
      : PrefixSnapshot(prefix_length),
        dm_(std::move(dm)),
        compaction_(std::move(compaction)),
        circuit_(std::move(circuit)),
        idle_noise_(idle_noise),
        cursor_(cursor) {}

  const sim::DensityMatrix& dm() const { return dm_; }
  const Compaction& compaction() const { return compaction_; }
  const circ::QuantumCircuit* circuit() const override { return &circuit_; }
  bool idle_noise() const { return idle_noise_; }
  std::size_t cursor() const { return cursor_; }

  /// The compiled program for `key`, built on first use by `build` under
  /// the snapshot's lock and shared across chunks and lanes, so results
  /// stay independent of batch granularity.
  template <typename BuildFn>
  const CompiledProgram& program(const std::string& key,
                                 BuildFn&& build) const {
    std::lock_guard<std::mutex> lock(programs_mutex_);
    auto it = programs_.find(key);
    if (it == programs_.end()) {
      it = programs_.emplace(key, std::make_unique<CompiledProgram>(build()))
               .first;
    }
    return *it->second;
  }

  /// Cached response basis per (program, target-qubit set), built on first
  /// use by `build` under the snapshot's lock. Chunked submissions against
  /// one snapshot share the basis, so per-config results are independent of
  /// batch granularity (the shard byte-identity contract).
  template <typename BuildFn>
  const SuffixResponseBasis& response_basis(const CompiledProgram& program,
                                            const std::vector<int>& targets,
                                            BuildFn&& build) const {
    std::lock_guard<std::mutex> lock(response_mutex_);
    for (const auto& basis : response_bases_) {
      if (basis->program == &program && basis->targets == targets) {
        return *basis;
      }
    }
    response_bases_.push_back(
        std::make_unique<SuffixResponseBasis>(build(targets)));
    response_bases_.back()->program = &program;
    return *response_bases_.back();
  }

 private:
  sim::DensityMatrix dm_;
  Compaction compaction_;
  circ::QuantumCircuit circuit_;
  bool idle_noise_;
  std::size_t cursor_;
  mutable std::mutex programs_mutex_;
  mutable std::map<std::string, std::unique_ptr<CompiledProgram>> programs_;
  mutable std::mutex response_mutex_;
  mutable std::vector<std::unique_ptr<SuffixResponseBasis>> response_bases_;
};

/// Inserts a Fold op for each compact qubit right after the op where it
/// finishes: its last op, or the program's last Inject slot if that comes
/// later. From there on its row != col blocks can never reach the final
/// diagonal, so every later op walks half the data, while each kept
/// amplitude sees the same operations as unfolded. The ops after a fold are
/// renumbered to the narrower state, and `program.diagonal` records where
/// the final diagonal lands. A qubit that finishes with the last op is not
/// folded (no op after it would gain), so at least one qubit remains.
void place_folds(CompiledProgram& program, int num_qubits) {
  std::vector<BakedOp>& ops = program.ops;
  const auto width = static_cast<std::size_t>(num_qubits);
  std::ptrdiff_t last_inject = -1;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == BakedOp::Kind::Inject) {
      last_inject = static_cast<std::ptrdiff_t>(i);
    }
  }
  std::vector<std::ptrdiff_t> done(width, last_inject);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const int qs[] = {ops[i].q0, ops[i].q1, ops[i].q2};
    for (int j = 0; j < num_operands(ops[i].kind); ++j) {
      auto& d = done[static_cast<std::size_t>(qs[j])];
      d = std::max(d, static_cast<std::ptrdiff_t>(i));
    }
  }
  const auto last = static_cast<std::ptrdiff_t>(ops.size()) - 1;
  // current[q]: compact qubit q's index in the state as folded so far.
  std::vector<int> current(width);
  for (std::size_t q = 0; q < width; ++q) current[q] = static_cast<int>(q);
  std::vector<int> folds;
  std::vector<BakedOp> out;
  out.reserve(ops.size() + width);
  const auto fold_finished = [&](std::ptrdiff_t i) {
    if (i >= last) return;
    for (std::size_t q = 0; q < width; ++q) {
      if (done[q] != i) continue;
      BakedOp fold;
      fold.kind = BakedOp::Kind::Fold;
      fold.q0 = current[q];
      folds.push_back(fold.q0);
      out.push_back(std::move(fold));
      for (std::size_t p = q + 1; p < width; ++p) --current[p];
    }
  };
  fold_finished(-1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    BakedOp& op = ops[i];
    int* qs[] = {&op.q0, &op.q1, &op.q2};
    for (int j = 0; j < num_operands(op.kind); ++j) {
      *qs[j] = current[static_cast<std::size_t>(*qs[j])];
    }
    out.push_back(std::move(op));
    fold_finished(static_cast<std::ptrdiff_t>(i));
  }
  ops = std::move(out);
  program.diagonal = sim::folded_diagonal_positions(num_qubits, folds);
}

/// Compiles a snapshot's suffix for one program key: walks the schedule of
/// the circuit with representative fault gates spliced in at the split,
/// from the snapshot's sealed cursor on, and bakes each step — residue
/// prefix gates (sealed later than the split), Inject slots where the fault
/// gates land, the suffix gates (each noisy gate's unitary fused into its
/// noise superop), and one idle-channel superop per (moment, idle qubit)
/// pair. A flat schedule yields [Inject..., fused suffix]. Replaying the
/// result from the snapshot state applies the same schedule a from-scratch
/// run of the spliced circuit would (the representative gates' parameters
/// never matter; see program_key). Qubits that finish before the end are
/// folded into lanes (see place_folds). Gates are baked through `memo`.
CompiledProgram compile_program(const DensitySnapshot& snap,
                                std::span<const Instruction> injected_rep,
                                const noise::NoiseModel& nm,
                                detail::BakeMemo& memo) {
  const circ::QuantumCircuit& circuit = *snap.circuit();
  const Compaction& compaction = snap.compaction();
  const std::size_t split = snap.prefix_length();
  const Schedule schedule(circuit, snap.idle_noise(), split, injected_rep);

  CompiledProgram program;
  schedule.walk(
      snap.cursor(), schedule.num_steps(), compaction, nm,
      [&](std::size_t i) {
        const Instruction& instr = schedule.at(i);
        if (schedule.is_injected(i)) {
          BakedOp op;
          op.kind = BakedOp::Kind::Inject;
          op.q0 = static_cast<int>(i - split);
          program.ops.push_back(std::move(op));
        } else if (instr.kind != GateKind::Barrier &&
                   instr.kind != GateKind::Measure) {
          // Terminal measures are resolved from the final diagonal.
          program.ops.push_back(memo.bake(instr, compaction.to_compact, nm));
        }
      },
      [&](int k, const noise::KrausChannel1& channel) {
        BakedOp op;
        op.kind = BakedOp::Kind::Superop1;
        op.q0 = k;
        op.m4 = noise::channel_superop(channel);
        set_delta_pairs(op);
        program.ops.push_back(std::move(op));
      });
  program.resolver =
      build_measurement_resolver(circuit, compaction.to_compact, nm);
  place_folds(program, snap.dm().num_qubits());
  return program;
}

/// True when a baked op acts on any of `targets` (compact indices) —
/// the response-path eligibility scan: an op on a target ahead of the last
/// Inject slot would have to commute past the config's slot channel, which
/// only disjoint-qubit ops do.
bool op_touches(const BakedOp& op, const std::vector<int>& targets) {
  const auto has = [&](int q) {
    return std::find(targets.begin(), targets.end(), q) != targets.end();
  };
  const int qs[] = {op.q0, op.q1, op.q2};
  for (int j = 0; j < num_operands(op.kind); ++j) {
    if (has(qs[j])) return true;
  }
  return false;
}

/// Response-path eligibility of a compiled program for one target set:
/// every non-Inject op that precedes the last Inject slot must be disjoint
/// from the targets. Then the whole post-injection pipeline factors as
/// "slot channel, then one fixed linear map" exactly — ops ahead of the
/// injection commute past the slot channel (disjoint qubits), idle channels
/// on the targets only ever appear after the last fault gate (a target is
/// busy in its own injection moment), and everything is baked into the
/// basis replay. A flat program ([Inject..., suffix]) is always eligible.
bool response_eligible(const CompiledProgram& program,
                       const std::vector<int>& targets) {
  std::ptrdiff_t last_inject = -1;
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    if (program.ops[i].kind == BakedOp::Kind::Inject) {
      last_inject = static_cast<std::ptrdiff_t>(i);
    }
  }
  for (std::ptrdiff_t i = 0; i < last_inject; ++i) {
    if (op_touches(program.ops[static_cast<std::size_t>(i)], targets)) {
      return false;
    }
  }
  return true;
}

/// Lane bits of the batches a response basis is replayed in: the most
/// lanes, up to 8, whose batch of dim^2 complexes per lane fits 1 MiB. That
/// is 8 lanes up to width 6, 4 at width 7, and one matrix from width 8 up.
int basis_lane_bits(int num_qubits) {
  constexpr std::uint64_t kBatchBytes = std::uint64_t{1} << 20;
  const std::uint64_t matrix_bytes =
      (std::uint64_t{1} << (2 * num_qubits)) * sizeof(sim::cplx);
  int bits = 3;
  while (bits > 0 && (matrix_bytes << bits) > kBatchBytes) --bits;
  return bits;
}

/// True when replaying `ops` provably leaves every diagonal amplitude of a
/// state exactly zero (+0 or -0), given that the state starts with every
/// amplitude whose row XOR column index r ^ c has g(r ^ c) = 0 (parity of
/// r ^ c & g) exactly zero. g is a GF(2) functional over the compact
/// qubits, tracked through the ops so that the invariant keeps holding:
///   - an op on qubits S maps amplitudes along the (delta_in, delta_out)
///     pairs of its exact-nonzero coefficients (BakedOp::delta_pairs) and
///     leaves the other bits of r ^ c alone. If g is zero on S it stays;
///     otherwise g takes on S the first g' (ascending) with
///     g'.delta_out = g.delta_in on every pair, so a target amplitude with
///     g' = 0 is a sum of exact zeros. With no such g' nothing is proven;
///   - a Fold of q keeps only r_q = c_q, so g drops bit q (and the higher
///     bits shift down, as the qubits do). A zero g proves the state zero;
///   - a CCX on g's support is not tracked; Inject slots are not replayed.
/// At the end the diagonal has r ^ c = 0, so g(r ^ c) = 0 there. The
/// kernels' own 1e-12 drop only removes products, never adds one.
bool proven_zero(std::span<const BakedOp> ops, std::uint64_t g) {
  const auto parity = [](unsigned x) { return std::popcount(x) & 1; };
  for (const BakedOp& op : ops) {
    switch (op.kind) {
      case BakedOp::Kind::Inject:
        continue;
      case BakedOp::Kind::Fold: {
        const std::uint64_t low = (std::uint64_t{1} << op.q0) - 1;
        g = (g & low) | ((g >> 1) & ~low);
        if (g == 0) return true;
        continue;
      }
      case BakedOp::Kind::CCX:
        if (((g >> op.q0) | (g >> op.q1) | (g >> op.q2)) & 1) return false;
        continue;
      default:
        break;
    }
    const int n = num_operands(op.kind);
    const int qs[] = {op.q0, op.q1};
    unsigned local = 0;
    for (int j = 0; j < n; ++j) local |= ((g >> qs[j]) & 1) << j;
    if (local == 0) continue;
    const unsigned dim = 1u << n;
    unsigned next = dim;  // none found
    for (unsigned cand = 0; cand < dim && next == dim; ++cand) {
      bool holds = true;
      for (unsigned din = 0; din < dim && holds; ++din) {
        for (unsigned dout = 0; dout < dim && holds; ++dout) {
          if ((op.delta_pairs >> ((din << n) | dout)) & 1) {
            holds = parity(cand & dout) == parity(local & din);
          }
        }
      }
      if (holds) next = cand;
    }
    if (next == dim) return false;
    for (int j = 0; j < n; ++j) {
      const std::uint64_t bit = std::uint64_t{1} << qs[j];
      g = ((next >> j) & 1) ? (g | bit) : (g & ~bit);
    }
  }
  return true;
}

/// The basis elements beta = ((a*m + b)*m + c)*m + d whose responses are not
/// proven exactly zero, ascending. Element beta starts with its slot block
/// at rows a, columns b, so every nonzero amplitude has r ^ c = v = a ^ b on
/// the targets; any g on the targets with g.v = 1 satisfies proven_zero's
/// invariant, and each such g is tried. Elements with a = b always live.
/// A proven element's diagonal is all +-0, which resolve_probs_complex
/// skips, so its response would be exactly +0 and its weighted-sum terms
/// would add only +-0 to a sum that starts at +0: leaving it out moves no
/// byte.
std::vector<std::uint64_t> live_elements(const CompiledProgram& program,
                                         const std::vector<int>& targets,
                                         bool prune) {
  const int k = static_cast<int>(targets.size());
  const std::uint64_t m = std::uint64_t{1} << k;
  std::vector<char> dead(m, 0);  // by v = a ^ b
  for (std::uint64_t v = 1; prune && v < m; ++v) {
    for (std::uint64_t h = 1; h < m && !dead[v]; ++h) {
      if ((std::popcount(h & v) & 1) == 0) continue;
      std::uint64_t g = 0;
      for (int j = 0; j < k; ++j) {
        if ((h >> j) & 1) g |= std::uint64_t{1} << targets[j];
      }
      dead[v] = proven_zero(program.ops, g);
    }
  }
  std::vector<std::uint64_t> live;
  for (std::uint64_t beta = 0; beta < m * m * m * m; ++beta) {
    const std::uint64_t a = beta >> (3 * k);
    const std::uint64_t b = (beta >> (2 * k)) & (m - 1);
    if (!dead[a ^ b]) live.push_back(beta);
  }
  return live;
}

/// Builds the basis responses for one target set: each live slot matrix
/// unit placement B_{ab,cd} (the |a><b| slot block filled with the
/// snapshot's (c,d) slice) is replayed through the compiled suffix and
/// resolved. The elements are replayed as lane batches (see
/// sim::DensityMatrix), so one walk of the compiled ops serves up to 8 of
/// them; each lane's bytes are those of a replay on its own. The program's
/// folds shrink the batch in place as qubits finish. Amortized over every
/// config that shares the targets. Without `prune` every element is live.
SuffixResponseBasis build_response_basis(const DensitySnapshot& snap,
                                         const std::vector<int>& targets,
                                         const CompiledProgram& program,
                                         bool prune = true) {
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
  basis.live = live_elements(program, targets, prune);
  basis.num_outcomes = std::size_t{1} << program.resolver.num_clbits;
  basis.responses.resize(basis.live.size() * basis.num_outcomes);
  // One scratch batch refilled in place per lane batch (its folds only
  // shrink it), so the loop allocates no buffer per iteration. Lane l of
  // the batch starting at `first` holds element
  // live[first + l] = ((a*m + b)*m + c)*m + d; a short last batch takes
  // only the lane bits it fills.
  const int max_lane_bits = basis_lane_bits(rho0.num_qubits());
  const std::uint64_t lanes = std::uint64_t{1} << max_lane_bits;
  sim::DensityMatrix batch(rho0.num_qubits(), max_lane_bits);
  for (std::uint64_t first = 0; first < basis.live.size(); first += lanes) {
    const std::uint64_t count = std::min(lanes, basis.live.size() - first);
    const int lane_bits = std::bit_width(count - 1);
    batch.assign_zero(rho0.num_qubits(), lane_bits);
    const std::span<sim::cplx> rawb = batch.mutable_raw();
    for (std::uint64_t l = 0; l < count; ++l) {
      const std::uint64_t beta = basis.live[first + l];
      const std::uint64_t d = beta & (m - 1);
      const std::uint64_t c = (beta >> k) & (m - 1);
      const std::uint64_t b = (beta >> (2 * k)) & (m - 1);
      const std::uint64_t a = beta >> (3 * k);
      for (const std::uint64_t ri : rests) {
        const std::uint64_t row = (ri | spread[a]) * dim + spread[b];
        const std::uint64_t src = (ri | spread[c]) * dim + spread[d];
        for (const std::uint64_t si : rests) {
          rawb[((row + si) << lane_bits) | l] = raw0[src + si];
        }
      }
    }
    replay_suffix(batch, program.ops);
    for (std::uint64_t l = 0; l < count; ++l) {
      const auto response =
          resolve_probs_complex(batch, program, lane_bits, l);
      std::copy(response.begin(), response.end(),
                basis.responses.begin() + static_cast<std::ptrdiff_t>(
                                              (first + l) * basis.num_outcomes));
    }
  }
  return basis;
}

/// Weights of one config over a response basis: W_beta = Phi(|c><d|)[a][b],
/// where Phi is the config's slot channel — its injected unitaries composed
/// with the same per-qubit noise channels the replay path applies. The m^2
/// slot matrix units |c><d| are evolved as the lanes of one k-qubit batch
/// in `scratch` (lane l = c*m + d), with the same kernels, so the channel
/// semantics match execute() exactly. Element (a, b) of lane l sits at
/// ((a*m + b) << 2k) | l = ((a*m + b)*m + c)*m + d, the weight index
/// itself: the weights are the raw state, valid until `scratch` changes.
std::span<const std::complex<double>> slot_channel_weights(
    sim::DensityMatrix& scratch, std::span<const Instruction> injected,
    const std::vector<int>& targets, const std::vector<int>& to_compact,
    const noise::NoiseModel& nm) {
  const int k = static_cast<int>(targets.size());
  const std::uint64_t units = std::uint64_t{1} << (2 * k);
  scratch.assign_zero(k, 2 * k);
  const std::span<sim::cplx> raw = scratch.mutable_raw();
  for (std::uint64_t l = 0; l < units; ++l) raw[(l << (2 * k)) | l] = 1.0;
  for (const Instruction& instr : injected) {
    const int compact = to_compact[static_cast<std::size_t>(instr.qubits[0])];
    int slot = 0;
    while (targets[static_cast<std::size_t>(slot)] != compact) ++slot;
    scratch.apply_unitary1(circ::gate_matrix1(instr.kind, instr.params),
                           slot);
    const util::Mat4* superop =
        nm.is_ideal() ? nullptr
                      : nm.superop_after_1q(instr.kind, instr.qubits[0]);
    if (superop != nullptr) scratch.apply_superop1(*superop, slot);
  }
  return scratch.raw();
}

/// A from-scratch execution of `circuit` under the given schedule mode.
std::vector<double> density_probs(const circ::QuantumCircuit& circuit,
                                  const noise::NoiseModel& noise_model,
                                  const DensityRunOptions& options,
                                  bool idle_noise) {
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
  DensityExecutor exec{
      sim::DensityMatrix(static_cast<int>(compaction.active.size())),
      noise_model, options, compaction};
  const Schedule schedule(circuit, idle_noise);
  exec.run(schedule, 0, schedule.num_steps());
  return resolve_clbit_probs(exec, circuit, noise_model);
}

}  // namespace

std::vector<double> run_density_probs(const circ::QuantumCircuit& circuit,
                                      const noise::NoiseModel& noise_model,
                                      const DensityRunOptions& options) {
  return density_probs(circuit, noise_model, options, /*idle_noise=*/false);
}

DensityMatrixBackend::DensityMatrixBackend(noise::NoiseModel noise_model,
                                           bool idle_noise)
    : noise_model_(std::move(noise_model)),
      idle_noise_(idle_noise),
      bake_memo_(std::make_unique<detail::BakeMemo>()) {}

DensityMatrixBackend::~DensityMatrixBackend() = default;

std::string DensityMatrixBackend::name() const {
  return "density_matrix(" + noise_model_.source_name() +
         (idle_noise_ ? ", idle_noise" : "") + ")";
}

ExecutionResult DensityMatrixBackend::run(const circ::QuantumCircuit& circuit,
                                          std::uint64_t shots,
                                          std::uint64_t seed) {
  auto probs = density_probs(circuit, noise_model_, {}, idle_mode_active());
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
      noise_model_, options, compaction};
  // Evolve exactly the steps sealed at the split, in the order a
  // from-scratch run uses. Under idle noise, prefix gates whose moment is
  // still open replay at run_suffix time against the spliced circuit's own
  // schedule.
  const Schedule schedule(circuit, idle_mode_active());
  const std::size_t cursor =
      schedule.sealed_steps(prefix_length, compaction.active);
  exec.run(schedule, 0, cursor);
  return std::make_shared<DensitySnapshot>(
      std::move(exec.dm), std::move(compaction), circuit, prefix_length,
      idle_mode_active(), cursor);
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

  // Advance the sealed cursor: the child's sealed steps are a superset of
  // the parent's (frontiers only grow with the prefix), so the derivation
  // runs exactly the newly sealed steps — the same sequence a from-scratch
  // prepare at to_gate runs after the parent's cursor. Bit-identical by
  // construction.
  const DensityRunOptions options{};
  DensityExecutor exec{snap->dm().clone(), noise_model_, options,
                       snap->compaction()};
  const Schedule schedule(circuit, snap->idle_noise());
  const std::size_t cursor =
      schedule.sealed_steps(to_gate, snap->compaction().active);
  require(cursor >= snap->cursor(),
          "extend_snapshot: sealed boundary regressed (corrupt snapshot?)");
  exec.run(schedule, snap->cursor(), cursor);
  return std::make_shared<DensitySnapshot>(std::move(exec.dm),
                                           snap->compaction(), circuit,
                                           to_gate, snap->idle_noise(), cursor);
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

  // Resume the spliced circuit's schedule from the snapshot's cursor (its
  // sealed steps match the snapshot's by construction — that is what
  // sealing means), fault gates included where splice_circuit puts them.
  const DensityRunOptions options{};
  DensityExecutor exec{snap->dm().clone(), noise_model_, options,
                       snap->compaction()};
  const Schedule schedule(circuit, snap->idle_noise(), snap->prefix_length(),
                          injected);
  exec.run(schedule, snap->cursor(), schedule.num_steps());
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

  // Per-batch setup amortized over every config: the compiled program of
  // each distinct program key (cached on the snapshot, so chunked
  // submissions share one compile; looked up once per key per batch), the
  // backend name string, and one scratch density matrix (re-filled from
  // the snapshot with no allocation). Non-idle batches have one key per
  // injected-gate count; moment-aware ones one per injection shape (a
  // single-fault grid has one, a double-fault slice one per neighbor).
  std::vector<const CompiledProgram*> program_of(configs.size(), nullptr);
  std::vector<std::pair<std::string, const CompiledProgram*>> programs;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (needs_splice[c]) continue;
    std::string key = program_key(snap->idle_noise(), configs[c].injected);
    auto it = std::find_if(programs.begin(), programs.end(),
                           [&](const auto& p) { return p.first == key; });
    if (it == programs.end()) {
      const CompiledProgram& program = snap->program(key, [&] {
        return compile_program(*snap, configs[c].injected, noise_model_,
                               *bake_memo_);
      });
      it = programs.emplace(programs.end(), std::move(key), &program);
    }
    program_of[c] = it->second;
  }
  const std::string backend_name = name();

  // Suffix-response grouping (the injection-site level of the prefix tree):
  // configs whose injected gates are all single-qubit and touch at most two
  // compact qubits share one m^4 basis of suffix responses; when enough of
  // them share a program and a target set that its pre-injection ops are
  // disjoint from, each is evaluated as a weighted basis sum instead of a
  // full suffix replay. Everything else (small groups, splice fallbacks,
  // exotic injections) takes the replay path below.
  struct ResponseGroup {
    std::vector<int> targets;
    const CompiledProgram* program;
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
      return g.targets == targets && g.program == program_of[c];
    });
    if (it == groups.end()) {
      groups.push_back(ResponseGroup{std::move(targets), program_of[c], {}});
      it = groups.end() - 1;
    }
    it->config_indices.push_back(c);
    group_of[c] = it - groups.begin();
  }
  for (ResponseGroup& group : groups) {
    const std::size_t threshold = group.targets.size() == 1
                                      ? kResponseMinConfigs1q
                                      : kResponseMinConfigs2q;
    // Below break-even, or a program whose pre-injection ops touch a
    // target (the slot channel would not factor out): replay path. Both
    // predicates are pure functions of the batch contents, so the choice
    // is identical across chunkings and shardings.
    if (group.config_indices.size() < threshold ||
        !response_eligible(*group.program, group.targets)) {
      for (const std::size_t c : group.config_indices) group_of[c] = -1;
      group.config_indices.clear();
    }
  }

  const DensityRunOptions options{};
  // The scratch starts empty (cheap |0><0| init, no snapshot copy) and is
  // re-filled from the snapshot per config below.
  DensityExecutor exec{sim::DensityMatrix(snap->dm().num_qubits()),
                       noise_model_, options, snap->compaction()};

  std::vector<ExecutionResult> results(configs.size());
  // Per-config scratch (accumulators, diagonal buffers) comes from one
  // arena, and response weights from one slot batch: after the first config
  // both are warm and the steady-state loop allocates nothing.
  util::Arena arena;
  sim::DensityMatrix slot_scratch(1);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    arena.reset();
    const SuffixConfig& config = configs[c];
    if (needs_splice[c]) {
      results[c] =
          run(splice_circuit(circuit, snap->prefix_length(), config.injected),
              shots, config.seed);
      continue;
    }
    const CompiledProgram& program = *program_of[c];
    if (group_of[c] >= 0) {
      const ResponseGroup& group = groups[static_cast<std::size_t>(group_of[c])];
      const SuffixResponseBasis& basis = snap->response_basis(
          program, group.targets, [&](const std::vector<int>& targets) {
            return build_response_basis(*snap, targets, program);
          });
      const auto weights =
          slot_channel_weights(slot_scratch, config.injected, group.targets,
                               to_compact, noise_model_);
      // Only the real part of sum_beta w * response is read (the
      // imaginary parts cancel analytically), so only it is accumulated:
      // the real part of each complex product, wr * rr - wi * ri, as the
      // complex sum would form it, over the live elements in ascending
      // order.
      const auto acc = arena.alloc_zeroed<double>(basis.num_outcomes);
      for (std::size_t i = 0; i < basis.live.size(); ++i) {
        const std::complex<double> w = weights[basis.live[i]];
        if (w == std::complex<double>{}) continue;
        const double wr = w.real();
        const double wi = w.imag();
        const auto* response = &basis.responses[i * basis.num_outcomes];
        for (std::size_t o = 0; o < basis.num_outcomes; ++o) {
          acc[o] += wr * response[o].real() - wi * response[o].imag();
        }
      }
      // Rounding can leave a state with probability ~ -1e-16, which
      // samplers must never see.
      std::vector<double> probs(basis.num_outcomes);
      for (std::size_t o = 0; o < basis.num_outcomes; ++o) {
        probs[o] = std::max(0.0, acc[o]);
      }
      results[c] = ExecutionResult::from_distribution(
          std::move(probs), circuit.num_clbits(), shots, config.seed,
          backend_name);
      continue;
    }
    // Replay: Inject slots execute this config's own fault gates (unitary
    // + its noise channel, as execute() would); every other op is baked.
    // Folds only shrink exec.dm, so the copy from the snapshot reuses its
    // storage.
    exec.dm = snap->dm();
    for (const auto& op : program.ops) {
      if (op.kind == BakedOp::Kind::Inject) {
        exec.execute(config.injected[static_cast<std::size_t>(op.q0)]);
      } else {
        apply_baked_op(exec.dm, op);
      }
    }
    results[c] = ExecutionResult::from_distribution(
        resolve_probs(exec.dm, program, arena),
        circuit.num_clbits(), shots, config.seed, backend_name);
  }
  return results;
}

namespace detail {

ResponseBasisProbe probe_response_basis(
    const DensityMatrixBackend& backend, const PrefixSnapshot& snapshot,
    std::span<const circ::Instruction> injected, bool prune) {
  const auto* snap = dynamic_cast<const DensitySnapshot*>(&snapshot);
  require(snap != nullptr,
          "probe_response_basis: not a density-matrix snapshot");
  std::vector<int> targets;
  for (const Instruction& instr : injected) {
    require(circ::gate_info(instr.kind).num_qubits == 1,
            "probe_response_basis: fault gates must be single-qubit");
    const int q =
        snap->compaction().to_compact[static_cast<std::size_t>(
            instr.qubits[0])];
    if (std::find(targets.begin(), targets.end(), q) == targets.end()) {
      targets.push_back(q);
    }
  }
  std::sort(targets.begin(), targets.end());
  require(!targets.empty() && targets.size() <= 2,
          "probe_response_basis: need one or two target qubits");
  BakeMemo memo;
  const CompiledProgram program =
      compile_program(*snap, injected, backend.noise_model(), memo);
  require(response_eligible(program, targets),
          "probe_response_basis: program is not response-eligible");
  const SuffixResponseBasis basis =
      build_response_basis(*snap, targets, program, prune);
  const std::uint64_t m = std::uint64_t{1} << targets.size();
  ResponseBasisProbe probe;
  probe.live = basis.live.size();
  probe.responses.assign(m * m * m * m * basis.num_outcomes, {});
  for (std::size_t i = 0; i < basis.live.size(); ++i) {
    std::copy_n(basis.responses.begin() +
                    static_cast<std::ptrdiff_t>(i * basis.num_outcomes),
                basis.num_outcomes,
                probe.responses.begin() + static_cast<std::ptrdiff_t>(
                                              basis.live[i] *
                                              basis.num_outcomes));
  }
  return probe;
}

}  // namespace detail

}  // namespace qufi::backend
