#include "sim/density_matrix.hpp"

#include <string>

#include "sim/kernel_dispatch.hpp"
#include "sim/kernels.hpp"
#include "util/error.hpp"

namespace qufi::sim {

namespace {

/// Index bits of the largest state: 12 qubits in 8 lanes.
constexpr int kMaxStateBits = 27;

/// `x` with a zero bit inserted at position `pos`.
std::uint64_t insert_zero_bit(std::uint64_t x, int pos) {
  const std::uint64_t low = (std::uint64_t{1} << pos) - 1;
  return ((x & ~low) << 1) | (x & low);
}

}  // namespace

DensityMatrix::DensityMatrix(int num_qubits, int lane_bits) {
  set_shape(num_qubits, lane_bits);
  rho_.assign((dim_ * dim_) << lane_bits, cplx{});
  const std::uint64_t lanes = std::uint64_t{1} << lane_bits;
  for (std::uint64_t l = 0; l < lanes; ++l) rho_[l] = cplx{1, 0};
}

void DensityMatrix::assign_zero(int num_qubits, int lane_bits) {
  set_shape(num_qubits, lane_bits);
  rho_.assign((dim_ * dim_) << lane_bits, cplx{});
}

void DensityMatrix::set_shape(int num_qubits, int lane_bits) {
  require(num_qubits >= 1 && num_qubits <= 12,
          "DensityMatrix: qubit count out of supported range [1, 12]");
  require(lane_bits >= 0 && lane_bits <= kMaxStateBits - 2 * num_qubits,
          "DensityMatrix: lane bits out of range (need lane_bits >= 0 and "
          "2 * qubits + lane_bits <= 27)");
  num_qubits_ = num_qubits;
  lane_bits_ = lane_bits;
  dim_ = std::uint64_t{1} << num_qubits;
}

void DensityMatrix::require_single(const char* what) const {
  // Branch before building the message: at() sits in the per-config
  // slot-channel loop.
  if (lane_bits_ != 0) {
    throw Error(std::string("DensityMatrix::") + what +
                ": reads one matrix, not a lane batch");
  }
}

DensityMatrix DensityMatrix::from_statevector(const Statevector& sv) {
  DensityMatrix dm(sv.num_qubits());
  const auto amps = sv.amplitudes();
  for (std::uint64_t r = 0; r < dm.dim_; ++r)
    for (std::uint64_t c = 0; c < dm.dim_; ++c)
      dm.rho_[(r << dm.num_qubits_) | c] = amps[r] * std::conj(amps[c]);
  return dm;
}

cplx DensityMatrix::at(std::uint64_t r, std::uint64_t c) const {
  require_single("at");
  require(r < dim_ && c < dim_, "DensityMatrix::at: index out of range");
  return rho_[(r << num_qubits_) | c];
}

void DensityMatrix::apply_unitary1(const util::Mat2& u, int q) {
  require(q >= 0 && q < num_qubits_, "apply_unitary1: qubit out of range");
  if (u.a[1] == cplx{} && u.a[2] == cplx{}) {
    // Diagonal (virtual RZ, phase-only faults): one pass, the row phase
    // then the conjugate column phase per amplitude.
    dispatch::apply_diag1(rho_, u, row_bit(q), col_bit(q));
    return;
  }
  dispatch::apply_matrix1(rho_, u, row_bit(q));  // rows: U rho
  dispatch::apply_matrix1(rho_, detail::conj_elementwise(u),
                          col_bit(q));  // cols: rho U†
}

void DensityMatrix::apply_unitary2(const util::Mat4& u, int q0, int q1) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ &&
              q0 != q1,
          "apply_unitary2: bad qubit operands");
  dispatch::apply_matrix2(rho_, u, row_bit(q0), row_bit(q1));
  dispatch::apply_matrix2(rho_, detail::conj_elementwise(u), col_bit(q0),
                          col_bit(q1));
}

void DensityMatrix::apply_instruction(const circ::Instruction& instr) {
  require(instr.is_unitary(),
          std::string("DensityMatrix: cannot apply non-unitary op ") +
              instr.name());
  const auto& info = circ::gate_info(instr.kind);
  switch (info.num_qubits) {
    case 1:
      apply_unitary1(circ::gate_matrix1(instr.kind, instr.params),
                     instr.qubits[0]);
      return;
    case 2:
      apply_unitary2(circ::gate_matrix2(instr.kind, instr.params),
                     instr.qubits[0], instr.qubits[1]);
      return;
    case 3: {
      require(instr.kind == circ::GateKind::CCX,
              "DensityMatrix: unsupported 3-qubit gate");
      dispatch::apply_ccx(rho_, row_bit(instr.qubits[0]),
                          row_bit(instr.qubits[1]), row_bit(instr.qubits[2]));
      dispatch::apply_ccx(rho_, col_bit(instr.qubits[0]),
                          col_bit(instr.qubits[1]), col_bit(instr.qubits[2]));
      return;
    }
    default:
      throw Error("DensityMatrix: unsupported operand count");
  }
}

void DensityMatrix::apply_kraus1(std::span<const util::Mat2> kraus, int q) {
  require(q >= 0 && q < num_qubits_, "apply_kraus1: qubit out of range");
  require(!kraus.empty(), "apply_kraus1: empty Kraus set");
  if (kraus.size() == 1) {
    // Single operator: same machinery as a (possibly non-unitary) gate.
    dispatch::apply_matrix1(rho_, kraus[0], row_bit(q));
    dispatch::apply_matrix1(rho_, detail::conj_elementwise(kraus[0]),
                            col_bit(q));
    return;
  }
  // Superoperator fast path: vec_rm(K B K†) = (K (x) conj(K)) vec_rm(B), so
  // the whole channel is one 4x4 matrix over (column bit q, row bit q+n).
  util::Mat4 superop = util::Mat4::zero();
  for (const auto& k : kraus) {
    superop = superop + util::kron(k, detail::conj_elementwise(k));
  }
  dispatch::apply_matrix2(rho_, superop, col_bit(q), row_bit(q));
}

void DensityMatrix::apply_kraus2(std::span<const util::Mat4> kraus, int q0,
                                 int q1) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ &&
              q0 != q1,
          "apply_kraus2: bad qubit operands");
  require(!kraus.empty(), "apply_kraus2: empty Kraus set");
  // 16x16 superoperator over local bits [col q0, col q1, row q0, row q1]:
  // entry M[(r<<2)|c', ...] = K[row part] * conj(K)[col part].
  std::array<cplx, 256> superop{};
  for (const auto& k : kraus) {
    const util::Mat4 kc = detail::conj_elementwise(k);
    for (int rr = 0; rr < 4; ++rr) {
      for (int rc = 0; rc < 4; ++rc) {
        for (int cr = 0; cr < 4; ++cr) {
          for (int cc = 0; cc < 4; ++cc) {
            superop[static_cast<std::size_t>(((rr << 2) | rc) * 16 +
                                             ((cr << 2) | cc))] +=
                k(rr, cr) * kc(rc, cc);
          }
        }
      }
    }
  }
  const int bits[] = {col_bit(q0), col_bit(q1), row_bit(q0), row_bit(q1)};
  dispatch::apply_matrix_k(rho_, superop, bits);
}

void DensityMatrix::apply_superop1(const util::Mat4& superop, int q) {
  require(q >= 0 && q < num_qubits_, "apply_superop1: qubit out of range");
  dispatch::apply_matrix2(rho_, superop, col_bit(q), row_bit(q));
}

void DensityMatrix::apply_superop2(std::span<const util::cplx> superop,
                                   int q0, int q1) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ &&
              q0 != q1,
          "apply_superop2: bad qubit operands");
  require(superop.size() == 256, "apply_superop2: need a 16x16 matrix");
  const int bits[] = {col_bit(q0), col_bit(q1), row_bit(q0), row_bit(q1)};
  dispatch::apply_matrix_k(rho_, superop, bits);
}

void DensityMatrix::fold(int q) {
  require(q >= 0 && q < num_qubits_ && num_qubits_ >= 2,
          "fold: qubit out of range, or no qubit would remain");
  // Element (row, col) of every lane is one run of 2^b complexes. Folded
  // row r, column c and fold bit f come from unfolded row r_f and column
  // c_f (r and c with bit f inserted at q) and go to run 2 * (r * dim/2 +
  // c) + f, which lies inside unfolded row r. Walking r up and c down
  // reads every run before it is overwritten: rows r_f >= r are untouched
  // by the writes of rows below r, and within row r_0 == r the run read
  // at column c is never past the 2c the walk has already written down to.
  const int b = lane_bits_;
  const std::uint64_t run = std::uint64_t{1} << b;
  const std::uint64_t half = dim_ >> 1;
  const std::uint64_t bit = std::uint64_t{1} << q;
  cplx* a = rho_.data();
  for (std::uint64_t r = 0; r < half; ++r) {
    const std::uint64_t r0 = insert_zero_bit(r, q);
    cplx* dst_row = a + ((r << num_qubits_) << b);
    const cplx* row0 = a + ((r0 << num_qubits_) << b);
    const cplx* row1 = a + (((r0 | bit) << num_qubits_) << b) + (bit << b);
    for (std::uint64_t c = half; c-- > 0;) {
      const std::uint64_t c0 = insert_zero_bit(c, q) << b;
      cplx* dst = dst_row + ((2 * c) << b);
      // Element-wise: a run is often one complex, and dst may equal row0
      // + c0 (then every assignment is to itself).
      for (std::uint64_t k = 0; k < run; ++k) dst[k] = row0[c0 + k];
      for (std::uint64_t k = 0; k < run; ++k) dst[run + k] = row1[c0 + k];
    }
  }
  set_shape(num_qubits_ - 1, lane_bits_ + 1);
  rho_.resize(rho_.size() / 2);
}

std::vector<double> DensityMatrix::probabilities() const {
  require_single("probabilities");
  std::vector<double> probs(dim_);
  for (std::uint64_t i = 0; i < dim_; ++i)
    probs[i] = rho_[(i << num_qubits_) | i].real();
  return probs;
}

double DensityMatrix::trace() const {
  require_single("trace");
  double t = 0.0;
  for (std::uint64_t i = 0; i < dim_; ++i)
    t += rho_[(i << num_qubits_) | i].real();
  return t;
}

double DensityMatrix::purity() const {
  // tr(rho^2) = sum_{r,c} rho[r,c] * rho[c,r] = sum |rho[r,c]|^2 (Hermitian).
  require_single("purity");
  double sum = 0.0;
  for (const auto& v : rho_) sum += std::norm(v);
  return sum;
}

std::vector<std::uint64_t> folded_diagonal_positions(
    int num_qubits, std::span<const int> folds) {
  // remaining[k]: the full-width qubit now at index k; folded[j]: the one
  // behind fold lane bit j.
  std::vector<int> remaining(static_cast<std::size_t>(num_qubits));
  for (int k = 0; k < num_qubits; ++k) remaining[static_cast<std::size_t>(k)] = k;
  std::vector<int> folded;
  for (const int q : folds) {
    require(q >= 0 && q < static_cast<int>(remaining.size()) &&
                remaining.size() >= 2,
            "folded_diagonal_positions: fold qubit out of range");
    folded.push_back(remaining[static_cast<std::size_t>(q)]);
    remaining.erase(remaining.begin() + q);
  }
  const int width = static_cast<int>(remaining.size());
  const int lane_bits = static_cast<int>(folded.size());
  std::vector<std::uint64_t> positions(std::uint64_t{1} << num_qubits);
  for (std::uint64_t i = 0; i < positions.size(); ++i) {
    std::uint64_t r = 0;
    for (int k = 0; k < width; ++k) {
      r |= ((i >> remaining[static_cast<std::size_t>(k)]) & 1ULL) << k;
    }
    std::uint64_t f = 0;
    for (int j = 0; j < lane_bits; ++j) {
      f |= ((i >> folded[static_cast<std::size_t>(j)]) & 1ULL) << j;
    }
    positions[i] = (((r << width) | r) << lane_bits) | f;
  }
  return positions;
}

}  // namespace qufi::sim
