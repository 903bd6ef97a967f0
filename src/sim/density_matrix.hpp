#pragma once

#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/statevector.hpp"
#include "util/matrix.hpp"

namespace qufi::sim {

/// Hands out 64-byte-aligned blocks, so a 512-bit vector over four
/// complexes at a multiple of four never splits a cache line. Each block is
/// a plain ::operator new of 64 bytes more, the shift to the boundary kept
/// in the byte before it: blocks of one size then reuse each other's heap
/// chunks as unaligned ones do, where an aligned operator new asks for a
/// larger chunk than the last one freed and grows the heap.
template <class T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    auto* raw = static_cast<unsigned char*>(::operator new(n * sizeof(T) + 64));
    const std::size_t shift = 64 - reinterpret_cast<std::uintptr_t>(raw) % 64;
    raw[shift - 1] = static_cast<unsigned char>(shift);
    return reinterpret_cast<T*>(raw + shift);
  }
  void deallocate(T* p, std::size_t) noexcept {
    auto* block = reinterpret_cast<unsigned char*>(p);
    ::operator delete(block - block[-1]);
  }
  bool operator==(const CacheLineAllocator&) const = default;
};

/// Mixed-state simulator: the full 2^n x 2^n density matrix, row-major.
///
/// This is the exact noisy-execution engine: unitaries evolve the state as
/// rho -> U rho U†, noise is applied through Kraus channels, and the final
/// diagonal gives exact outcome probabilities (no sampling noise) — the
/// equivalent of Qiskit Aer's density_matrix method used by the paper's
/// noise-model scenario.
///
/// Implementation note: rho is stored flat with index (row << n) | col, so
/// a unitary on qubit q is one statevector-style kernel pass over the row
/// bit (q + n) followed by the elementwise-conjugate matrix over the column
/// bit q.
///
/// Lane batches: with lane_bits = b > 0 the object holds 2^b independent
/// matrices ("lanes") interleaved as the b lowest index bits, element
/// (row, col) of lane l at (((row << n) | col) << b) | l. Every apply_*
/// then shifts its bit positions up by b and evolves all lanes in one
/// kernel pass. The lanes are just more disjoint kernel groups, so each
/// lane's amplitudes see exactly the operations a single matrix would, bit
/// for bit. The single-matrix readers (at, probabilities, trace, purity)
/// require b = 0.
///
/// A folded qubit is a lane bit too: fold(q) keeps only the two blocks of
/// qubit q where its row bit equals its column bit, as two more lanes of a
/// matrix one qubit narrower. Once no later op touches q, those are the
/// only blocks that can reach the diagonal, and every kept amplitude then
/// sees the operations it would have seen unfolded.
///
/// A state holds at most 2^27 complexes, as many as 12 qubits in 8 lanes:
/// 2 * qubits + lane bits <= 27.
class DensityMatrix {
 public:
  /// Initializes |0...0><0...0| in each of the 2^lane_bits lanes.
  explicit DensityMatrix(int num_qubits, int lane_bits = 0);

  /// Reshapes to `num_qubits` qubits and 2^lane_bits lanes with every
  /// amplitude zero. Reuses the storage, so a batch folded by its last
  /// replay refills for the next one without allocating.
  void assign_zero(int num_qubits, int lane_bits);

  /// rho = |psi><psi|.
  static DensityMatrix from_statevector(const Statevector& sv);

  /// Explicit deep copy — checkpointed execution resumes campaigns from a
  /// shared prefix snapshot, so the copy intent is spelled out at call
  /// sites instead of relying on implicit copies.
  DensityMatrix clone() const { return *this; }

  /// Read-only view of the flat row-major storage (index (row << n) | col,
  /// shifted up by lane_bits() with the lane in the low bits).
  std::span<const cplx> raw() const { return rho_; }

  /// Mutable view of the flat storage, for callers that refill a scratch
  /// DensityMatrix in place (response-basis construction) instead of
  /// churning a fresh allocation per element. The caller owns keeping the
  /// contents a valid state before the next evolution call.
  std::span<cplx> mutable_raw() { return rho_; }

  int num_qubits() const { return num_qubits_; }
  int lane_bits() const { return lane_bits_; }
  std::uint64_t dim() const { return std::uint64_t{1} << num_qubits_; }

  /// Element rho[r, c].
  cplx at(std::uint64_t r, std::uint64_t c) const;

  /// Applies a single-qubit unitary on qubit q. A diagonal u (exact-zero
  /// off-diagonals, e.g. RZ) takes one kernel pass instead of two; the
  /// result differs from the two-pass one at most in the sign of an exact
  /// zero.
  void apply_unitary1(const util::Mat2& u, int q);
  /// Applies a two-qubit unitary; operand 0 is the low local bit.
  void apply_unitary2(const util::Mat4& u, int q0, int q1);

  /// Applies one unitary circuit instruction.
  void apply_instruction(const circ::Instruction& instr);

  /// Applies a single-qubit Kraus channel {K_i}: rho -> sum K rho K†.
  void apply_kraus1(std::span<const util::Mat2> kraus, int q);
  /// Applies a two-qubit Kraus channel.
  void apply_kraus2(std::span<const util::Mat4> kraus, int q0, int q1);

  /// Fast path: applies a precomputed 1q channel superoperator (4x4 over
  /// (column bit, row bit), as built by noise::channel_superop).
  void apply_superop1(const util::Mat4& superop, int q);
  /// Fast path: applies a precomputed 2q channel superoperator (16x16,
  /// local index (rowpart << 2) | colpart, operand 0 = low bit).
  void apply_superop2(std::span<const util::cplx> superop, int q0, int q1);

  /// Folds qubit q into a new top lane bit, in place: the state becomes
  /// num_qubits() - 1 qubits (q removed, higher qubits renumbered down by
  /// one) and lane_bits() + 1 lanes, where new lane bit lane_bits() is q's
  /// row (= column) bit. The blocks where q's row and column bits differ
  /// are dropped, so only call this once no later op touches q.
  void fold(int q);

  /// Diagonal of rho: probability of each basis state.
  std::vector<double> probabilities() const;

  /// tr(rho); should stay ~1 under CPTP evolution.
  double trace() const;

  /// tr(rho^2); 1 for pure states, 1/2^n for the maximally mixed state.
  double purity() const;

 private:
  /// Flat bit positions of qubit q's row and column index bits.
  int row_bit(int q) const { return q + num_qubits_ + lane_bits_; }
  int col_bit(int q) const { return q + lane_bits_; }
  void require_single(const char* what) const;
  void set_shape(int num_qubits, int lane_bits);

  int num_qubits_;
  int lane_bits_;
  std::uint64_t dim_;
  std::vector<cplx, CacheLineAllocator<cplx>> rho_;
};

/// Where the diagonal of a `num_qubits`-wide matrix lands after the folds
/// `folds` (each a qubit index at the time of its fold, in fold order):
/// entry i is diagonal element (i, i), a full-width index, and sits at
/// raw()[(entry << b) | lane] of the folded state, where b is the lane bits
/// the state had before its first fold. With no folds, entry i is
/// (i << num_qubits) | i.
std::vector<std::uint64_t> folded_diagonal_positions(int num_qubits,
                                                     std::span<const int> folds);

}  // namespace qufi::sim
