#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "circuit/circuit.hpp"
#include "util/binary_io.hpp"

namespace qufi::backend::snapio {

/// Which backend family wrote a snapshot file. A backend's load_snapshot
/// rejects containers of the other kind instead of misinterpreting the
/// payload.
enum class SnapshotKind : std::uint32_t {
  Density = 1,     ///< evolved density matrix (DensityMatrixBackend)
  Trajectory = 2,  ///< cached per-shot statevectors (TrajectoryBackend)
};

/// 8-byte file magic; the version bumps on any layout change (no in-place
/// migration — old snapshots are cheap to regenerate from the circuit).
/// v4 is the current layout: the container body carries a payload codec
/// tag + raw size, so payloads can optionally be deflate-compressed on disk
/// (the checksum covers the *stored* bytes — corruption is detected before
/// inflating); density payloads carry the moment-aware idle-noise header
/// and trajectory shots their prefix RNG state. Readers accept only v4
/// (docs/SNAPSHOT_FORMAT.md); a snapshot cache treats any other version as
/// a miss and re-simulates.
inline constexpr char kMagic[8] = {'Q', 'U', 'F', 'I', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kVersion = 4;

/// How a container's payload bytes are stored on disk. read_container
/// always hands loaders the *decompressed* payload, so per-kind payload
/// formats never see the codec.
enum class PayloadCodec : std::uint8_t {
  None = 0,     ///< payload stored verbatim
  Deflate = 1,  ///< zlib stream (requires a zlib-enabled build to read)
};

/// Serializes a circuit into `w` (dims, name, and every instruction with
/// full-precision params). The exact byte layout is documented in
/// docs/SNAPSHOT_FORMAT.md and is shared by every snapshot kind.
void write_circuit(util::ByteWriter& w, const circ::QuantumCircuit& circuit);

/// Mirror of write_circuit. Throws qufi::Error on malformed input (unknown
/// gate id, operand counts that fail circuit validation, truncation).
circ::QuantumCircuit read_circuit(util::ByteReader& r);

/// Frames `payload` as a v4 snapshot container — magic, version, kind,
/// codec tag, raw payload size, stored payload, trailing FNV-1a checksum
/// over everything between magic and checksum — and writes it to `out`.
/// With PayloadCodec::Deflate the payload is compressed before storing
/// (requires util::deflate_available(); callers should fall back to None
/// otherwise). Throws qufi::Error when compression or the stream write
/// fails.
void write_container(std::ostream& out, SnapshotKind kind,
                     const std::string& payload,
                     PayloadCodec codec = PayloadCodec::None);

/// A parsed container: the kind tag and the payload bytes (already
/// decompressed when the stored codec is not None).
struct Container {
  SnapshotKind kind = SnapshotKind::Density;
  std::string payload;
};

/// Reads one container from `in` (consumes the remainder of the stream) and
/// validates magic, version, kind tag, and checksum. Throws qufi::Error with
/// a reason ("bad magic", "unsupported version", "checksum mismatch",
/// "truncated") on any violation — corrupt files never produce a snapshot.
Container read_container(std::istream& in);

/// FNV-1a hash of a circuit's serialized bytes — the cache key component
/// that keys snapshot files to the exact circuit they were built from.
std::uint64_t circuit_fingerprint(const circ::QuantumCircuit& circuit);

}  // namespace qufi::backend::snapio
