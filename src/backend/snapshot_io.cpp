#include "backend/snapshot_io.hpp"

#include <cstring>
#include <istream>
#include <ostream>

#include "util/compress.hpp"
#include "util/error.hpp"

namespace qufi::backend::snapio {

void write_circuit(util::ByteWriter& w, const circ::QuantumCircuit& circuit) {
  w.u32(static_cast<std::uint32_t>(circuit.num_qubits()));
  w.u32(static_cast<std::uint32_t>(circuit.num_clbits()));
  w.str(circuit.name());
  w.u64(circuit.size());
  for (const auto& instr : circuit.instructions()) {
    w.u32(static_cast<std::uint32_t>(instr.kind));
    w.u32(static_cast<std::uint32_t>(instr.qubits.size()));
    for (const int q : instr.qubits) w.u32(static_cast<std::uint32_t>(q));
    w.u32(static_cast<std::uint32_t>(instr.clbits.size()));
    for (const int c : instr.clbits) w.u32(static_cast<std::uint32_t>(c));
    w.u32(static_cast<std::uint32_t>(instr.params.size()));
    for (const double p : instr.params) w.f64(p);
  }
}

circ::QuantumCircuit read_circuit(util::ByteReader& r) {
  const auto num_qubits = static_cast<int>(r.u32());
  const auto num_clbits = static_cast<int>(r.u32());
  require(num_qubits >= 0 && num_qubits <= 64 && num_clbits >= 0 &&
              num_clbits <= 64,
          "snapshot: circuit dimensions out of range");
  const std::string name = r.str();
  circ::QuantumCircuit circuit(num_qubits, num_clbits);
  circuit.set_name(name);
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    circ::Instruction instr;
    const std::uint32_t kind = r.u32();
    require(kind <= static_cast<std::uint32_t>(circ::GateKind::Reset),
            "snapshot: unknown gate kind");
    instr.kind = static_cast<circ::GateKind>(kind);
    instr.qubits.resize(r.u32());
    for (auto& q : instr.qubits) q = static_cast<int>(r.u32());
    instr.clbits.resize(r.u32());
    for (auto& c : instr.clbits) c = static_cast<int>(r.u32());
    instr.params.resize(r.u32());
    for (auto& p : instr.params) p = r.f64();
    circuit.append(std::move(instr));  // re-validated on append
  }
  return circuit;
}

void write_container(std::ostream& out, SnapshotKind kind,
                     const std::string& payload, PayloadCodec codec) {
  util::ByteWriter body;  // everything the checksum covers
  body.u32(kVersion);
  body.u32(static_cast<std::uint32_t>(kind));
  body.u8(static_cast<std::uint8_t>(codec));
  body.u64(payload.size());
  if (codec == PayloadCodec::Deflate) {
    const std::string stored = util::deflate_compress(payload);
    body.raw(stored.data(), stored.size());
  } else {
    require(codec == PayloadCodec::None, "snapshot: unknown payload codec");
    body.raw(payload.data(), payload.size());
  }

  out.write(kMagic, sizeof kMagic);
  out.write(body.data().data(), static_cast<std::streamsize>(body.size()));
  util::ByteWriter checksum;
  checksum.u64(util::fnv1a64(body.data()));
  out.write(checksum.data().data(),
            static_cast<std::streamsize>(checksum.size()));
  require(out.good(), "snapshot: stream write failed");
}

Container read_container(std::istream& in) {
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  // magic + version + kind + codec + raw size + checksum is the minimum
  // viable container.
  require(bytes.size() >= sizeof kMagic + 4 + 4 + 1 + 8 + 8,
          "snapshot: truncated");
  require(std::memcmp(bytes.data(), kMagic, sizeof kMagic) == 0,
          "snapshot: bad magic");

  const std::string_view body(bytes.data() + sizeof kMagic,
                              bytes.size() - sizeof kMagic - 8);
  util::ByteReader tail(
      std::string_view(bytes.data() + bytes.size() - 8, 8));
  require(tail.u64() == util::fnv1a64(body), "snapshot: checksum mismatch");

  util::ByteReader r(body);
  require(r.u32() == kVersion, "snapshot: unsupported version");
  const std::uint32_t kind = r.u32();
  require(kind == static_cast<std::uint32_t>(SnapshotKind::Density) ||
              kind == static_cast<std::uint32_t>(SnapshotKind::Trajectory),
          "snapshot: unknown backend kind");

  Container c;
  c.kind = static_cast<SnapshotKind>(kind);
  // Body: codec tag + raw payload size + stored (maybe compressed) payload.
  // The checksum above covered the stored bytes, so corruption is already
  // ruled out before any decompression runs.
  const std::uint8_t codec = r.u8();
  const std::uint64_t raw_size = r.u64();
  const std::string_view stored = body.substr(4 + 4 + 1 + 8);
  if (codec == static_cast<std::uint8_t>(PayloadCodec::Deflate)) {
    c.payload =
        util::deflate_decompress(stored, static_cast<std::size_t>(raw_size));
  } else {
    require(codec == static_cast<std::uint8_t>(PayloadCodec::None),
            "snapshot: unknown payload codec");
    require(stored.size() == raw_size, "snapshot: payload size mismatch");
    c.payload.assign(stored);
  }
  return c;
}

std::uint64_t circuit_fingerprint(const circ::QuantumCircuit& circuit) {
  util::ByteWriter w;
  write_circuit(w, circuit);
  return util::fnv1a64(w.data());
}

}  // namespace qufi::backend::snapio
