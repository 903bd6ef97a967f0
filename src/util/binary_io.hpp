#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qufi::util {

/// Append-only binary buffer with an explicit little-endian wire format.
///
/// Binary result files (QUFIPART, docs/RESULT_FORMAT.md) are written
/// through this so the on-disk layout is byte-stable across platforms
/// (little-endian regardless of host endianness).
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 binary64, stored as its u64 bit pattern (exact round-trip).
  void f64(double v);
  /// Length-prefixed (u64) byte string.
  void str(std::string_view s);
  /// Raw bytes, no length prefix (caller owns framing).
  void raw(const void* data, std::size_t size);

  const std::string& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Sequential reader over a byte buffer; the mirror of ByteWriter.
///
/// Every accessor throws qufi::Error("binary_io: truncated input") when the
/// buffer runs out, so truncated files are rejected instead of yielding
/// garbage records.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  void raw(void* out, std::size_t size);

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool at_end() const { return pos_ == buf_.size(); }

 private:
  std::string_view buf_;
  std::size_t pos_ = 0;
};

/// FNV-1a 64-bit hash — the result-file and journal checksum. Not
/// cryptographic; it guards against truncation and bit rot, not tampering.
std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace qufi::util
