#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace qufi {

/// Base exception for all qufi validation and usage errors.
///
/// Thrown on programmer errors (bad qubit index, malformed QASM, non-CPTP
/// channel, ...). Hot simulation paths never throw; validation happens at
/// construction / configuration boundaries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws qufi::Error with `message` when `condition` is false. A passing
/// check with a literal message allocates nothing, so per-field and
/// per-record checks can use it on hot paths.
inline void require(bool condition, std::string_view message) {
  if (!condition) throw Error(std::string(message));
}

}  // namespace qufi
