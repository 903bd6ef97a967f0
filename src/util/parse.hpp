#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace qufi::util {

/// Parses `text` as a plain decimal integer that fits T: ASCII digits only,
/// with no sign, whitespace or trailing bytes. `-1` is rejected instead of
/// wrapping to T's maximum, and a value above T's range is rejected instead
/// of being truncated into it.
///
/// \return The value, or nullopt when `text` is not such a number.
template <std::unsigned_integral T>
std::optional<T> parse_unsigned(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  // from_chars takes no '+' and, for an unsigned T, no '-'.
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// parse_unsigned for a command-line flag value.
///
/// \throws qufi::Error naming `flag` and `text` when the value is not a
///         plain decimal number within T's range.
template <std::unsigned_integral T>
T parse_unsigned_flag(std::string_view flag, std::string_view text) {
  const std::optional<T> value = parse_unsigned<T>(text);
  if (!value) {
    throw Error("bad " + std::string(flag) + " value '" + std::string(text) +
                "': expected an unsigned integer no larger than " +
                std::to_string(std::numeric_limits<T>::max()));
  }
  return *value;
}

/// Parses a signed integer or floating-point command-line flag value: all of
/// `text` must be one std::from_chars number (an optional '-', but no '+',
/// whitespace or trailing bytes) within T's range, and a floating-point
/// value must be finite.
///
/// \throws qufi::Error naming `flag` and `text` otherwise.
template <typename T>
  requires std::signed_integral<T> || std::floating_point<T>
T parse_number_flag(std::string_view flag, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && ec == std::errc{} && ptr == end;
  if constexpr (std::floating_point<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw Error("bad " + std::string(flag) + " value '" + std::string(text) +
                (std::floating_point<T> ? "': expected a finite number"
                                        : "': expected an integer in range"));
  }
  return value;
}

}  // namespace qufi::util
