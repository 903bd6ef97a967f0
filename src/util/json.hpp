#pragma once

#include <string>
#include <string_view>

namespace qufi::util {

/// `s` as a quoted JSON string: `"`, `\` and control characters escaped,
/// so a campaign name or an error message carrying a path can never break
/// a one-object-per-line event stream.
std::string json_string(std::string_view s);

}  // namespace qufi::util
