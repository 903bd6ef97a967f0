#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/adaptive.hpp"
#include "core/campaign.hpp"

namespace qufi::dist {

/// A campaign by name: the circuit, device, fault grid and shots that
/// qufi_cli runs, qufi_shard_plan partitions and qufi_submit queues. One
/// definition serves every front end, so each tool parses the same flags
/// (parse_campaign_flag) and builds the same CampaignSpec (campaign_spec).
struct CampaignDefinition {
  std::string circuit = "bv";  ///< bv | dj | qft | ghz | grover
  int width = 4;               ///< total qubits
  std::string device = "casablanca";  ///< casablanca | jakarta | linear | full
  int opt_level = 3;
  double theta_step = 15.0;
  double phi_step = 15.0;
  double phi_max = 360.0;
  std::uint64_t shots = 0;
  std::uint64_t seed = 0x51754649;
  std::size_t max_points = 0;
  bool double_fault = false;
  bool idle_noise = false;
  /// Set = adaptive QVF estimation with this policy (single-fault only).
  std::optional<AdaptivePolicy> adaptive;

  friend bool operator==(const CampaignDefinition&,
                         const CampaignDefinition&) = default;
};

/// Consumes `flag` when it is a campaign flag: `next_value` is called once
/// for a flag that takes a value, and the value is parsed with the strict
/// util::parse_*_flag parsers into `definition`. Any `--adaptive*` flag
/// turns adaptive estimation on.
///
/// \return false, touching nothing, for a flag this module does not own.
/// \throws qufi::Error naming the flag on a malformed number.
bool parse_campaign_flag(std::string_view flag,
                         const std::function<std::string()>& next_value,
                         CampaignDefinition& definition);

/// The usage lines for every flag parse_campaign_flag owns, with defaults.
const char* campaign_flags_help();

/// Builds the campaign `definition` names: the paper circuit, the fake
/// device, the fault grid and the run knobs.
///
/// \throws qufi::Error on an unknown circuit or device name, an
///         out-of-range width, or adaptive estimation on a double-fault
///         campaign.
CampaignSpec campaign_spec(const CampaignDefinition& definition);

}  // namespace qufi::dist
