#include "core/fault_model.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>

#include "util/error.hpp"

namespace qufi {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kDegToRad = kPi / 180.0;
}  // namespace

circ::Instruction PhaseShiftFault::as_instruction(int qubit) const {
  return circ::Instruction{circ::GateKind::U, {qubit}, {}, {theta, phi, 0.0}};
}

std::string PhaseShiftFault::label() const {
  std::ostringstream os;
  os.precision(4);
  os << "U(theta=" << theta << ", phi=" << phi << ", 0)";
  return os.str();
}

int FaultParamGrid::num_theta() const {
  return static_cast<int>(std::lround(theta_max_deg / theta_step_deg)) + 1;
}

int FaultParamGrid::num_phi() const {
  const auto steps = static_cast<int>(std::lround(phi_max_deg / phi_step_deg));
  // [0, 360) excludes the endpoint (it aliases 0); smaller ranges include it.
  return phi_max_deg >= 360.0 - 1e-9 ? steps : steps + 1;
}

double FaultParamGrid::theta_at(int i) const {
  require(i >= 0 && i < num_theta(), "FaultParamGrid: theta index range");
  return static_cast<double>(i) * theta_step_deg * kDegToRad;
}

double FaultParamGrid::phi_at(int j) const {
  require(j >= 0 && j < num_phi(), "FaultParamGrid: phi index range");
  return static_cast<double>(j) * phi_step_deg * kDegToRad;
}

std::vector<PhaseShiftFault> FaultParamGrid::enumerate() const {
  validate();
  std::vector<PhaseShiftFault> out;
  out.reserve(static_cast<std::size_t>(num_configs()));
  for (int j = 0; j < num_phi(); ++j) {
    for (int i = 0; i < num_theta(); ++i) {
      out.push_back(PhaseShiftFault{theta_at(i), phi_at(j)});
    }
  }
  return out;
}

void FaultParamGrid::validate() const {
  require(theta_step_deg > 0 && phi_step_deg > 0,
          "FaultParamGrid: steps must be positive");
  require(theta_max_deg > 0 && theta_max_deg <= 180.0,
          "FaultParamGrid: theta range must be (0, 180]");
  require(phi_max_deg > 0 && phi_max_deg <= 360.0,
          "FaultParamGrid: phi range must be (0, 360]");
  const double theta_steps = theta_max_deg / theta_step_deg;
  const double phi_steps = phi_max_deg / phi_step_deg;
  require(std::abs(theta_steps - std::round(theta_steps)) < 1e-9,
          "FaultParamGrid: theta step must divide the range");
  require(std::abs(phi_steps - std::round(phi_steps)) < 1e-9,
          "FaultParamGrid: phi step must divide the range");
  // Counts are ints: a tiny step (1e-300 divides any range) must be refused
  // here, not wrapped by lround into a wrong or negative count.
  constexpr double kMaxCount = std::numeric_limits<int>::max();
  require(theta_steps + 1 <= kMaxCount,
          "FaultParamGrid: theta step too small (theta count overflows int)");
  require(phi_steps + 1 <= kMaxCount,
          "FaultParamGrid: phi step too small (phi count overflows int)");
  require(static_cast<double>(num_theta()) * num_phi() <= kMaxCount,
          "FaultParamGrid: steps too small (config count overflows int)");
}

std::vector<NamedFault> gate_equivalent_faults() {
  return {
      {"t", PhaseShiftFault{0.0, kPi / 4}},
      {"s", PhaseShiftFault{0.0, kPi / 2}},
      {"z", PhaseShiftFault{0.0, kPi}},
      {"y", PhaseShiftFault{kPi, kPi / 2}},
  };
}

}  // namespace qufi
