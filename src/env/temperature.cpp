#include "env/temperature.hpp"

#include <cmath>

namespace unp::env {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

double TemperatureModel::room_c(TimePoint t) const noexcept {
  const double mid = 0.5 * (config_.room_min_c + config_.room_max_c);
  const double amp = 0.5 * (config_.room_max_c - config_.room_min_c);
  // Diurnal swing, warmest mid-afternoon (phase ~15:00 local; use UTC+1 as a
  // fixed approximation since only the envelope matters).
  std::int64_t sec = (t + kSecondsPerHour) % kSecondsPerDay;
  if (sec < 0) sec += kSecondsPerDay;
  const double hour = static_cast<double>(sec) / kSecondsPerHour;
  return mid + amp * 0.85 * std::sin((hour - 9.0) / 24.0 * 2.0 * kPi);
}

double TemperatureModel::node_idle_delta_c(std::uint32_t node_id) const noexcept {
  // One deterministic draw per node: derive a private stream from the node id
  // so the offset is stable across the campaign.
  RngStream rng(config_.seed, /*stream_id=*/0x7e3a, node_id);
  double delta = rng.normal(config_.idle_delta_mean_c, config_.idle_delta_sigma_c);
  if (delta < 4.0) delta = 4.0;  // a powered node is never at room temperature
  return delta;
}

double TemperatureModel::sample_node_c(TimePoint t, std::uint32_t node_id,
                                       bool overheating,
                                       RngStream& rng) const noexcept {
  return sample_with_idle_delta_c(t, node_idle_delta_c(node_id), overheating,
                                  rng);
}

double TemperatureModel::mean_with_idle_delta_c(TimePoint t,
                                                double idle_delta_c,
                                                bool overheating) const noexcept {
  double temp = room_c(t) + idle_delta_c;
  if (overheating) temp += config_.overheat_delta_c;
  return temp;
}

double TemperatureModel::sample_with_idle_delta_c(TimePoint t,
                                                  double idle_delta_c,
                                                  bool overheating,
                                                  RngStream& rng) const noexcept {
  return mean_with_idle_delta_c(t, idle_delta_c, overheating) +
         sensor_noise_c(rng);
}

double TemperatureModel::sensor_noise_c(RngStream& rng) const noexcept {
  return rng.normal(0.0, config_.sensor_noise_c);
}

}  // namespace unp::env
