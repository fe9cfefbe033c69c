// Node-temperature model.
//
// Section III-F: the machine room was held between 18 and 26 degC; idle nodes
// running only the scanner sit around 30-40 degC; the SoC-12 column of each
// blade overheats because of its rack position (eventually shut down by the
// admins); and a small tail of error logs recorded >60 degC.
//
// The model composes:
//   room(t)      - slow sinusoid inside [18, 26] degC (diurnal HVAC swing)
//   idle delta   - per-node offset drawn once per node (silicon/slot spread)
//   position     - extra heating for overheating slots (SoC 12)
//   noise        - sensor jitter
//
// Temperatures enter the telemetry records; per the paper, sensors only came
// online in April 2015, which the telemetry layer reflects by omitting the
// reading before that date.
#pragma once

#include <cstdint>

#include "common/civil_time.hpp"
#include "common/rng.hpp"

namespace unp::env {

class TemperatureModel {
 public:
  struct Config {
    double room_min_c = 18.0;
    double room_max_c = 26.0;
    /// Mean idle temperature rise of a scanning node above room temperature.
    double idle_delta_mean_c = 12.0;
    /// Node-to-node 1-sigma spread of the idle delta.
    double idle_delta_sigma_c = 2.5;
    /// Additional rise for overheating slots (the SoC-12 column).
    double overheat_delta_c = 28.0;
    /// Instantaneous sensor noise (1 sigma).
    double sensor_noise_c = 1.2;
    /// Seed for the per-node offset table.
    std::uint64_t seed = 1;
  };

  TemperatureModel() : TemperatureModel(Config{}) {}
  explicit TemperatureModel(const Config& config) : config_(config) {}

  /// Machine-room temperature at `t`, inside [room_min, room_max].
  [[nodiscard]] double room_c(TimePoint t) const noexcept;

  /// Deterministic per-node idle offset above room temperature.
  [[nodiscard]] double node_idle_delta_c(std::uint32_t node_id) const noexcept;

  /// Sampled node temperature at `t`; `overheating` selects the hot-slot
  /// profile; `rng` supplies the sensor-noise draw.
  [[nodiscard]] double sample_node_c(TimePoint t, std::uint32_t node_id,
                                     bool overheating, RngStream& rng) const noexcept;

  /// Same sample with the node's idle delta already resolved.  The delta is
  /// a pure function of the node id, so per-node loops hoist the
  /// node_idle_delta_c draw (a fresh keyed stream plus a polar-method
  /// normal) out of the per-record path; values are bit-identical.
  [[nodiscard]] double sample_with_idle_delta_c(TimePoint t, double idle_delta_c,
                                                bool overheating,
                                                RngStream& rng) const noexcept;

  /// The two terms of that sample: the noise-free node temperature and one
  /// sensor-noise draw.  A sample is exactly their sum, so a caller that
  /// draws a node's noise sequence ahead of time (the split campaign node,
  /// sim/session_sim) reproduces every sample bit for bit.
  [[nodiscard]] double mean_with_idle_delta_c(TimePoint t, double idle_delta_c,
                                              bool overheating) const noexcept;
  [[nodiscard]] double sensor_noise_c(RngStream& rng) const noexcept;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

}  // namespace unp::env
