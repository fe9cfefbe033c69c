// One node's log: its records in time order, per record class.
//
// The original tool kept one log file per node.  NodeLog is that file's
// in-memory form: the unit the campaign simulates, the node-log body
// encodes (binary_codec), the stream formats frame, and the analyses read.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/civil_time.hpp"
#include "telemetry/record.hpp"

namespace unp::telemetry {

/// Bytes per terabyte (2^40) in every terabyte-hour figure.
inline constexpr double kBytesPerTb = 1099511627776.0;

/// Time-ordered log of a single node.
class NodeLog {
 public:
  void add_start(const StartRecord& r) { starts_.push_back(r); }
  void add_end(const EndRecord& r) { ends_.push_back(r); }
  void add_alloc_fail(const AllocFailRecord& r) { alloc_fails_.push_back(r); }
  void add_error_run(const ErrorRun& r) { error_runs_.push_back(r); }
  void add_error(const ErrorRecord& r) { error_runs_.push_back(ErrorRun{r, 0, 1}); }
  /// Append `runs` in stored order, one bulk copy.
  void add_error_runs(std::span<const ErrorRun> runs) {
    error_runs_.insert(error_runs_.end(), runs.begin(), runs.end());
  }

  // Capacity hints for decoders that know record counts up front.
  void reserve_starts(std::size_t n) { starts_.reserve(starts_.size() + n); }
  void reserve_ends(std::size_t n) { ends_.reserve(ends_.size() + n); }
  void reserve_alloc_fails(std::size_t n) { alloc_fails_.reserve(alloc_fails_.size() + n); }
  void reserve_error_runs(std::size_t n) { error_runs_.reserve(error_runs_.size() + n); }

  [[nodiscard]] const std::vector<StartRecord>& starts() const noexcept { return starts_; }
  [[nodiscard]] const std::vector<EndRecord>& ends() const noexcept { return ends_; }
  [[nodiscard]] const std::vector<AllocFailRecord>& alloc_fails() const noexcept {
    return alloc_fails_;
  }
  [[nodiscard]] const std::vector<ErrorRun>& error_runs() const noexcept {
    return error_runs_;
  }
  [[nodiscard]] std::size_t error_run_capacity() const noexcept {
    return error_runs_.capacity();
  }
  /// Mutable view of the runs from position `first` on, so a builder can
  /// put the segment it just appended in order without copying it out.
  [[nodiscard]] std::span<ErrorRun> error_runs_from(std::size_t first) noexcept {
    return std::span<ErrorRun>(error_runs_).subspan(first);
  }

  /// Total number of raw ERROR log lines represented (runs expanded).
  [[nodiscard]] std::uint64_t raw_error_count() const noexcept;

  /// Visit every complete session in START order as f(start, end).  Each
  /// START pairs with the first END at or after it, unless the next START
  /// comes first: a hard reboot lost the END, and the paper's conservative
  /// accounting counts that session for nothing.  monitored_hours,
  /// terabyte_hours and the per-day split of Fig 9 all sum over this walk.
  template <class F>
  void for_each_session(F&& f) const {
    std::size_t e = 0;
    for (std::size_t s = 0; s < starts_.size(); ++s) {
      while (e < ends_.size() && ends_[e].time < starts_[s].time) ++e;
      if (e < ends_.size() && (s + 1 >= starts_.size() ||
                               ends_[e].time <= starts_[s + 1].time)) {
        f(starts_[s], ends_[e]);
        ++e;
      }
    }
  }

  /// Hours of one complete session.
  [[nodiscard]] static double session_hours(const StartRecord& start,
                                            const EndRecord& end) noexcept {
    return static_cast<double>(end.time - start.time) / kSecondsPerHour;
  }
  /// Terabyte-hours of one complete session: its hours weighted by its
  /// allocation size.
  [[nodiscard]] static double session_terabyte_hours(
      const StartRecord& start, const EndRecord& end) noexcept {
    return session_hours(start, end) *
           static_cast<double>(start.allocated_bytes) / kBytesPerTb;
  }

  /// Scanning hours over the complete sessions (for_each_session).
  [[nodiscard]] double monitored_hours() const noexcept;

  /// Terabyte-hours scanned over the complete sessions.
  [[nodiscard]] double terabyte_hours() const noexcept;

  /// Sort all record vectors by time (builders normally append in order).
  void sort_by_time();

  [[nodiscard]] bool empty() const noexcept {
    return starts_.empty() && ends_.empty() && alloc_fails_.empty() &&
           error_runs_.empty();
  }

  /// Drop all records but keep vector capacity — arena reuse across nodes.
  void clear() noexcept {
    starts_.clear();
    ends_.clear();
    alloc_fails_.clear();
    error_runs_.clear();
  }

 private:
  std::vector<StartRecord> starts_;
  std::vector<EndRecord> ends_;
  std::vector<AllocFailRecord> alloc_fails_;
  std::vector<ErrorRun> error_runs_;
};

}  // namespace unp::telemetry
