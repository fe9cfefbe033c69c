#include "telemetry/node_log.hpp"

#include <algorithm>

namespace unp::telemetry {

std::uint64_t NodeLog::raw_error_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& run : error_runs_) total += run.count;
  return total;
}

double NodeLog::monitored_hours() const noexcept {
  double hours = 0.0;
  for_each_session([&](const StartRecord& start, const EndRecord& end) {
    hours += session_hours(start, end);
  });
  return hours;
}

double NodeLog::terabyte_hours() const noexcept {
  double tbh = 0.0;
  for_each_session([&](const StartRecord& start, const EndRecord& end) {
    tbh += session_terabyte_hours(start, end);
  });
  return tbh;
}

void NodeLog::sort_by_time() {
  // Stable so records sharing a timestamp (several addresses caught in one
  // scan pass) keep their stored order; parsing a serialized log must not
  // permute ties.  The simulator appends most categories in time order
  // already, so check first: a stable sort of a sorted range is the
  // identity, and skipping it skips stable_sort's scratch allocation too.
  const auto sort_if_needed = [](auto& v, auto cmp) {
    if (!std::is_sorted(v.begin(), v.end(), cmp)) {
      std::stable_sort(v.begin(), v.end(), cmp);
    }
  };
  auto by_time = [](const auto& a, const auto& b) { return a.time < b.time; };
  sort_if_needed(starts_, by_time);
  sort_if_needed(ends_, by_time);
  sort_if_needed(alloc_fails_, by_time);
  sort_if_needed(error_runs_, [](const ErrorRun& a, const ErrorRun& b) {
    return a.first.time < b.first.time;
  });
}

}  // namespace unp::telemetry
