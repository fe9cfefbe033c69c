// Civil-time arithmetic for the campaign clock.
//
// Simulation time is an absolute count of seconds since the Unix epoch
// (`TimePoint`).  The study's analyses bucket events by local wall-clock hour
// (Fig 5/6), by local calendar day (Figs 9-13), and against the sun's
// position over Barcelona, so the library carries an explicit Europe/Madrid
// timezone rule (CET, UTC+1, with CEST DST, UTC+2, between the last Sundays
// of March and October) rather than depending on the host's tz database.
//
// Date <-> day-count conversions use Howard Hinnant's proleptic-Gregorian
// algorithms, valid over the whole simulation range.
#pragma once

#include <cstdint>
#include <string>

namespace unp {

/// Absolute time: seconds since 1970-01-01T00:00:00 UTC.
using TimePoint = std::int64_t;

constexpr std::int64_t kSecondsPerMinute = 60;
constexpr std::int64_t kSecondsPerHour = 3600;
constexpr std::int64_t kSecondsPerDay = 86400;

/// A broken-down civil date-time (no timezone attached).
struct CivilDateTime {
  int year = 1970;
  int month = 1;   ///< 1..12
  int day = 1;     ///< 1..31
  int hour = 0;    ///< 0..23
  int minute = 0;  ///< 0..59
  int second = 0;  ///< 0..59

  friend bool operator==(const CivilDateTime&, const CivilDateTime&) = default;
};

/// Days since 1970-01-01 for a civil date (Hinnant's days_from_civil).
[[nodiscard]] std::int64_t days_from_civil(int year, int month, int day) noexcept;

/// Inverse of days_from_civil.
[[nodiscard]] CivilDateTime civil_from_days(std::int64_t days) noexcept;

/// Compose a UTC TimePoint from civil fields.
[[nodiscard]] TimePoint from_civil_utc(const CivilDateTime& c) noexcept;

/// Decompose a TimePoint into UTC civil fields.
[[nodiscard]] CivilDateTime to_civil_utc(TimePoint t) noexcept;

/// Day of week, 0 = Sunday .. 6 = Saturday.
[[nodiscard]] int weekday_from_days(std::int64_t days) noexcept;

/// True if `year` is a Gregorian leap year.
[[nodiscard]] bool is_leap_year(int year) noexcept;

/// Europe/Madrid timezone rule used by the prototype machine's logs.
class BarcelonaClock {
 public:
  /// UTC offset (seconds) in effect at UTC instant `t`:
  /// +3600 (CET) or +7200 (CEST).  DST runs from 01:00 UTC on the last
  /// Sunday of March to 01:00 UTC on the last Sunday of October.
  [[nodiscard]] static std::int64_t utc_offset(TimePoint t) noexcept;

  /// Local civil fields at UTC instant `t`.
  [[nodiscard]] static CivilDateTime to_local(TimePoint t) noexcept;

  /// Local hour of day in [0, 24) as a real number (used for the hour-of-day
  /// histograms and the solar model).
  [[nodiscard]] static double local_hour(TimePoint t) noexcept;

  /// Local calendar day count since 1970-01-01 (buckets per-day analyses).
  [[nodiscard]] static std::int64_t local_day_index(TimePoint t) noexcept;
};

/// Calendar day count of an instant given in local seconds since the epoch
/// (floor division by a day).
[[nodiscard]] constexpr std::int64_t day_of_local(std::int64_t local) noexcept {
  return local / kSecondsPerDay - (local % kSecondsPerDay < 0 ? 1 : 0);
}

/// One UTC calendar year of BarcelonaClock's rule: the year's bounds and its
/// DST window.  A loop over many instants (the per-day terabyte-hour split)
/// refreshes it only when an instant leaves the year, instead of paying the
/// calendar arithmetic of BarcelonaClock::utc_offset for every instant; both
/// answer the same offsets.
struct BarcelonaYear {
  TimePoint begin = 0;      ///< first UTC instant of the year
  TimePoint end = 0;        ///< first UTC instant of the next year
  TimePoint dst_start = 0;  ///< 01:00 UTC, last Sunday of March
  TimePoint dst_end = 0;    ///< 01:00 UTC, last Sunday of October

  /// The year containing UTC instant `t`.
  [[nodiscard]] static BarcelonaYear containing(TimePoint t) noexcept;

  [[nodiscard]] bool contains(TimePoint t) const noexcept {
    return t >= begin && t < end;
  }
  /// BarcelonaClock::utc_offset(t), for `t` inside this year.
  [[nodiscard]] std::int64_t utc_offset(TimePoint t) const noexcept {
    return t >= dst_start && t < dst_end ? 2 * kSecondsPerHour
                                         : kSecondsPerHour;
  }
  /// BarcelonaClock::local_day_index(t), for `t` inside this year.
  [[nodiscard]] std::int64_t local_day_index(TimePoint t) const noexcept {
    return day_of_local(t + utc_offset(t));
  }
};

/// The monitoring campaign window: February 2015 through February 2016
/// inclusive, as in the paper (Section II-A).
struct CampaignWindow {
  TimePoint start = from_civil_utc({2015, 2, 1, 0, 0, 0});
  TimePoint end = from_civil_utc({2016, 3, 1, 0, 0, 0});

  [[nodiscard]] std::int64_t duration_seconds() const noexcept { return end - start; }
  [[nodiscard]] std::int64_t duration_days() const noexcept {
    return duration_seconds() / kSecondsPerDay;
  }
  /// Local-day bucket of `t` relative to the campaign's first local day.
  [[nodiscard]] std::int64_t day_of_campaign(TimePoint t) const noexcept {
    return BarcelonaClock::local_day_index(t) - BarcelonaClock::local_day_index(start);
  }
  [[nodiscard]] bool contains(TimePoint t) const noexcept {
    return t >= start && t < end;
  }
};

/// "YYYY-MM-DDTHH:MM:SS" (UTC) rendering, used by the telemetry codec.
[[nodiscard]] std::string format_iso8601(TimePoint t);

/// Parse the codec's ISO-8601 rendering.  Throws ContractViolation on
/// malformed input.
[[nodiscard]] TimePoint parse_iso8601(const std::string& text);

}  // namespace unp
