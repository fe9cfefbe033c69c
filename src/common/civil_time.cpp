#include "common/civil_time.hpp"

#include <cstdio>

#include "common/require.hpp"

namespace unp {

std::int64_t days_from_civil(int year, int month, int day) noexcept {
  // Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  year -= month <= 2;
  const std::int64_t era = (year >= 0 ? year : year - 399) / 400;
  const auto yoe = static_cast<unsigned>(year - static_cast<int>(era) * 400);
  const auto doy = static_cast<unsigned>(
      (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

CivilDateTime civil_from_days(std::int64_t days) noexcept {
  days += 719468;
  const std::int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const auto doe = static_cast<unsigned>(days - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  CivilDateTime c;
  c.year = static_cast<int>(y + (m <= 2));
  c.month = static_cast<int>(m);
  c.day = static_cast<int>(d);
  return c;
}

TimePoint from_civil_utc(const CivilDateTime& c) noexcept {
  return days_from_civil(c.year, c.month, c.day) * kSecondsPerDay +
         c.hour * kSecondsPerHour + c.minute * kSecondsPerMinute + c.second;
}

CivilDateTime to_civil_utc(TimePoint t) noexcept {
  std::int64_t days = t / kSecondsPerDay;
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) {
    rem += kSecondsPerDay;
    --days;
  }
  CivilDateTime c = civil_from_days(days);
  c.hour = static_cast<int>(rem / kSecondsPerHour);
  c.minute = static_cast<int>((rem / kSecondsPerMinute) % 60);
  c.second = static_cast<int>(rem % 60);
  return c;
}

int weekday_from_days(std::int64_t days) noexcept {
  // 1970-01-01 was a Thursday (weekday 4).
  const std::int64_t wd = (days + 4) % 7;
  return static_cast<int>(wd >= 0 ? wd : wd + 7);
}

bool is_leap_year(int year) noexcept {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

namespace {

/// Day count of the last Sunday of `month` in `year`.
std::int64_t last_sunday(int year, int month) noexcept {
  // Last day of the month: day before the 1st of next month.
  const int next_month = month == 12 ? 1 : month + 1;
  const int next_year = month == 12 ? year + 1 : year;
  const std::int64_t last_day = days_from_civil(next_year, next_month, 1) - 1;
  return last_day - weekday_from_days(last_day);
}

/// DST runs from 01:00 UTC on the last Sunday of March to 01:00 UTC on the
/// last Sunday of October.
TimePoint dst_start_of(int year) noexcept {
  return last_sunday(year, 3) * kSecondsPerDay + 1 * kSecondsPerHour;
}
TimePoint dst_end_of(int year) noexcept {
  return last_sunday(year, 10) * kSecondsPerDay + 1 * kSecondsPerHour;
}

}  // namespace

std::int64_t BarcelonaClock::utc_offset(TimePoint t) noexcept {
  const int year = to_civil_utc(t).year;
  const bool dst = t >= dst_start_of(year) && t < dst_end_of(year);
  return dst ? 2 * kSecondsPerHour : kSecondsPerHour;
}

CivilDateTime BarcelonaClock::to_local(TimePoint t) noexcept {
  return to_civil_utc(t + utc_offset(t));
}

double BarcelonaClock::local_hour(TimePoint t) noexcept {
  std::int64_t local = t + utc_offset(t);
  std::int64_t sec_of_day = local % kSecondsPerDay;
  if (sec_of_day < 0) sec_of_day += kSecondsPerDay;
  return static_cast<double>(sec_of_day) / kSecondsPerHour;
}

std::int64_t BarcelonaClock::local_day_index(TimePoint t) noexcept {
  return day_of_local(t + utc_offset(t));
}

BarcelonaYear BarcelonaYear::containing(TimePoint t) noexcept {
  const int year = to_civil_utc(t).year;
  return {days_from_civil(year, 1, 1) * kSecondsPerDay,
          days_from_civil(year + 1, 1, 1) * kSecondsPerDay, dst_start_of(year),
          dst_end_of(year)};
}

std::string format_iso8601(TimePoint t) {
  const CivilDateTime c = to_civil_utc(t);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d", c.year,
                c.month, c.day, c.hour, c.minute, c.second);
  return buf;
}

TimePoint parse_iso8601(const std::string& text) {
  CivilDateTime c;
  char sep = '\0';
  const int got =
      std::sscanf(text.c_str(), "%d-%d-%d%c%d:%d:%d", &c.year, &c.month,
                  &c.day, &sep, &c.hour, &c.minute, &c.second);
  UNP_REQUIRE(got == 7 && (sep == 'T' || sep == ' '));
  UNP_REQUIRE(c.month >= 1 && c.month <= 12);
  UNP_REQUIRE(c.day >= 1 && c.day <= 31);
  UNP_REQUIRE(c.hour >= 0 && c.hour <= 23);
  UNP_REQUIRE(c.minute >= 0 && c.minute <= 59);
  UNP_REQUIRE(c.second >= 0 && c.second <= 60);
  return from_civil_utc(c);
}

}  // namespace unp
