#include "common/civil_time.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/require.hpp"

namespace unp {
namespace {

TEST(CivilTime, EpochRoundTrip) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
  const CivilDateTime c = civil_from_days(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
}

TEST(CivilTime, KnownDates) {
  EXPECT_EQ(days_from_civil(2015, 2, 1), 16467);
  EXPECT_EQ(days_from_civil(2016, 2, 29), 16860);  // leap day exists
  EXPECT_EQ(days_from_civil(2000, 3, 1), 11017);
}

TEST(CivilTime, RoundTripAllCampaignDays) {
  for (std::int64_t d = days_from_civil(2015, 1, 1);
       d <= days_from_civil(2016, 12, 31); ++d) {
    const CivilDateTime c = civil_from_days(d);
    EXPECT_EQ(days_from_civil(c.year, c.month, c.day), d);
  }
}

TEST(CivilTime, ToFromCivilUtc) {
  const CivilDateTime c{2015, 6, 15, 13, 45, 12};
  EXPECT_EQ(to_civil_utc(from_civil_utc(c)), c);
}

TEST(CivilTime, WeekdayKnownValues) {
  EXPECT_EQ(weekday_from_days(days_from_civil(1970, 1, 1)), 4);   // Thursday
  EXPECT_EQ(weekday_from_days(days_from_civil(2015, 2, 1)), 0);   // Sunday
  EXPECT_EQ(weekday_from_days(days_from_civil(2016, 2, 29)), 1);  // Monday
}

TEST(CivilTime, LeapYears) {
  EXPECT_TRUE(is_leap_year(2016));
  EXPECT_TRUE(is_leap_year(2000));
  EXPECT_FALSE(is_leap_year(2015));
  EXPECT_FALSE(is_leap_year(1900));
}

TEST(BarcelonaClock, WinterIsCet) {
  const TimePoint jan = from_civil_utc({2015, 1, 15, 12, 0, 0});
  EXPECT_EQ(BarcelonaClock::utc_offset(jan), kSecondsPerHour);
  EXPECT_EQ(BarcelonaClock::to_local(jan).hour, 13);
}

TEST(BarcelonaClock, SummerIsCest) {
  const TimePoint jul = from_civil_utc({2015, 7, 15, 12, 0, 0});
  EXPECT_EQ(BarcelonaClock::utc_offset(jul), 2 * kSecondsPerHour);
  EXPECT_EQ(BarcelonaClock::to_local(jul).hour, 14);
}

TEST(BarcelonaClock, DstTransition2015) {
  // DST 2015 started on Sunday March 29 at 01:00 UTC.
  const TimePoint before = from_civil_utc({2015, 3, 29, 0, 59, 59});
  const TimePoint after = from_civil_utc({2015, 3, 29, 1, 0, 0});
  EXPECT_EQ(BarcelonaClock::utc_offset(before), kSecondsPerHour);
  EXPECT_EQ(BarcelonaClock::utc_offset(after), 2 * kSecondsPerHour);
  // ...and ended on Sunday October 25 at 01:00 UTC.
  const TimePoint oct_before = from_civil_utc({2015, 10, 25, 0, 59, 59});
  const TimePoint oct_after = from_civil_utc({2015, 10, 25, 1, 0, 0});
  EXPECT_EQ(BarcelonaClock::utc_offset(oct_before), 2 * kSecondsPerHour);
  EXPECT_EQ(BarcelonaClock::utc_offset(oct_after), kSecondsPerHour);
}

TEST(BarcelonaYear, AnswersTheClockOffsetsAndDays) {
  // Every 37 minutes from mid-2014 to mid-2017, plus each second around
  // the 2015 switches and the 2015 -> 2016 boundary.
  std::vector<TimePoint> instants;
  for (TimePoint t = from_civil_utc({2014, 6, 1, 0, 0, 0});
       t < from_civil_utc({2017, 6, 1, 0, 0, 0}); t += 37 * kSecondsPerMinute)
    instants.push_back(t);
  for (const CivilDateTime c : {CivilDateTime{2015, 3, 29, 1, 0, 0},
                                CivilDateTime{2015, 10, 25, 1, 0, 0},
                                CivilDateTime{2016, 1, 1, 0, 0, 0}}) {
    const TimePoint at = from_civil_utc(c);
    for (TimePoint t = at - 3 * kSecondsPerHour; t < at + 3 * kSecondsPerHour;
         ++t)
      instants.push_back(t);
  }
  BarcelonaYear year = BarcelonaYear::containing(instants.front());
  for (const TimePoint t : instants) {
    if (!year.contains(t)) year = BarcelonaYear::containing(t);
    ASSERT_TRUE(year.contains(t)) << t;
    ASSERT_EQ(year.utc_offset(t), BarcelonaClock::utc_offset(t)) << t;
    ASSERT_EQ(year.local_day_index(t), BarcelonaClock::local_day_index(t)) << t;
  }
  const BarcelonaYear y2015 =
      BarcelonaYear::containing(from_civil_utc({2015, 7, 1, 0, 0, 0}));
  EXPECT_EQ(y2015.begin, from_civil_utc({2015, 1, 1, 0, 0, 0}));
  EXPECT_EQ(y2015.end, from_civil_utc({2016, 1, 1, 0, 0, 0}));
  EXPECT_EQ(y2015.dst_start, from_civil_utc({2015, 3, 29, 1, 0, 0}));
  EXPECT_EQ(y2015.dst_end, from_civil_utc({2015, 10, 25, 1, 0, 0}));
}

TEST(BarcelonaClock, LocalHourWrapsMidnight) {
  const TimePoint t = from_civil_utc({2015, 1, 15, 23, 30, 0});  // 00:30 local
  EXPECT_NEAR(BarcelonaClock::local_hour(t), 0.5, 1e-9);
  EXPECT_EQ(BarcelonaClock::local_day_index(t),
            days_from_civil(2015, 1, 16));
}

TEST(CampaignWindow, ThirteenMonths) {
  const CampaignWindow w;
  EXPECT_EQ(w.duration_days(), 394);  // Feb 2015 through Feb 2016 inclusive
  EXPECT_TRUE(w.contains(from_civil_utc({2015, 8, 1, 0, 0, 0})));
  EXPECT_FALSE(w.contains(from_civil_utc({2016, 3, 1, 0, 0, 0})));
}

TEST(CampaignWindow, DayOfCampaign) {
  const CampaignWindow w;
  EXPECT_EQ(w.day_of_campaign(w.start), 0);
  EXPECT_EQ(w.day_of_campaign(from_civil_utc({2015, 2, 2, 10, 0, 0})), 1);
}

TEST(Iso8601, RoundTrip) {
  const TimePoint t = from_civil_utc({2015, 11, 3, 7, 8, 9});
  EXPECT_EQ(format_iso8601(t), "2015-11-03T07:08:09");
  EXPECT_EQ(parse_iso8601("2015-11-03T07:08:09"), t);
}

TEST(Iso8601, RejectsMalformed) {
  EXPECT_THROW((void)parse_iso8601("not a date"), ContractViolation);
  EXPECT_THROW((void)parse_iso8601("2015-13-01T00:00:00"), ContractViolation);
  EXPECT_THROW((void)parse_iso8601("2015-01-01"), ContractViolation);
}

}  // namespace
}  // namespace unp
