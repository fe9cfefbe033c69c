#include "telemetry/node_log.hpp"

#include <gtest/gtest.h>

namespace unp::telemetry {
namespace {

constexpr std::uint64_t kGiB = 1ULL << 30;

NodeLog make_session_log(TimePoint start, TimePoint end,
                         std::uint64_t bytes = 3 * kGiB) {
  NodeLog log;
  log.add_start({start, {1, 1}, bytes, 30.0});
  log.add_end({end, {1, 1}, 30.0});
  return log;
}

TEST(NodeLog, MonitoredHoursSimpleSession) {
  const NodeLog log = make_session_log(0, 7200);
  EXPECT_DOUBLE_EQ(log.monitored_hours(), 2.0);
}

TEST(NodeLog, MonitoredHoursMultipleSessions) {
  NodeLog log;
  log.add_start({0, {1, 1}, kGiB, 30.0});
  log.add_end({3600, {1, 1}, 30.0});
  log.add_start({10000, {1, 1}, kGiB, 30.0});
  log.add_end({10000 + 7200, {1, 1}, 30.0});
  EXPECT_DOUBLE_EQ(log.monitored_hours(), 3.0);
}

TEST(NodeLog, HardRebootContributesZero) {
  // START followed by another START (END lost): the paper's conservative
  // rule counts zero hours for the first session.
  NodeLog log;
  log.add_start({0, {1, 1}, kGiB, 30.0});
  log.add_start({50000, {1, 1}, kGiB, 30.0});  // reboot: no END in between
  log.add_end({50000 + 3600, {1, 1}, 30.0});
  EXPECT_DOUBLE_EQ(log.monitored_hours(), 1.0);
}

TEST(NodeLog, TrailingStartWithoutEnd) {
  NodeLog log;
  log.add_start({0, {1, 1}, kGiB, 30.0});
  EXPECT_DOUBLE_EQ(log.monitored_hours(), 0.0);
  EXPECT_DOUBLE_EQ(log.terabyte_hours(), 0.0);
}

TEST(NodeLog, TerabyteHoursWeightsAllocation) {
  // 3 GiB for 1 hour = 3/1024 TB-h.
  const NodeLog log = make_session_log(0, 3600, 3 * kGiB);
  EXPECT_NEAR(log.terabyte_hours(), 3.0 / 1024.0, 1e-9);
  // Hours are unchanged by allocation size; TB-h scale with it.
  const NodeLog small = make_session_log(0, 3600, kGiB);
  EXPECT_DOUBLE_EQ(small.monitored_hours(), 1.0);
  EXPECT_NEAR(small.terabyte_hours(), 1.0 / 1024.0, 1e-9);
}

TEST(NodeLog, RawErrorCountSumsRuns) {
  NodeLog log;
  ErrorRecord e;
  e.node = {1, 1};
  log.add_error(e);
  log.add_error_run({e, 150, 999});
  EXPECT_EQ(log.raw_error_count(), 1000u);
}

TEST(NodeLog, SortByTime) {
  NodeLog log;
  ErrorRecord late;
  late.time = 100;
  ErrorRecord early;
  early.time = 10;
  log.add_error(late);
  log.add_error(early);
  log.sort_by_time();
  EXPECT_EQ(log.error_runs()[0].first.time, 10);
}

TEST(CampaignWindow, DefaultsToTheStudy) {
  const CampaignWindow window;
  EXPECT_EQ(window.duration_days(), 394);
}

}  // namespace
}  // namespace unp::telemetry
