// Property tests for the simulation's equivalence guarantees:
//
//   1. the analytic session simulator (sim/session_sim) must produce exactly
//      the ERROR stream that the real MemoryScanner would when driven
//      pass-by-pass over a fault-injected backend - the test that licenses
//      replacing 10^17 word operations with the analytic model;
//   2. the campaign driver must produce byte-identical archives and
//      accounting for any thread count - the test that licenses running
//      default_campaign() on all hardware threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "scanner/scanner.hpp"
#include "scanner/sim_backend.hpp"
#include "sim/campaign.hpp"
#include "sim/session_sim.hpp"
#include "telemetry/archive_io.hpp"

namespace unp::sim {
namespace {

struct Observation {
  TimePoint time;
  std::uint64_t vaddr;
  Word expected;
  Word actual;

  friend bool operator==(const Observation&, const Observation&) = default;
  friend auto operator<=>(const Observation&, const Observation&) = default;
};

class SessionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionEquivalence, ScannerAndAnalyticModelAgree) {
  const std::uint64_t seed = GetParam();
  RngStream rng(seed);

  const TimePoint t0 = from_civil_utc({2015, 5, 1, 8, 0, 0});
  constexpr std::uint64_t kWords = 1 << 14;

  // Random plan: 2-4 sessions with random lengths/patterns.
  sched::ScanPlan plan;
  TimePoint cursor = t0;
  const auto sessions = 2 + rng.uniform_u64(3);
  for (std::uint64_t s = 0; s < sessions; ++s) {
    sched::ScanSession session;
    session.window = {cursor,
                      cursor + 400 + static_cast<TimePoint>(rng.uniform_u64(3000))};
    session.pattern = rng.bernoulli(0.3) ? scanner::PatternKind::kCounter
                                         : scanner::PatternKind::kAlternating;
    session.allocated_bytes = kWords * sizeof(Word);
    session.pass_period_s = 50 + static_cast<std::int64_t>(rng.uniform_u64(100));
    plan.sessions.push_back(session);
    cursor = session.window.end + static_cast<TimePoint>(rng.uniform_u64(5000));
  }

  // Random transient fault events, mostly inside sessions.
  std::vector<faults::FaultEvent> events;
  const auto fault_count = 10 + rng.uniform_u64(30);
  for (std::uint64_t f = 0; f < fault_count; ++f) {
    faults::FaultEvent ev;
    const auto& session = plan.sessions[rng.uniform_u64(plan.sessions.size())];
    ev.time = session.window.start +
              static_cast<TimePoint>(rng.uniform_u64(
                  static_cast<std::uint64_t>(session.window.seconds() + 200)));
    ev.node = {4, 4};
    ev.persistence = faults::Persistence::kTransient;
    const auto words = 1 + rng.uniform_u64(3);
    for (std::uint64_t w = 0; w < words; ++w) {
      Word mask = 0;
      const auto bits = 1 + rng.uniform_u64(4);
      for (std::uint64_t b = 0; b < bits; ++b) mask |= 1u << rng.uniform_u64(32);
      const Word stuck = rng.bernoulli(0.85) ? Word{0} : mask;
      ev.words.push_back({rng.uniform_u64(kWords), dram::WordCorruption{mask, stuck}});
    }
    events.push_back(ev);
  }

  // --- Analytic model ---
  SessionSimConfig config;
  config.sensors_online = from_civil_utc({2099, 1, 1, 0, 0, 0});  // no temps
  const telemetry::NodeLog analytic =
      simulate_node(config, {4, 4}, plan, events, false, seed);
  std::vector<Observation> expected_obs;
  for (const auto& run : analytic.error_runs()) {
    for (const auto& rec : run.expand()) {
      expected_obs.push_back(
          {rec.time, rec.virtual_address, rec.expected, rec.actual});
    }
  }

  // --- Real scanner, driven pass-by-pass ---
  std::vector<faults::FaultEvent> sorted = events;
  faults::sort_events(sorted);
  std::vector<Observation> scanner_obs;
  for (const auto& session : plan.sessions) {
    scanner::SimulatedMemoryBackend backend(kWords);
    telemetry::NodeLog log;
    scanner::NodeLogSink sink(log);
    scanner::ManualClock clock(session.window.start);
    scanner::FixedProbe probe(telemetry::kNoTemperature);
    scanner::MemoryScanner scan(backend, sink, clock, probe,
                                {{4, 4}, session.pattern, 0});
    scan.start();
    const std::uint64_t iterations = session.iterations();
    for (std::uint64_t i = 1; i <= iterations; ++i) {
      const TimePoint check_time =
          session.window.start +
          static_cast<TimePoint>(i) * session.pass_period_s;
      if (check_time >= session.window.end) break;
      // Inject every event whose strike time falls before this check and
      // after the previous one.
      const TimePoint window_lo =
          session.window.start +
          static_cast<TimePoint>(i - 1) * session.pass_period_s;
      for (const auto& ev : sorted) {
        if (ev.time >= window_lo && ev.time < check_time &&
            session.window.contains(ev.time)) {
          for (const auto& wf : ev.words) {
            backend.inject_transient(wf.word_index, wf.corruption);
          }
        }
      }
      clock.set(check_time);
      scan.step();
    }
    for (const auto& run : log.error_runs()) {
      scanner_obs.push_back({run.first.time, run.first.virtual_address,
                             run.first.expected, run.first.actual});
    }
  }

  std::sort(expected_obs.begin(), expected_obs.end());
  std::sort(scanner_obs.begin(), scanner_obs.end());
  EXPECT_EQ(expected_obs, scanner_obs) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

// Campaign-level determinism: thread counts {1, 2, 8} must produce
// byte-identical archives (compared through their UNPS streams) and
// identical accounting, including the block-streamed sink emission.
TEST(CampaignThreadEquivalence, ArchivesAndAccountingAreByteIdentical) {
  CampaignConfig config;
  config.seed = 7;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 22, 0, 0, 0});

  const CampaignResult reference = run_campaign(config, 1);
  std::ostringstream reference_bytes(std::ios::binary);
  telemetry::save_archive_stream(reference.archive, reference_bytes);
  EXPECT_GT(reference.archive.total_raw_errors(), 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const CampaignResult other = run_campaign(config, threads);
    std::ostringstream bytes(std::ios::binary);
    telemetry::save_archive_stream(other.archive, bytes);
    EXPECT_TRUE(bytes.view() == reference_bytes.view())
        << threads << " threads";

    ASSERT_EQ(other.summary.accounting.size(), reference.summary.accounting.size());
    for (std::size_t i = 0; i < reference.summary.accounting.size(); ++i) {
      const NodeAccounting& a = reference.summary.accounting[i];
      const NodeAccounting& b = other.summary.accounting[i];
      ASSERT_EQ(a.node, b.node);
      ASSERT_EQ(a.scanned_hours, b.scanned_hours);  // bitwise, not NEAR
      ASSERT_EQ(a.terabyte_hours, b.terabyte_hours);
      ASSERT_EQ(a.sessions, b.sessions);
    }

    ASSERT_EQ(other.summary.ground_truth.size(), reference.summary.ground_truth.size());
    for (std::size_t i = 0; i < reference.summary.ground_truth.size(); ++i) {
      ASSERT_EQ(other.summary.ground_truth[i].time, reference.summary.ground_truth[i].time);
      ASSERT_EQ(other.summary.ground_truth[i].node, reference.summary.ground_truth[i].node);
      ASSERT_EQ(other.summary.ground_truth[i].words, reference.summary.ground_truth[i].words);
    }
  }
}

}  // namespace
}  // namespace unp::sim
