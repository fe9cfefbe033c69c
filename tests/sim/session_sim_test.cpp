#include "sim/session_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::sim {
namespace {

using faults::FaultEvent;
using faults::Mechanism;
using faults::Persistence;

const TimePoint kT0 = from_civil_utc({2015, 5, 1, 0, 0, 0});

sched::ScanPlan one_session(TimePoint start, std::int64_t seconds,
                            scanner::PatternKind pattern =
                                scanner::PatternKind::kAlternating,
                            std::int64_t period = 100) {
  sched::ScanPlan plan;
  sched::ScanSession s;
  s.window = {start, start + seconds};
  s.pattern = pattern;
  s.allocated_bytes = cluster::kScannableBytes;
  s.pass_period_s = period;
  plan.sessions.push_back(s);
  return plan;
}

FaultEvent transient_at(TimePoint t, std::uint64_t word, Word mask,
                        Word stuck = 0) {
  FaultEvent ev;
  ev.time = t;
  ev.node = {4, 4};
  ev.mechanism = Mechanism::kBackgroundTransient;
  ev.persistence = Persistence::kTransient;
  ev.words.push_back({word, dram::WordCorruption{mask, stuck}});
  return ev;
}

SessionSimConfig config_with_sensors_always_on() {
  SessionSimConfig config;
  config.sensors_online = 0;
  return config;
}

TEST(SessionSim, StartAndEndRecords) {
  const auto plan = one_session(kT0, 1000);
  const auto log = simulate_node(SessionSimConfig{}, {4, 4}, plan, {}, false, 1);
  ASSERT_EQ(log.starts().size(), 1u);
  ASSERT_EQ(log.ends().size(), 1u);
  EXPECT_EQ(log.starts()[0].time, kT0);
  EXPECT_EQ(log.ends()[0].time, kT0 + 1000);
  EXPECT_EQ(log.starts()[0].allocated_bytes, cluster::kScannableBytes);
}

TEST(SessionSim, EndLostOmitsEnd) {
  auto plan = one_session(kT0, 1000);
  plan.sessions[0].end_lost = true;
  const auto log = simulate_node(SessionSimConfig{}, {4, 4}, plan, {}, false, 1);
  EXPECT_EQ(log.starts().size(), 1u);
  EXPECT_TRUE(log.ends().empty());
}

TEST(SessionSim, AllocFailuresLogged) {
  auto plan = one_session(kT0, 1000);
  plan.failures.push_back({kT0 + 5000});
  const auto log = simulate_node(SessionSimConfig{}, {4, 4}, plan, {}, false, 1);
  ASSERT_EQ(log.alloc_fails().size(), 1u);
  EXPECT_EQ(log.alloc_fails()[0].time, kT0 + 5000);
}

TEST(SessionSim, DischargeDetectedAtNextCheckOfVisiblePhase) {
  // Fault at t0+150 corrupts the value written at iteration 1 (0xFFFFFFFF,
  // stored during [100, 200)); the check at t0+200 sees it.
  const auto plan = one_session(kT0, 1000);
  const auto ev = transient_at(kT0 + 150, 42, 0x00000011u);
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  ASSERT_EQ(log.error_runs().size(), 1u);
  const auto& err = log.error_runs()[0].first;
  EXPECT_EQ(err.time, kT0 + 200);
  EXPECT_EQ(err.expected, 0xFFFFFFFFu);
  EXPECT_EQ(err.actual, 0xFFFFFFEEu);
  EXPECT_EQ(err.virtual_address, 42u * 4);
}

TEST(SessionSim, DischargeDuringZeroPhaseInvisible) {
  // Fault at t0+50: iteration 0 wrote 0x00000000; discharging cells that
  // hold 0 changes nothing, and the next write repairs them silently.
  const auto plan = one_session(kT0, 1000);
  const auto ev = transient_at(kT0 + 50, 42, 0x00000011u);
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  EXPECT_TRUE(log.error_runs().empty());
}

TEST(SessionSim, ChargeGainVisibleInZeroPhase) {
  const auto plan = one_session(kT0, 1000);
  const auto ev = transient_at(kT0 + 50, 42, 0x1u, 0x1u);
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  ASSERT_EQ(log.error_runs().size(), 1u);
  EXPECT_EQ(log.error_runs()[0].first.expected, 0x00000000u);
  EXPECT_EQ(log.error_runs()[0].first.actual, 0x00000001u);
  EXPECT_EQ(log.error_runs()[0].first.time, kT0 + 100);
}

TEST(SessionSim, EventAfterLastCheckIsMissed) {
  const auto plan = one_session(kT0, 1000);  // checks at +100..+900
  const auto ev = transient_at(kT0 + 950, 42, 0xFFu);
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  EXPECT_TRUE(log.error_runs().empty());
}

TEST(SessionSim, EventOutsideSessionsIsMissed) {
  const auto plan = one_session(kT0, 1000);
  const auto ev = transient_at(kT0 + 100000, 42, 0xFFu);
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  EXPECT_TRUE(log.error_runs().empty());
}

TEST(SessionSim, MultiWordEventSharesTimestamp) {
  const auto plan = one_session(kT0, 1000);
  FaultEvent ev = transient_at(kT0 + 150, 10, 0x1u);
  ev.words.push_back({20, dram::WordCorruption{0x2u, 0}});
  ev.words.push_back({30, dram::WordCorruption{0x4u, 0}});
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  ASSERT_EQ(log.error_runs().size(), 3u);
  for (const auto& run : log.error_runs()) {
    EXPECT_EQ(run.first.time, kT0 + 200);  // the simultaneity signature
  }
}

TEST(SessionSim, StuckFaultProducesRunEveryOtherCheck) {
  // Session of 2000 s, checks at +100..+1900 (19 checks).  A stuck-at-0
  // cell from the session start is visible at even checks (expect
  // 0xFFFFFFFF): 200, 400, ..., 1800 -> 9 logs, period 200.
  const auto plan = one_session(kT0, 2000);
  FaultEvent ev;
  ev.time = kT0;
  ev.node = {4, 4};
  ev.persistence = Persistence::kStuck;
  ev.active_until = kT0 + 100000;
  ev.words.push_back({7, dram::CellLeakModel::all_discharge(0x1u)});
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  ASSERT_EQ(log.error_runs().size(), 1u);
  const auto& run = log.error_runs()[0];
  EXPECT_EQ(run.first.time, kT0 + 200);
  EXPECT_EQ(run.period_s, 200);
  EXPECT_EQ(run.count, 9u);
  EXPECT_EQ(run.first.expected, 0xFFFFFFFFu);
  EXPECT_EQ(run.first.actual, 0xFFFFFFFEu);
}

TEST(SessionSim, StuckMixedDirectionsYieldTwoPhaseRuns) {
  // One cell stuck at 0 and one stuck at 1 in the same word: both phases
  // are corrupted, so two interleaved runs appear.
  const auto plan = one_session(kT0, 2000);
  FaultEvent ev;
  ev.time = kT0;
  ev.node = {4, 4};
  ev.persistence = Persistence::kStuck;
  ev.active_until = kT0 + 100000;
  ev.words.push_back({7, dram::WordCorruption{0x3u, 0x2u}});
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  ASSERT_EQ(log.error_runs().size(), 2u);
  std::uint64_t total = 0;
  for (const auto& run : log.error_runs()) total += run.count;
  EXPECT_EQ(total, 19u);  // every check reports something
}

TEST(SessionSim, StuckFaultEndsAtActiveUntil) {
  const auto plan = one_session(kT0, 2000);
  FaultEvent ev;
  ev.time = kT0;
  ev.node = {4, 4};
  ev.persistence = Persistence::kStuck;
  ev.active_until = kT0 + 500;  // heals mid-session
  ev.words.push_back({7, dram::CellLeakModel::all_discharge(0x1u)});
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  ASSERT_EQ(log.error_runs().size(), 1u);
  EXPECT_EQ(log.error_runs()[0].count, 2u);  // checks at 200 and 400 only
}

TEST(SessionSim, StuckFaultSpansSessions) {
  sched::ScanPlan plan = one_session(kT0, 1000);
  plan.sessions.push_back(plan.sessions[0]);
  plan.sessions[1].window = {kT0 + 5000, kT0 + 6000};
  FaultEvent ev;
  ev.time = kT0;
  ev.node = {4, 4};
  ev.persistence = Persistence::kStuck;
  ev.active_until = kT0 + 100000;
  ev.words.push_back({7, dram::CellLeakModel::all_discharge(0x1u)});
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  EXPECT_EQ(log.error_runs().size(), 2u);  // one run per session
}

TEST(SessionSim, CounterSessionDetectsCollidingValues) {
  // Counter pattern with exact per-check evaluation: a stuck-at-0 low bit
  // collides with every odd counter value.
  const auto plan =
      one_session(kT0, 1000, scanner::PatternKind::kCounter);
  FaultEvent ev;
  ev.time = kT0;
  ev.node = {4, 4};
  ev.persistence = Persistence::kStuck;
  ev.active_until = kT0 + 100000;
  ev.words.push_back({7, dram::CellLeakModel::all_discharge(0x1u)});
  const auto log =
      simulate_node(SessionSimConfig{}, {4, 4}, plan, {ev}, false, 1);
  // Checks i=1..9 expect counter values 1..9; odd values 1,3,5,7,9 collide.
  ASSERT_EQ(log.error_runs().size(), 5u);
  EXPECT_EQ(log.error_runs()[0].first.expected, 0x1u);
  EXPECT_EQ(log.error_runs()[0].first.actual, 0x0u);
}

TEST(SessionSim, TemperatureOnlyAfterSensorsOnline) {
  SessionSimConfig config;  // sensors online April 2015
  const TimePoint before = from_civil_utc({2015, 3, 1, 0, 0, 0});
  const TimePoint after = from_civil_utc({2015, 6, 1, 0, 0, 0});
  const auto plan_before = one_session(before, 1000);
  const auto plan_after = one_session(after, 1000);
  const auto log_before =
      simulate_node(config, {4, 4}, plan_before, {}, false, 1);
  const auto log_after = simulate_node(config, {4, 4}, plan_after, {}, false, 1);
  EXPECT_FALSE(telemetry::has_temperature(log_before.starts()[0].temperature_c));
  EXPECT_TRUE(telemetry::has_temperature(log_after.starts()[0].temperature_c));
}

TEST(SessionSim, OverheatingNodesRunHot) {
  const auto config = config_with_sensors_always_on();
  const auto plan = one_session(kT0, 1000);
  const auto hot = simulate_node(config, {4, 12}, plan, {}, true, 1);
  const auto cool = simulate_node(config, {4, 4}, plan, {}, false, 1);
  EXPECT_GT(hot.starts()[0].temperature_c,
            cool.starts()[0].temperature_c + 15.0);
}

/// One session's error runs in the shapes simulate_node emits them, each
/// tagged with a unique address so a permuted tie shows: transients in check
/// order with ties, alternating stuck faults as phase pairs one check apart,
/// counter stuck faults as one run per check per word (a words x checks
/// block, the pathological node's shape), long counter runs, and optionally
/// runs off the check grid: between checks, before the window, past its end.
void emit_session_runs(const sched::ScanSession& s, bool off_grid,
                       RngStream& rng, std::uint64_t& tag,
                       telemetry::NodeLog& log) {
  const std::int64_t p = s.pass_period_s;
  const auto last = static_cast<std::int64_t>(s.iterations()) - 1;
  ASSERT_GE(last, 2);
  const auto at = [&](std::int64_t i) { return s.window.start + i * p; };
  const auto run = [&](TimePoint t, std::int64_t period, std::uint64_t count) {
    telemetry::ErrorRun r;
    r.first.time = t;
    r.first.virtual_address = tag++;
    r.period_s = count > 1 ? period : 0;
    r.count = count;
    log.add_error_run(r);
  };
  const auto check = [&] { return rng.uniform_int(1, last); };

  std::int64_t i = 1;
  for (std::uint64_t k = rng.uniform_u64(6); k > 0; --k) {
    i = std::min(last, i + rng.uniform_int(0, 3));  // ties on purpose
    run(at(i), 0, 1);
  }
  for (std::uint64_t f = rng.uniform_u64(4); f > 0; --f) {
    const std::int64_t first = check();
    const auto words = 1 + rng.uniform_u64(4);
    if (s.pattern == scanner::PatternKind::kAlternating) {
      for (std::uint64_t w = 0; w < words; ++w) {
        if (rng.bernoulli(0.7)) run(at(first), 2 * p, 1 + rng.uniform_u64(9));
        if (rng.bernoulli(0.7) && first < last)
          run(at(first + 1), 2 * p, 1 + rng.uniform_u64(9));
      }
    } else if (rng.bernoulli(0.5)) {
      const std::int64_t to = std::min(last, first + rng.uniform_int(0, 5));
      for (std::uint64_t w = 0; w < words; ++w) {
        for (std::int64_t c = first; c <= to; ++c) {
          if (rng.bernoulli(0.8)) run(at(c), 0, 1);
        }
      }
    } else {
      for (std::uint64_t w = 0; w < words; ++w)
        run(at(first), p, 2 + rng.uniform_u64(50));
    }
  }
  if (off_grid) {
    run(at(check()) + rng.uniform_int(1, p - 1), 0, 1);
    if (rng.bernoulli(0.3)) run(s.window.start - rng.uniform_int(0, 2 * p), 0, 1);
    if (rng.bernoulli(0.3)) run(s.window.end + rng.uniform_int(0, 2 * p), 0, 1);
    if (rng.bernoulli(0.5)) run(at(check()), 0, 1);
  }
}

/// One randomized node's plan: 1-4 sessions of random pass period, length
/// and pattern, separated by random gaps.
std::vector<sched::ScanSession> random_sessions(RngStream& rng) {
  std::vector<sched::ScanSession> sessions;
  TimePoint t = kT0;
  for (std::uint64_t k = 1 + rng.uniform_u64(4); k > 0; --k) {
    sched::ScanSession s;
    s.pass_period_s = rng.uniform_int(2, 90);
    s.window = {t, t + s.pass_period_s * rng.uniform_int(4, 60) +
                       rng.uniform_int(0, s.pass_period_s - 1)};
    s.pattern = rng.bernoulli(0.5) ? scanner::PatternKind::kCounter
                                   : scanner::PatternKind::kAlternating;
    sessions.push_back(s);
    t = s.window.end + rng.uniform_int(0, 200);
  }
  return sessions;
}

/// `count` random fault events over [from, to): transients, and stuck
/// faults healing anywhere, each on 1-3 words with random masks.
std::vector<FaultEvent> random_events(RngStream& rng, std::uint64_t count,
                                      TimePoint from, TimePoint to) {
  std::vector<FaultEvent> events;
  for (; count > 0; --count) {
    FaultEvent ev;
    ev.time = rng.uniform_int(from, to);
    ev.node = {4, 4};
    if (rng.bernoulli(0.4)) {
      ev.persistence = Persistence::kStuck;
      ev.active_until = ev.time + rng.uniform_int(1, to - from);
    }
    for (std::uint64_t w = 1 + rng.uniform_u64(3); w > 0; --w) {
      Word mask = Word{1} << rng.uniform_u64(32);
      if (rng.bernoulli(0.5)) mask |= static_cast<Word>(rng.next_u64());
      ev.words.push_back(
          {rng.uniform_u64(1 << 20),
           dram::WordCorruption{mask, static_cast<Word>(rng.next_u64())}});
    }
    events.push_back(std::move(ev));
  }
  return events;
}

TEST(SessionSim, CountNodeRunsEqualsEmittedRuns) {
  // The counting walk must predict exactly the runs the emitting walk
  // appends, on 300 randomized nodes: transients inside, between and
  // outside sessions, stuck faults healing and starting anywhere, words
  // visible in one phase, both or neither, and counter runs on both sides
  // of counter_exact_limit.  A fresh log ends with exactly that capacity,
  // and the per-session tallies add up to its runs and to its records that
  // carry a temperature.
  RngStream rng(2025);
  SessionSimConfig config;
  config.counter_exact_limit = 12;
  SessionSimArena arena;
  std::vector<SessionTally> tallies;
  std::size_t total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    sched::ScanPlan plan;
    plan.sessions = random_sessions(rng);
    if (rng.bernoulli(0.3)) plan.sessions.back().end_lost = true;
    const TimePoint from = plan.sessions.front().window.start - 300;
    const TimePoint to = plan.sessions.back().window.end + 300;
    // Sensors come online halfway through the node's sessions.
    config.sensors_online = from + (to - from) / 2;

    const std::vector<FaultEvent> events =
        random_events(rng, rng.uniform_u64(12), from, to);
    std::vector<std::uint32_t> indices(events.size());
    for (std::uint32_t i = 0; i < indices.size(); ++i) indices[i] = i;

    const std::size_t runs =
        count_node_runs(config, plan, events, indices, arena, tallies);
    telemetry::NodeLog fresh;
    simulate_node_shared_into(config, {4, 4}, plan, false, 7, events, indices,
                              runs, arena, fresh);
    ASSERT_EQ(fresh.error_runs().size(), runs) << "trial " << trial;
    EXPECT_EQ(fresh.error_run_capacity(), runs) << "trial " << trial;
    EXPECT_EQ(simulate_node(config, {4, 4}, plan, events, false, 7).error_runs(),
              fresh.error_runs())
        << "trial " << trial;
    ASSERT_EQ(tallies.size(), plan.sessions.size());
    std::size_t tallied_runs = 0;
    std::size_t sites = 0;
    for (const SessionTally& tally : tallies) {
      tallied_runs += tally.runs;
      sites += tally.temperature_sites;
    }
    std::size_t temperatures = 0;
    const auto count_temperature = [&](double celsius) {
      temperatures += telemetry::has_temperature(celsius) ? 1u : 0u;
    };
    for (const auto& r : fresh.starts()) count_temperature(r.temperature_c);
    for (const auto& r : fresh.ends()) count_temperature(r.temperature_c);
    for (const auto& r : fresh.error_runs())
      count_temperature(r.first.temperature_c);
    EXPECT_EQ(tallied_runs, runs) << "trial " << trial;
    EXPECT_EQ(sites, temperatures) << "trial " << trial;
    total += runs;
  }
  EXPECT_GT(total, 2000u);
}

TEST(SessionSim, SplitNodeEqualsTheWholeNode) {
  // A node simulated as chunks (NodeSplit) must give the body, sessions,
  // counts and decoded log of the whole node, temperatures included: a
  // chunk that read the noise sequence from a wrong offset shows only in
  // the temperature bits.  Randomized nodes cover sessions before, after
  // and across sensors_online, both patterns, counter runs on both sides
  // of counter_exact_limit, lost ENDs, alloc failures and sessions with no
  // runs, split 1-8 ways (more ways than sessions, and cuts inside heavy
  // sessions, included).  Chunks run concurrently on a pool, in no fixed
  // order.
  RngStream rng(2026);
  SessionSimConfig config;
  config.counter_exact_limit = 12;
  ThreadPool pool(4);
  SessionSimArena arena;
  std::size_t inside_cuts = 0;
  std::size_t fewer_chunks = 0;
  std::size_t hot_runs = 0;
  for (int trial = 0; trial < 120; ++trial) {
    sched::ScanPlan plan;
    plan.sessions = random_sessions(rng);
    for (auto& session : plan.sessions) session.end_lost = rng.bernoulli(0.25);
    const TimePoint from = plan.sessions.front().window.start - 300;
    const TimePoint to = plan.sessions.back().window.end + 300;
    for (std::uint64_t k = rng.uniform_u64(3); k > 0; --k)
      plan.failures.push_back({rng.uniform_int(from, to)});
    std::sort(plan.failures.begin(), plan.failures.end(),
              [](const auto& a, const auto& b) { return a.time < b.time; });
    // Sensors online before, inside or after the node's sessions.
    config.sensors_online = rng.uniform_int(from - 1000, to + 1000);
    const std::vector<FaultEvent> events =
        random_events(rng, rng.uniform_u64(16), from, to);
    std::vector<std::uint32_t> indices(events.size());
    for (std::uint32_t i = 0; i < indices.size(); ++i) indices[i] = i;
    const cluster::NodeId node{4, 4};
    const bool hot = rng.bernoulli(0.3);
    const std::uint64_t seed = 9 + static_cast<std::uint64_t>(trial);

    const telemetry::NodeLog whole =
        simulate_node(config, node, plan, events, hot, seed);
    std::string bytes;
    const std::size_t runs_at = telemetry::encode_node_log_into(whole, bytes);
    std::vector<SessionTally> tallies;
    ASSERT_EQ(count_node_runs(config, plan, events, indices, arena, tallies),
              whole.error_runs().size());
    ASSERT_EQ(tallies.size(), plan.sessions.size());
    for (const auto& run : whole.error_runs())
      hot_runs += telemetry::has_temperature(run.first.temperature_c) ? 1u : 0u;

    for (std::size_t ways = 1; ways <= 8; ++ways) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " ways " << ways);
      NodeSplit split(config, node, plan, hot, seed, events, indices, tallies,
                      ways);
      ASSERT_GE(split.chunks(), 1u);
      ASSERT_LE(split.chunks(), ways);
      fewer_chunks += split.chunks() < ways ? 1u : 0u;
      // More chunks than sessions: some session was cut at a check.
      inside_cuts += split.chunks() > plan.sessions.size() ? 1u : 0u;
      std::vector<SessionSimArena> arenas(split.chunks());
      std::atomic<int> completed{0};
      pool.parallel_for(split.chunks(), [&](std::size_t k) {
        const std::size_t chunk = split.chunks() - 1 - k;
        if (split.run_chunk(chunk, arenas[chunk])) ++completed;
      });
      ASSERT_EQ(completed.load(), 1);
      telemetry::NodeBody body = split.take_body();
      ASSERT_TRUE(body.bytes == bytes);
      EXPECT_EQ(body.runs_at, runs_at);
      EXPECT_EQ(body.runs, whole.error_runs().size());
      EXPECT_EQ(body.raw, whole.raw_error_count());
      EXPECT_EQ(body.sessions.starts(), whole.starts());
      EXPECT_EQ(body.sessions.ends(), whole.ends());
      EXPECT_EQ(body.sessions.alloc_fails(), whole.alloc_fails());
      EXPECT_TRUE(body.sessions.error_runs().empty());

      telemetry::EncodedNodeLog frame(node, std::move(body));
      EXPECT_EQ(frame.error_run_count(), whole.error_runs().size());
      EXPECT_EQ(frame.raw_error_count(), whole.raw_error_count());
      EXPECT_EQ(frame.sessions().starts(), whole.starts());
      EXPECT_FALSE(frame.runs_decoded());
      const telemetry::NodeLog& log = frame.log();
      EXPECT_EQ(log.starts(), whole.starts());
      EXPECT_EQ(log.ends(), whole.ends());
      EXPECT_EQ(log.alloc_fails(), whole.alloc_fails());
      EXPECT_EQ(log.error_runs(), whole.error_runs());
      EXPECT_TRUE(frame.bytes() == bytes);
    }
  }
  EXPECT_GT(inside_cuts, 50u);
  EXPECT_GT(fewer_chunks, 50u);
  EXPECT_GT(hot_runs, 500u);
}

TEST(SessionSim, CheckOrderThenSortByTimeEqualsStableSortOracle) {
  // The per-session counting sort by check index, then the node-wide
  // sort_by_time guard, must give the exact permutation std::stable_sort by
  // time gives the emission order: ties, off-grid runs and runs that stray
  // into a neighbouring session included.
  RngStream rng(2024);
  std::uint64_t tag = 0;
  int off_grid_nodes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<sched::ScanSession> sessions = random_sessions(rng);

    telemetry::NodeLog log;
    SessionSimArena arena;
    bool off_grid_node = false;
    for (const sched::ScanSession& s : sessions) {
      const std::size_t begin = log.error_runs().size();
      const bool off_grid = trial == 0 || rng.bernoulli(0.2);
      off_grid_node |= off_grid;
      emit_session_runs(s, off_grid, rng, tag, log);
      order_session_runs(s, log.error_runs_from(begin), arena);
      // Each segment leaves in check order: sorted unless it left the grid.
      const auto seg = log.error_runs_from(begin);
      if (!off_grid) {
        EXPECT_TRUE(std::is_sorted(
            seg.begin(), seg.end(), [](const auto& a, const auto& b) {
              return a.first.time < b.first.time;
            }));
      }
    }
    off_grid_nodes += off_grid_node ? 1 : 0;

    // The oracle: the same runs back in emission (tag) order, stable-sorted.
    std::vector<telemetry::ErrorRun> oracle = log.error_runs();
    std::sort(oracle.begin(), oracle.end(), [](const auto& a, const auto& b) {
      return a.first.virtual_address < b.first.virtual_address;
    });
    std::stable_sort(oracle.begin(), oracle.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.time < b.first.time;
                     });
    log.sort_by_time();
    ASSERT_EQ(log.error_runs(), oracle) << "trial " << trial;
  }
  EXPECT_GT(off_grid_nodes, 30);
}

}  // namespace
}  // namespace unp::sim
