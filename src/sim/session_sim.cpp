#include "sim/session_sim.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "scanner/pattern.hpp"

namespace unp::sim {

namespace {

using faults::FaultEvent;
using faults::Persistence;
using scanner::Pattern;
using scanner::PatternKind;
using telemetry::ErrorRecord;
using telemetry::ErrorRun;
using telemetry::NodeLog;

struct TempSampler {
  const SessionSimConfig* config;
  cluster::NodeId node;
  bool overheating;
  RngStream* rng;
  /// Hoisted per-node idle delta: a pure function of the node id, resolved
  /// once here instead of redrawing it for every record's sample.
  double idle_delta_c;

  TempSampler(const SessionSimConfig* cfg, cluster::NodeId n, bool hot,
              RngStream* r)
      : config(cfg),
        node(n),
        overheating(hot),
        rng(r),
        idle_delta_c(cfg->temperature.node_idle_delta_c(
            static_cast<std::uint32_t>(cluster::node_index(n)))) {}

  [[nodiscard]] double at(TimePoint t) const {
    if (t < config->sensors_online) return telemetry::kNoTemperature;
    return config->temperature.sample_with_idle_delta_c(t, idle_delta_c,
                                                        overheating, *rng);
  }
};

ErrorRecord make_error(TimePoint when, cluster::NodeId node,
                       std::uint64_t word_index, Word expected, Word actual,
                       const TempSampler& temp) {
  ErrorRecord r;
  r.time = when;
  r.node = node;
  r.virtual_address = word_index * sizeof(Word);
  r.expected = expected;
  r.actual = actual;
  r.temperature_c = temp.at(when);
  r.physical_page = r.virtual_address >> 12;
  return r;
}

/// Emit the logs of a transient event landing inside `session`.
void simulate_transient(const sched::ScanSession& session, const FaultEvent& ev,
                        cluster::NodeId node, const TempSampler& temp,
                        NodeLog& log) {
  const Pattern pattern(session.pattern);
  const TimePoint start = session.window.start;
  const std::int64_t period = session.pass_period_s;
  // Iteration whose written value the upset corrupts.
  const auto i_prev = static_cast<std::uint64_t>((ev.time - start) / period);
  const std::uint64_t check = i_prev + 1;
  const TimePoint check_time = start + static_cast<std::int64_t>(check) * period;
  if (check_time >= session.window.end) return;  // session ends before the check

  const Word expected = pattern.written_at(i_prev);
  for (const auto& wf : ev.words) {
    const Word observed = wf.corruption.apply(expected);
    if (observed != expected) {
      log.add_error(
          make_error(check_time, node, wf.word_index, expected, observed, temp));
    }
  }
}

/// Emit the run-length logs of a stuck fault over one session.
void simulate_stuck(const sched::ScanSession& session, const FaultEvent& ev,
                    cluster::NodeId node, const SessionSimConfig& config,
                    const TempSampler& temp, NodeLog& log) {
  const Pattern pattern(session.pattern);
  const TimePoint start = session.window.start;
  const std::int64_t period = session.pass_period_s;

  // Checks happen at start + i*period (i >= 1), strictly inside the window,
  // while the fault is active.
  const TimePoint active_from = std::max(ev.time, start);
  const TimePoint active_to = std::min(ev.active_until, session.window.end);
  if (active_to <= active_from) return;

  std::uint64_t first_check =
      static_cast<std::uint64_t>((active_from - start) / period) + 1;
  const auto last_time_limit = active_to - 1;
  if (start + static_cast<std::int64_t>(first_check) * period > last_time_limit)
    return;
  const auto last_check =
      static_cast<std::uint64_t>((last_time_limit - start) / period);
  if (last_check < first_check) return;

  for (const auto& wf : ev.words) {
    if (session.pattern == PatternKind::kAlternating) {
      // Phase-resolved runs: checks with even index expect 0xFFFFFFFF
      // (written at the preceding odd iteration), odd-index checks expect
      // 0x00000000.  Emit one run per visible phase.
      for (int parity = 0; parity <= 1; ++parity) {
        // Check i expects written_at(i-1): even i -> 0xFFFFFFFF (parity 0),
        // odd i -> 0x00000000 (parity 1).
        const Word phase_expected =
            (parity == 0) ? Word{0xFFFFFFFF} : Word{0x00000000};
        const Word observed = wf.corruption.apply(phase_expected);
        if (observed == phase_expected) continue;

        // First check index >= first_check with the right parity
        // (parity 0 -> even index, parity 1 -> odd index).
        std::uint64_t i = first_check;
        if ((i % 2 == 0) != (parity == 0)) ++i;
        if (i > last_check) continue;
        const std::uint64_t count = (last_check - i) / 2 + 1;

        ErrorRun run;
        run.first = make_error(start + static_cast<std::int64_t>(i) * period,
                               node, wf.word_index, phase_expected, observed,
                               temp);
        run.period_s = count > 1 ? 2 * period : 0;
        run.count = count;
        log.add_error_run(run);
      }
    } else {
      // Counter pattern: expected changes every check.
      const std::uint64_t checks = last_check - first_check + 1;
      if (checks <= config.counter_exact_limit) {
        for (std::uint64_t i = first_check; i <= last_check; ++i) {
          const Word expected = pattern.written_at(i - 1);
          const Word observed = wf.corruption.apply(expected);
          if (observed != expected) {
            log.add_error(make_error(start + static_cast<std::int64_t>(i) * period,
                                     node, wf.word_index, expected, observed,
                                     temp));
          }
        }
      } else {
        // Long-run approximation: a discharge fault collides with almost
        // every counter value; represent the stream as one run carrying the
        // first check's context.
        const Word expected = pattern.written_at(first_check - 1);
        const Word observed = wf.corruption.apply(expected);
        if (observed == expected) continue;
        ErrorRun run;
        run.first = make_error(
            start + static_cast<std::int64_t>(first_check) * period, node,
            wf.word_index, expected, observed, temp);
        run.period_s = checks > 1 ? period : 0;
        run.count = checks;
        log.add_error_run(run);
      }
    }
  }
}

}  // namespace

namespace {

/// Shared tail of the simulate_node entry points: `arena.ptrs` holds this
/// node's events (any order) and is sorted in place; everything else is read
/// through it.  Sorting the pointer view yields the event order sort_events
/// gives the values (see sort_event_ptrs), without moving any FaultEvent.
void simulate_node_core(const SessionSimConfig& config, cluster::NodeId node,
                        const sched::ScanPlan& plan, bool overheating,
                        std::uint64_t seed, SessionSimArena& arena,
                        telemetry::NodeLog& out) {
  NodeLog& log = out;
  log.clear();
  log.reserve_starts(plan.sessions.size());
  log.reserve_ends(plan.sessions.size());
  log.reserve_alloc_fails(plan.failures.size());
  RngStream rng(seed, /*stream_id=*/0x5E55,
                static_cast<std::uint64_t>(cluster::node_index(node)));
  const TempSampler temp{&config, node, overheating, &rng};

  faults::sort_event_ptrs(arena.ptrs);

  // A transient belongs to exactly one session; stuck faults (few) are
  // checked against every session they overlap.
  std::vector<const FaultEvent*>& transients = arena.transients;
  std::vector<const FaultEvent*>& stucks = arena.stucks;
  transients.clear();
  stucks.clear();
  transients.reserve(arena.ptrs.size());
  for (const FaultEvent* ev : arena.ptrs) {
    (ev->persistence == Persistence::kTransient ? transients : stucks)
        .push_back(ev);
  }

  for (const auto& failure : plan.failures) {
    log.add_alloc_fail({failure.time, node});
  }

  std::size_t next_transient = 0;
  for (const auto& session : plan.sessions) {
    log.add_start({session.window.start, node, session.allocated_bytes,
                   temp.at(session.window.start)});

    // Transients before this session fell into busy (job-owned) time and
    // were never observable; skip them.
    while (next_transient < transients.size() &&
           transients[next_transient]->time < session.window.start) {
      ++next_transient;
    }
    while (next_transient < transients.size() &&
           transients[next_transient]->time < session.window.end) {
      simulate_transient(session, *transients[next_transient], node, temp, log);
      ++next_transient;
    }

    for (const FaultEvent* ev : stucks) {
      if (ev->time < session.window.end &&
          ev->active_until > session.window.start) {
        simulate_stuck(session, *ev, node, config, temp, log);
      }
    }

    if (!session.end_lost) {
      log.add_end({session.window.end, node, temp.at(session.window.end)});
    }
  }

  log.sort_by_time();
}

}  // namespace

void simulate_node_shared_into(const SessionSimConfig& config,
                               cluster::NodeId node,
                               const sched::ScanPlan& plan, bool overheating,
                               std::uint64_t seed,
                               std::span<const faults::FaultEvent> fleet,
                               std::span<const std::uint32_t> indices,
                               SessionSimArena& arena, telemetry::NodeLog& out) {
  arena.ptrs.clear();
  arena.ptrs.reserve(indices.size());
  for (const std::uint32_t i : indices) arena.ptrs.push_back(&fleet[i]);
  simulate_node_core(config, node, plan, overheating, seed, arena, out);
}

telemetry::NodeLog simulate_node(const SessionSimConfig& config,
                                 cluster::NodeId node,
                                 const sched::ScanPlan& plan,
                                 const std::vector<faults::FaultEvent>& events,
                                 bool overheating, std::uint64_t seed) {
  SessionSimArena arena;
  arena.ptrs.reserve(events.size());
  for (const FaultEvent& ev : events) arena.ptrs.push_back(&ev);
  NodeLog log;
  simulate_node_core(config, node, plan, overheating, seed, arena, log);
  return log;
}

}  // namespace unp::sim
