#include "sim/session_sim.hpp"

#include <algorithm>
#include <span>

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

/// Where a node walk's error runs go.  The walk below (walk_transient,
/// walk_stuck, walk_sessions) is the simulator's one copy of the visibility
/// rules: it decides which checks see a fault and hands each visible run
/// (a single log is a run of count 1) to its sink.  RunCounter only tallies
/// them, so the exact run count comes from the same code that emits the
/// log, with no record built and no random number drawn.
struct RunCounter {
  std::size_t runs = 0;

  void begin_session(const sched::ScanSession& /*session*/) {}
  void end_session(const sched::ScanSession& /*session*/) {}
  void run(TimePoint /*when*/, std::uint64_t /*word_index*/,
           Word /*expected*/, Word /*actual*/, std::int64_t /*period_s*/,
           std::uint64_t /*count*/) {
    ++runs;
  }
};

/// The emitting sink: builds each record (drawing its temperature sample in
/// walk order), frames every session with its START/END records and puts
/// the session's runs in check order as it closes.
struct LogWriter {
  cluster::NodeId node;
  const TempSampler& temp;
  SessionSimArena& arena;
  NodeLog& log;
  std::size_t session_runs = 0;  ///< first run of the open session

  void begin_session(const sched::ScanSession& session) {
    session_runs = log.error_runs().size();
    log.add_start({session.window.start, node, session.allocated_bytes,
                   temp.at(session.window.start)});
  }
  void end_session(const sched::ScanSession& session) {
    order_session_runs(session, log.error_runs_from(session_runs), arena);
    if (!session.end_lost) {
      log.add_end({session.window.end, node, temp.at(session.window.end)});
    }
  }
  void run(TimePoint when, std::uint64_t word_index, Word expected,
           Word actual, std::int64_t period_s, std::uint64_t count) {
    ErrorRun r;
    r.first = make_error(when, node, word_index, expected, actual, temp);
    r.period_s = period_s;
    r.count = count;
    log.add_error_run(r);
  }
};

/// The checks of a transient event landing inside `session`.
template <class Sink>
void walk_transient(const sched::ScanSession& session, const FaultEvent& ev,
                    Sink& sink) {
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
      sink.run(check_time, wf.word_index, expected, observed, 0, 1);
    }
  }
}

/// The run-length checks of a stuck fault over one session.
template <class Sink>
void walk_stuck(const sched::ScanSession& session, const FaultEvent& ev,
                const SessionSimConfig& config, Sink& sink) {
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
        sink.run(start + static_cast<std::int64_t>(i) * period, wf.word_index,
                 phase_expected, observed, count > 1 ? 2 * period : 0, count);
      }
    } else {
      // Counter pattern: expected changes every check.
      const std::uint64_t checks = last_check - first_check + 1;
      if (checks <= config.counter_exact_limit) {
        for (std::uint64_t i = first_check; i <= last_check; ++i) {
          const Word expected = pattern.written_at(i - 1);
          const Word observed = wf.corruption.apply(expected);
          if (observed != expected) {
            sink.run(start + static_cast<std::int64_t>(i) * period,
                     wf.word_index, expected, observed, 0, 1);
          }
        }
      } else {
        // Long-run approximation: a discharge fault collides with almost
        // every counter value; represent the stream as one run carrying the
        // first check's context.
        const Word expected = pattern.written_at(first_check - 1);
        const Word observed = wf.corruption.apply(expected);
        if (observed == expected) continue;
        sink.run(start + static_cast<std::int64_t>(first_check) * period,
                 wf.word_index, expected, observed, checks > 1 ? period : 0,
                 checks);
      }
    }
  }
}

/// Walk every session of `plan` against the node's time-sorted transients
/// and its stuck faults.
template <class Sink>
void walk_sessions(const SessionSimConfig& config, const sched::ScanPlan& plan,
                   std::span<const FaultEvent* const> transients,
                   std::span<const FaultEvent* const> stucks, Sink& sink) {
  std::size_t next_transient = 0;
  for (const auto& session : plan.sessions) {
    sink.begin_session(session);

    // Transients before this session fell into busy (job-owned) time and
    // were never observable; skip them.
    while (next_transient < transients.size() &&
           transients[next_transient]->time < session.window.start) {
      ++next_transient;
    }
    while (next_transient < transients.size() &&
           transients[next_transient]->time < session.window.end) {
      walk_transient(session, *transients[next_transient], sink);
      ++next_transient;
    }

    for (const FaultEvent* ev : stucks) {
      if (ev->time < session.window.end &&
          ev->active_until > session.window.start) {
        walk_stuck(session, *ev, config, sink);
      }
    }

    sink.end_session(session);
  }
}

}  // namespace

void order_session_runs(const sched::ScanSession& session,
                        std::span<ErrorRun> runs, SessionSimArena& arena) {
  const auto by_time = [](const ErrorRun& a, const ErrorRun& b) {
    return a.first.time < b.first.time;
  };
  if (std::is_sorted(runs.begin(), runs.end(), by_time)) return;
  UNP_REQUIRE(runs.size() <= 0xFFFFFFFFull);
  UNP_REQUIRE(session.pass_period_s > 0);

  const TimePoint start = session.window.start;
  const std::int64_t period = session.pass_period_s;
  // Times at or past the window end (none are emitted) share one last key.
  const std::uint64_t last_key = session.iterations() + 1;
  UNP_REQUIRE(last_key < 0xFFFFFFFFull);
  const auto check_index = [&](TimePoint t) -> std::uint32_t {
    if (t <= start) return 0;
    return static_cast<std::uint32_t>(std::min(
        static_cast<std::uint64_t>((t - start) / period), last_key));
  };

  const std::size_t n = runs.size();
  std::vector<std::uint32_t>& slots = arena.run_slots;
  slots.resize(n);
  std::uint32_t lo = 0xFFFFFFFFu;
  std::uint32_t hi = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t key = check_index(runs[j].first.time);
    slots[j] = key;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }

  // Tally per key, turn the tallies into first offsets, then hand each run
  // (in emission order) the next offset of its key: slots[j] becomes run
  // j's destination.
  std::vector<std::uint32_t>& tally = arena.check_tally;
  tally.assign(std::size_t{hi - lo} + 1, 0);
  for (std::size_t j = 0; j < n; ++j) ++tally[slots[j] - lo];
  std::uint32_t offset = 0;
  for (std::uint32_t& t : tally) {
    const std::uint32_t count = t;
    t = offset;
    offset += count;
  }
  for (std::size_t j = 0; j < n; ++j) slots[j] = tally[slots[j] - lo]++;

  // Follow each cycle of the permutation, carrying one run: every run is
  // read and written once, in place, so the reorder holds no second copy
  // of the session (up to ~47 MB on node 21-07) on top of the node's log.
  // A cycle is a chain of dependent loads through scattered slots; fetching
  // one link ahead (and the run it names) roughly halves its cost there.
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t d = slots[i];
    if (d == i) continue;
    ErrorRun carried = runs[i];
    slots[i] = static_cast<std::uint32_t>(i);
    while (d != i) {
      const std::size_t next = slots[d];
      __builtin_prefetch(&slots[slots[next]]);
      __builtin_prefetch(&runs[next], 1);
      std::swap(carried, runs[d]);
      slots[d] = static_cast<std::uint32_t>(d);
      d = next;
    }
    runs[i] = carried;
  }
}

namespace {

/// Sort `arena.ptrs` (this node's events, any order) in place and split it
/// into the transient and stuck views the walk reads.  Sorting the pointer
/// view yields the event order sort_events gives the values (see
/// sort_event_ptrs), without moving any FaultEvent.
void partition_events(SessionSimArena& arena) {
  faults::sort_event_ptrs(arena.ptrs);
  // A transient belongs to exactly one session; stuck faults (few) are
  // checked against every session they overlap.
  arena.transients.clear();
  arena.stucks.clear();
  arena.transients.reserve(arena.ptrs.size());
  for (const FaultEvent* ev : arena.ptrs) {
    (ev->persistence == Persistence::kTransient ? arena.transients
                                                : arena.stucks)
        .push_back(ev);
  }
}

void load_events(std::span<const faults::FaultEvent> fleet,
                 std::span<const std::uint32_t> indices,
                 SessionSimArena& arena) {
  arena.ptrs.clear();
  arena.ptrs.reserve(indices.size());
  for (const std::uint32_t i : indices) arena.ptrs.push_back(&fleet[i]);
  partition_events(arena);
}

std::size_t count_partitioned_runs(const SessionSimConfig& config,
                                   const sched::ScanPlan& plan,
                                   const SessionSimArena& arena) {
  RunCounter counter;
  walk_sessions(config, plan, arena.transients, arena.stucks, counter);
  return counter.runs;
}

/// Shared tail of the simulate_node entry points: `arena` holds this node's
/// partitioned events and `runs` is their exact run count.  Every record
/// vector is sized once up front, so even the pathological node's ~160 MB
/// of runs never regrow.
void simulate_node_core(const SessionSimConfig& config, cluster::NodeId node,
                        const sched::ScanPlan& plan, bool overheating,
                        std::uint64_t seed, std::size_t runs,
                        SessionSimArena& arena, telemetry::NodeLog& out) {
  NodeLog& log = out;
  log.clear();
  log.reserve_starts(plan.sessions.size());
  log.reserve_ends(plan.sessions.size());
  log.reserve_alloc_fails(plan.failures.size());
  log.reserve_error_runs(runs);
  RngStream rng(seed, /*stream_id=*/0x5E55,
                static_cast<std::uint64_t>(cluster::node_index(node)));
  const TempSampler temp{&config, node, overheating, &rng};

  for (const auto& failure : plan.failures) {
    log.add_alloc_fail({failure.time, node});
  }

  LogWriter writer{node, temp, arena, log};
  walk_sessions(config, plan, arena.transients, arena.stucks, writer);

  // Sessions do not overlap, so the node's runs are in time order now; the
  // guard's stable sort runs only if some run left the check grid.
  log.sort_by_time();
}

}  // namespace

std::size_t count_node_runs(const SessionSimConfig& config,
                            const sched::ScanPlan& plan,
                            std::span<const faults::FaultEvent> fleet,
                            std::span<const std::uint32_t> indices,
                            SessionSimArena& arena) {
  load_events(fleet, indices, arena);
  return count_partitioned_runs(config, plan, arena);
}

void simulate_node_shared_into(const SessionSimConfig& config,
                               cluster::NodeId node,
                               const sched::ScanPlan& plan, bool overheating,
                               std::uint64_t seed,
                               std::span<const faults::FaultEvent> fleet,
                               std::span<const std::uint32_t> indices,
                               std::size_t runs, SessionSimArena& arena,
                               telemetry::NodeLog& out) {
  load_events(fleet, indices, arena);
  simulate_node_core(config, node, plan, overheating, seed, runs, arena, out);
}

telemetry::NodeLog simulate_node(const SessionSimConfig& config,
                                 cluster::NodeId node,
                                 const sched::ScanPlan& plan,
                                 const std::vector<faults::FaultEvent>& events,
                                 bool overheating, std::uint64_t seed) {
  SessionSimArena arena;
  arena.ptrs.reserve(events.size());
  for (const FaultEvent& ev : events) arena.ptrs.push_back(&ev);
  partition_events(arena);
  NodeLog log;
  simulate_node_core(config, node, plan, overheating, seed,
                     count_partitioned_runs(config, plan, arena), arena, log);
  return log;
}

}  // namespace unp::sim
