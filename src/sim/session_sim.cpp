#include "sim/session_sim.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <span>

#include "common/require.hpp"
#include "scanner/pattern.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::sim {

namespace {

using faults::FaultEvent;
using faults::Persistence;
using scanner::Pattern;
using scanner::PatternKind;
using telemetry::ErrorRecord;
using telemetry::ErrorRun;
using telemetry::NodeLog;

/// Each record's temperature: nothing before the sensors came online, else
/// the node's noise-free temperature plus the next sensor-noise value, in
/// walk order.  The noise is drawn live from the node's stream, or read
/// from the stretch of its pre-drawn sequence a split chunk starts at
/// (NodeSplit); the two give the same doubles.
struct TempSampler {
  const SessionSimConfig* config;
  bool overheating;
  /// Hoisted per-node idle delta: a pure function of the node id, resolved
  /// once here instead of redrawing it for every record's sample.
  double idle_delta_c;
  RngStream* rng = nullptr;
  const double* noise = nullptr;  ///< the next pre-drawn value, without rng

  TempSampler(const SessionSimConfig* cfg, cluster::NodeId n, bool hot)
      : config(cfg),
        overheating(hot),
        idle_delta_c(cfg->temperature.node_idle_delta_c(
            static_cast<std::uint32_t>(cluster::node_index(n)))) {}

  [[nodiscard]] double at(TimePoint t) {
    if (t < config->sensors_online) return telemetry::kNoTemperature;
    if (rng != nullptr) {
      return config->temperature.sample_with_idle_delta_c(t, idle_delta_c,
                                                          overheating, *rng);
    }
    return config->temperature.mean_with_idle_delta_c(t, idle_delta_c,
                                                      overheating) +
           *noise++;
  }
  /// Pass over the sample at `t` without taking it (pre-drawn noise only:
  /// the whole-node walk takes every sample).
  void skip(TimePoint t) {
    if (t >= config->sensors_online) ++noise;
  }
};

/// The key a session's runs are put in order and split by: the check index
/// of an instant on the session's check grid (start + i*period, i >= 1),
/// 0 at or before the start, and one shared last key from the window end
/// on.  It is a monotone function of the time alone.
struct CheckKey {
  TimePoint start;
  std::int64_t period;
  std::uint64_t last;

  explicit CheckKey(const sched::ScanSession& session)
      : start(session.window.start),
        period(session.pass_period_s),
        last(session.iterations() + 1) {}

  std::uint64_t operator()(TimePoint t) const {
    if (t <= start) return 0;
    return std::min(static_cast<std::uint64_t>((t - start) / period), last);
  }
};

/// A START's key and an END's: before and after every run's.
constexpr std::uint64_t kStartKey = 0;
constexpr std::uint64_t kEndKey = ~std::uint64_t{0};

ErrorRecord make_error(TimePoint when, cluster::NodeId node,
                       std::uint64_t word_index, Word expected, Word actual,
                       TempSampler& temp) {
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
/// log, with no record built and no random number drawn.  Per session it
/// also counts the sites LogWriter draws a temperature at, when asked.
struct RunCounter {
  TimePoint sensors_online;
  std::vector<SessionTally>* sessions = nullptr;  ///< per-session tallies
  std::size_t runs = 0;
  SessionTally open;  ///< the session being walked

  void site(TimePoint t) {
    if (t >= sensors_online) ++open.temperature_sites;
  }
  void begin_session(const sched::ScanSession& session) {
    open = {};
    site(session.window.start);
  }
  void end_session(const sched::ScanSession& session) {
    if (!session.end_lost) site(session.window.end);
    runs += open.runs;
    if (sessions != nullptr) sessions->push_back(open);
  }
  void run(TimePoint when, std::uint64_t /*word_index*/, Word /*expected*/,
           Word /*actual*/, std::int64_t /*period_s*/,
           std::uint64_t /*count*/) {
    ++open.runs;
    site(when);
  }
};

/// Tallies one session's runs by check key: where NodeSplit cuts it.
struct KeyCounter {
  CheckKey key;
  std::vector<std::size_t>& runs;  ///< indexed by key

  void begin_session(const sched::ScanSession& /*session*/) {}
  void end_session(const sched::ScanSession& /*session*/) {}
  void run(TimePoint when, std::uint64_t /*word_index*/, Word /*expected*/,
           Word /*actual*/, std::int64_t /*period_s*/,
           std::uint64_t /*count*/) {
    ++runs[key(when)];
  }
};

/// The emitting sink: builds each record (drawing its temperature sample in
/// walk order), frames every session with its START/END records and puts
/// the session's runs in check order as it closes.  It writes the records
/// whose place lies in [from, to) and passes over the others' temperature
/// samples, so a walk over part of a node draws exactly what the whole
/// walk draws there.
struct LogWriter {
  cluster::NodeId node;
  TempSampler& temp;
  SessionSimArena& arena;
  NodeLog& log;
  WalkPoint from{};
  WalkPoint to{~std::size_t{0}, 0};
  std::size_t session = 0;  ///< index of the open session in the plan
  /// Write the START and END records (else only pass over their samples).
  bool frames = true;
  std::size_t session_runs = 0;  ///< first run of the open session
  std::optional<CheckKey> cut{};  ///< the open session's key, if cut

  [[nodiscard]] bool keeps(std::uint64_t key) const {
    const WalkPoint place{session, key};
    return from <= place && place < to;
  }

  void begin_session(const sched::ScanSession& session_info) {
    session_runs = log.error_runs().size();
    cut.reset();
    if (!keeps(kStartKey) || !keeps(kEndKey)) cut.emplace(session_info);
    if (frames && keeps(kStartKey)) {
      log.add_start({session_info.window.start, node,
                     session_info.allocated_bytes,
                     temp.at(session_info.window.start)});
    } else {
      temp.skip(session_info.window.start);
    }
  }
  void end_session(const sched::ScanSession& session_info) {
    order_session_runs(session_info, log.error_runs_from(session_runs), arena);
    if (!session_info.end_lost) {
      if (frames && keeps(kEndKey)) {
        log.add_end({session_info.window.end, node,
                     temp.at(session_info.window.end)});
      } else {
        temp.skip(session_info.window.end);
      }
    }
    ++session;
  }
  void run(TimePoint when, std::uint64_t word_index, Word expected,
           Word actual, std::int64_t period_s, std::uint64_t count) {
    if (cut && !keeps((*cut)(when))) {
      temp.skip(when);
      return;
    }
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

/// Walk `sessions` (a plan's, or a contiguous range of them) against the
/// node's time-sorted transients and its stuck faults.
template <class Sink>
void walk_sessions(const SessionSimConfig& config,
                   std::span<const sched::ScanSession> sessions,
                   std::span<const FaultEvent* const> transients,
                   std::span<const FaultEvent* const> stucks, Sink& sink) {
  std::size_t next_transient = 0;
  if (!sessions.empty()) {
    // Transients before the first session are skipped below anyway.
    next_transient = static_cast<std::size_t>(
        std::partition_point(transients.begin(), transients.end(),
                             [&](const FaultEvent* ev) {
                               return ev->time < sessions.front().window.start;
                             }) -
        transients.begin());
  }
  for (const auto& session : sessions) {
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

  // Times at or past the window end (none are emitted) share one last key.
  const CheckKey key_of(session);
  UNP_REQUIRE(key_of.last < 0xFFFFFFFFull);
  const auto check_index = [&](TimePoint t) {
    return static_cast<std::uint32_t>(key_of(t));
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
                                   const SessionSimArena& arena,
                                   std::vector<SessionTally>* sessions) {
  RunCounter counter{config.sensors_online, sessions, 0, {}};
  walk_sessions(config, plan.sessions, arena.transients, arena.stucks,
                counter);
  return counter.runs;
}

/// The node's temperature stream: its sensor noise, in walk order, is the
/// only thing it draws.
RngStream node_stream(std::uint64_t seed, cluster::NodeId node) {
  return RngStream(seed, /*stream_id=*/0x5E55,
                   static_cast<std::uint64_t>(cluster::node_index(node)));
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
  RngStream rng = node_stream(seed, node);
  TempSampler temp(&config, node, overheating);
  temp.rng = &rng;

  for (const auto& failure : plan.failures) {
    log.add_alloc_fail({failure.time, node});
  }

  LogWriter writer{node, temp, arena, log};
  walk_sessions(config, plan.sessions, arena.transients, arena.stucks, writer);

  // Sessions do not overlap, so the node's runs are in time order now; the
  // guard's stable sort runs only if some run left the check grid.
  log.sort_by_time();
}

}  // namespace

std::size_t count_node_runs(const SessionSimConfig& config,
                            const sched::ScanPlan& plan,
                            std::span<const faults::FaultEvent> fleet,
                            std::span<const std::uint32_t> indices,
                            SessionSimArena& arena,
                            std::vector<SessionTally>& sessions) {
  load_events(fleet, indices, arena);
  sessions.clear();
  sessions.reserve(plan.sessions.size());
  return count_partitioned_runs(config, plan, arena, &sessions);
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
                     count_partitioned_runs(config, plan, arena, nullptr),
                     arena, log);
  return log;
}

NodeSplit::NodeSplit(const SessionSimConfig& config, cluster::NodeId node,
                     const sched::ScanPlan& plan, bool overheating,
                     std::uint64_t seed,
                     std::span<const faults::FaultEvent> fleet,
                     std::span<const std::uint32_t> indices,
                     std::span<const SessionTally> sessions,
                     std::size_t chunks)
    : config_(&config), node_(node), plan_(&plan), overheating_(overheating) {
  UNP_REQUIRE(sessions.size() == plan.sessions.size());
  UNP_REQUIRE(chunks >= 1);
  load_events(fleet, indices, events_);

  const std::size_t n = sessions.size();
  std::vector<std::size_t> runs_before(n + 1, 0);
  std::vector<std::size_t> sites_before(n + 1, 0);
  std::vector<std::size_t> cost_before(n + 1, 0);  ///< runs plus sessions
  for (std::size_t i = 0; i < n; ++i) {
    runs_before[i + 1] = runs_before[i] + sessions[i].runs;
    sites_before[i + 1] = sites_before[i] + sessions[i].temperature_sites;
    cost_before[i + 1] = cost_before[i] + sessions[i].runs + 1;
  }

  // Cut the walk where the running cost (a session's runs plus one) reaches
  // k/chunks of the total.  A cut inside a session falls between two check
  // keys, found from that session's runs tallied by key, so one heavy
  // session (862,620 of node 21-07's runs sit in one) spreads over
  // several chunks too.  Coinciding cuts merge, so there are at most
  // `chunks` ranges.
  struct Cut {
    WalkPoint place;
    std::size_t runs_before = 0;
  };
  std::vector<Cut> cuts{{}};
  std::vector<std::size_t> by_key;  ///< runs per check key of session `keyed`
  std::size_t keyed = n;
  std::size_t i = 0;
  for (std::size_t k = 1; k < chunks; ++k) {
    const std::size_t target = cost_before[n] * k / chunks;
    while (i < n && cost_before[i + 1] <= target) ++i;
    if (i == n) break;
    Cut cut{{i, kStartKey}, runs_before[i]};
    if (std::size_t want = target - cost_before[i]; want > 0) {
      if (keyed != i) {
        const sched::ScanSession& session = plan.sessions[i];
        KeyCounter counter{CheckKey(session), by_key};
        by_key.assign(counter.key.last + 1, 0);
        walk_sessions(config, std::span(&session, 1), events_.transients,
                      events_.stucks, counter);
        keyed = i;
      }
      // The first key whose runs, with all before it, reach `want`.
      std::uint64_t key = 0;
      std::size_t below = 0;
      while (below < want) below += by_key[key++];
      cut = {{i, key}, runs_before[i] + below};
    }
    if (cuts.back().place < cut.place) cuts.push_back(cut);
  }
  cuts.push_back({{n, kStartKey}, runs_before[n]});

  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    Chunk& chunk = chunks_.emplace_back();
    chunk.from = cuts[k].place;
    chunk.to = cuts[k + 1].place;
    chunk.walk_end = chunk.to.key == kStartKey ? chunk.to.session
                                               : chunk.to.session + 1;
    chunk.noise_at = sites_before[chunk.from.session];
    chunk.noise_end = sites_before[chunk.walk_end];
    chunk.runs = cuts[k + 1].runs_before - cuts[k].runs_before;
  }

  // The node's whole noise sequence, drawn once in walk order: each chunk
  // reads its sessions' stretch from its offset on.
  RngStream rng = node_stream(seed, node);
  noise_.resize(sites_before[n]);
  for (double& v : noise_) v = config.temperature.sensor_noise_c(rng);

  // The session records, each reading taken where the walk takes it: a
  // START is its session's first temperature site, an END its last.  With
  // them the body's head is known before any chunk runs.
  NodeLog& log = body_.sessions;
  log.reserve_starts(n);
  log.reserve_ends(n);
  log.reserve_alloc_fails(plan.failures.size());
  TempSampler temp(&config, node, overheating);
  for (std::size_t j = 0; j < n; ++j) {
    const sched::ScanSession& session = plan.sessions[j];
    temp.noise = noise_.data() + sites_before[j];
    log.add_start({session.window.start, node, session.allocated_bytes,
                   temp.at(session.window.start)});
    if (!session.end_lost) {
      if (session.window.end >= config.sensors_online)
        temp.noise = noise_.data() + sites_before[j + 1] - 1;
      log.add_end({session.window.end, node, temp.at(session.window.end)});
    }
  }
  for (const auto& failure : plan.failures) {
    log.add_alloc_fail({failure.time, node});
  }
  log.sort_by_time();
  body_.runs = runs_before[n];
  body_.bytes.reserve(telemetry::node_log_encoded_bound(log) +
                      body_.runs * telemetry::kErrorRunEncodedBound);
  body_.runs_at = telemetry::encode_session_sections_into(log, body_.bytes);
  telemetry::put_varint(body_.bytes, body_.runs);
}

bool NodeSplit::run_chunk(std::size_t k, SessionSimArena& arena) {
  Chunk& chunk = chunks_[k];
  {
    const std::span<const sched::ScanSession> sessions =
        std::span(plan_->sessions)
            .subspan(chunk.from.session, chunk.walk_end - chunk.from.session);
    NodeLog log;
    log.reserve_error_runs(chunk.runs);
    TempSampler temp(config_, node_, overheating_);
    temp.noise = noise_.data() + chunk.noise_at;
    LogWriter writer{node_, temp, arena, log, chunk.from, chunk.to,
                     chunk.from.session, false};
    walk_sessions(*config_, sessions, events_.transients, events_.stucks,
                  writer);
    UNP_REQUIRE(temp.noise == noise_.data() + chunk.noise_end);
    log.sort_by_time();

    const std::vector<ErrorRun>& runs = log.error_runs();
    UNP_REQUIRE(runs.size() == chunk.runs);
    chunk.raw = log.raw_error_count();
    if (!runs.empty()) {
      chunk.first = runs.front();
      chunk.last = runs.back().first.time;
      if (k == 0) {
        // Nothing precedes the first chunk's runs: they go straight into
        // the body, after its head.
        telemetry::encode_error_runs_into(runs, 0, body_.bytes);
      } else {
        telemetry::encode_error_runs_into(std::span(runs).subspan(1),
                                          chunk.first.first.time, chunk.tail);
      }
    }
  }  // the chunk's runs are freed here; only their bytes stay

  // Append every encoded chunk that continues the body, in order.  Whoever
  // finds the next one ready appends it, and any that follow, so the body
  // grows while later chunks still run and at most one caller writes it.
  std::unique_lock lock(mutex_);
  chunk.encoded = true;
  if (appending_) return false;
  appending_ = true;
  while (appended_ < chunks_.size() && chunks_[appended_].encoded) {
    Chunk& next = chunks_[appended_];
    const bool first = appended_ == 0;
    lock.unlock();
    append(next, first);
    lock.lock();
    ++appended_;
  }
  appending_ = false;
  return appended_ == chunks_.size();
}

void NodeSplit::append(Chunk& chunk, bool first) {
  body_.raw += chunk.raw;
  if (chunk.runs == 0) return;
  // Plan sessions are time-ordered and disjoint and every run lies inside
  // its session, so the chunks follow each other in time and their
  // concatenation is the node's sort_by_time order.
  UNP_REQUIRE(!after_runs_ || chunk.first.first.time >= last_);
  if (!first) {
    telemetry::encode_error_runs_into(std::span(&chunk.first, 1), last_,
                                      body_.bytes);
    body_.bytes += chunk.tail;
    std::string().swap(chunk.tail);
  }
  after_runs_ = true;
  last_ = chunk.last;
}

telemetry::NodeBody NodeSplit::take_body() {
  UNP_REQUIRE(appended_ == chunks_.size());
  noise_ = {};
  return std::move(body_);
}

}  // namespace unp::sim
