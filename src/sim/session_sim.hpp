// Analytic scan-session simulator.
//
// Running the literal scanner over 3 GB x 923 nodes x 13 months is ~10^17
// word operations; the campaign instead computes, per fault event, exactly
// which ERROR logs the real scanner would have produced:
//
//   - the check of iteration i (at session start + i * pass_period, i >= 1)
//     compares stored values against the value written at iteration i-1;
//   - a transient upset occurring mid-session corrupts the currently stored
//     value; it is reported at the next check iff the corruption is visible
//     under that value, then repaired by the iteration's write;
//   - a stuck fault re-asserts after every write: it is reported at every
//     check whose previous write it corrupts, producing the run-length
//     ERROR streams (alternating pattern: every check, every second check,
//     or never, depending on which phases the stuck value collides with).
//
// Equivalence with the real scanner (MemoryScanner + SimulatedMemoryBackend
// stepped pass-by-pass) is asserted by tests/sim/session_equivalence_test.
//
// A node's random stream feeds one thing: the sensor noise added to each
// temperature, drawn at every START, END and ERROR site at or after
// sensors_online, in walk order.  The noise values are therefore one fixed
// sequence, and a session's stretch of it starts at the number of
// temperature sites before it, which the counting walk knows.  That lets
// NodeSplit simulate a node as ranges of its sessions (cut inside a heavy
// session at a check) on several workers, byte for byte the node
// simulate_node gives.  The campaign does so with its costliest node (node
// 21-07 in the study campaign) whenever a sink wants its bytes.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "env/temperature.hpp"
#include "faults/event.hpp"
#include "sched/scan_plan.hpp"
#include "telemetry/node_log.hpp"
#include "telemetry/sink.hpp"

namespace unp::sim {

struct SessionSimConfig {
  /// Temperature sensors came online here; earlier records carry none.
  TimePoint sensors_online = from_civil_utc({2015, 4, 1, 0, 0, 0});
  env::TemperatureModel temperature{};
  /// Counter-pattern approximation for stuck faults: a stuck fault in a
  /// counter session logs once per check (almost every counter value makes
  /// a discharge visible); exact per-check visibility is applied for runs
  /// shorter than this many checks.
  std::uint64_t counter_exact_limit = 4096;
};

/// Reusable per-worker scratch: the event view the simulator sorts, the
/// transient/stuck pointer partitions, and the counting-sort indices that
/// put each session's error runs in check order.  Capacity persists across
/// nodes, so a steady-state campaign worker allocates nothing per node.
struct SessionSimArena {
  std::vector<const faults::FaultEvent*> ptrs;  ///< the view actually sorted
  std::vector<const faults::FaultEvent*> transients;
  std::vector<const faults::FaultEvent*> stucks;
  std::vector<std::uint32_t> run_slots;   ///< per run: check index, then destination
  std::vector<std::uint32_t> check_tally; ///< per check index: run count, then offset
};

/// Put the error runs one session just emitted (`runs`, the tail of the
/// node's log) into time order.  Every run a session emits starts on a
/// check instant, start + i*period with i >= 1 (transients, both
/// alternating phases, both counter branches), so a stable counting sort by
/// check index i is the stable sort by time, in linear time, without
/// comparing two runs.  The key is a monotone function of the time alone:
/// runs that tie on time keep their emission order even off the check grid,
/// so a later stable sort by time (NodeLog::sort_by_time) finishes such a
/// segment exactly as a stable sort of the emission order would.  Segments
/// already in order (most) are left untouched.
void order_session_runs(const sched::ScanSession& session,
                        std::span<telemetry::ErrorRun> runs,
                        SessionSimArena& arena);

/// Produce the telemetry a node's scanner would log over its whole plan,
/// given the fault events assigned to that node (any order).  `overheating`
/// selects the hot-slot temperature profile.  The events are read in place
/// through a pointer view; none is copied.
[[nodiscard]] telemetry::NodeLog simulate_node(
    const SessionSimConfig& config, cluster::NodeId node,
    const sched::ScanPlan& plan, const std::vector<faults::FaultEvent>& events,
    bool overheating, std::uint64_t seed);

/// One session of a node's log as the counting walk sees it.
struct SessionTally {
  std::size_t runs = 0;  ///< error runs the session emits
  /// Sensor-noise draws: the START, the runs and the END (unless lost) at
  /// or after sensors_online.
  std::size_t temperature_sites = 0;
};

/// The exact number of error runs simulate_node_shared_into emits for the
/// same inputs.  It runs the simulator's own visibility walk (transient,
/// alternating-phase and counter checks) with a counting sink: no record is
/// built and no random number drawn.  It also leaves one tally per plan
/// session in `sessions` (cleared first).  The campaign driver sizes each
/// node's log from the count and names its costliest node by it; NodeSplit
/// balances and offsets that node's chunks by the tallies.
std::size_t count_node_runs(const SessionSimConfig& config,
                            const sched::ScanPlan& plan,
                            std::span<const faults::FaultEvent> fleet,
                            std::span<const std::uint32_t> indices,
                            SessionSimArena& arena,
                            std::vector<SessionTally>& sessions);

/// Arena form, the campaign hot path: the node's events are the `indices`
/// rows of the shared fleet-truth vector, read in place.  `runs` is
/// count_node_runs of the same inputs, which the caller already has; the
/// error runs are reserved once from it (a wrong value costs capacity,
/// never bytes).  `out` is cleared and refilled, and only pointer scratch
/// in `arena` is touched, so both keep their capacity across nodes.
/// Identical output to simulate_node on the same events in the same order.
void simulate_node_shared_into(const SessionSimConfig& config,
                               cluster::NodeId node,
                               const sched::ScanPlan& plan, bool overheating,
                               std::uint64_t seed,
                               std::span<const faults::FaultEvent> fleet,
                               std::span<const std::uint32_t> indices,
                               std::size_t runs, SessionSimArena& arena,
                               telemetry::NodeLog& out);

/// A place in a node's walk: a plan session and a check key in it.  A
/// session's START sits at key 0, each of its runs at the check index its
/// time falls on (>= 1), and its END after every run, so a node's records
/// ascend by place in the order its log stores them.
struct WalkPoint {
  std::size_t session = 0;
  std::uint64_t key = 0;
  friend auto operator<=>(const WalkPoint&, const WalkPoint&) = default;
};

/// One node simulated and encoded as contiguous ranges of its walk
/// (chunks), each on whichever worker runs it.  Construction partitions the
/// node's events once, draws its whole noise sequence serially with the
/// same calls in the same order as simulate_node, and writes the body's
/// head: the START, END and ALLOCFAIL sections (each reading taken from the
/// sequence where the walk takes it) and the run count.  Chunk k then walks
/// the sessions its range touches with its own log, reading noise from its
/// offset, writes the runs inside its range, puts each session's in check
/// order, encodes them and frees them.  The body is the head followed by
/// each chunk's runs, the first chunk's encoded straight into it and each
/// later chunk's first run time a delta from the chunk before's last:
/// the bytes encode_node_log writes for simulate_node's log.  At no point
/// is the node's whole run vector, or a second copy of its body, resident.
///
/// The plan's sessions must be time-ordered and disjoint (as the planner
/// makes them); `fleet` must outlive the split.
class NodeSplit {
 public:
  /// Plan at most `chunks` ranges, balanced by `sessions` (count_node_runs'
  /// tallies for the same inputs).
  NodeSplit(const SessionSimConfig& config, cluster::NodeId node,
            const sched::ScanPlan& plan, bool overheating, std::uint64_t seed,
            std::span<const faults::FaultEvent> fleet,
            std::span<const std::uint32_t> indices,
            std::span<const SessionTally> sessions, std::size_t chunks);

  /// The ranges planned: fewer than asked when the node has too few runs
  /// and sessions to cut it that often, and never zero.
  [[nodiscard]] std::size_t chunks() const noexcept { return chunks_.size(); }

  /// Simulate and encode chunk `k`, using `arena` for scratch, and append
  /// what the body can take so far.  Distinct chunks may run concurrently;
  /// each runs once.  Returns true for the one call after which the body
  /// is complete.
  bool run_chunk(std::size_t k, SessionSimArena& arena);

  /// The node's body, its sessions, and its run and raw counts, once
  /// run_chunk returned true.
  [[nodiscard]] telemetry::NodeBody take_body();

 private:
  struct Chunk {
    WalkPoint from;  ///< the runs placed in [from, to) are this chunk's
    WalkPoint to;
    std::size_t walk_end = 0;   ///< one past the last session it walks
    std::size_t noise_at = 0;   ///< its first session's first noise value
    std::size_t noise_end = 0;  ///< one past its last session's last one
    std::size_t runs = 0;       ///< tallied, then checked
    // Filled by run_chunk:
    telemetry::ErrorRun first;  ///< its first run
    TimePoint last = 0;         ///< its last run's time
    std::string tail;  ///< the runs after the first, a delta chain from it
    std::uint64_t raw = 0;
    bool encoded = false;  ///< ready to append (mutex_)
  };

  /// Put `chunk`'s runs at the end of the body (the first chunk's are
  /// there already).
  void append(Chunk& chunk, bool first);

  const SessionSimConfig* config_;
  cluster::NodeId node_;
  const sched::ScanPlan* plan_;
  bool overheating_;
  SessionSimArena events_;  ///< the node's partitioned events, shared
  std::vector<double> noise_;
  std::vector<Chunk> chunks_;
  telemetry::NodeBody body_;

  std::mutex mutex_;
  std::size_t appended_ = 0;  ///< chunks in the body (mutex_)
  bool appending_ = false;    ///< some caller is appending (mutex_)
  TimePoint last_ = 0;        ///< last run time in the body (the appender's)
  bool after_runs_ = false;   ///< the body holds a run (the appender's)
};

}  // namespace unp::sim
