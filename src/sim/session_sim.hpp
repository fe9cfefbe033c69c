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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "env/temperature.hpp"
#include "faults/event.hpp"
#include "sched/scan_plan.hpp"
#include "telemetry/node_log.hpp"

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

/// The exact number of error runs simulate_node_shared_into emits for the
/// same inputs.  It runs the simulator's own visibility walk (transient,
/// alternating-phase and counter checks) with a counting sink: no record is
/// built and no random number drawn.  The campaign driver dispatches the
/// costliest node first by it and sizes each node's log from it.
[[nodiscard]] std::size_t count_node_runs(
    const SessionSimConfig& config, const sched::ScanPlan& plan,
    std::span<const faults::FaultEvent> fleet,
    std::span<const std::uint32_t> indices, SessionSimArena& arena);

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

}  // namespace unp::sim
