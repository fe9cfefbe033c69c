// Whole-campaign driver: wires topology, availability, the scheduler, the
// fault model and the session simulator into the 13-month monitoring
// campaign, streaming the telemetry every analysis consumes.
//
// Determinism: every stochastic component derives its stream from the one
// campaign seed; node timelines are independent, so the per-node work can
// be executed on any number of threads with bit-identical results.  The
// record stream is emitted to sinks in ascending node-index order no matter
// the thread count, so downstream consumers (disk spill, streaming
// extraction, scan profile, policy engine) observe one canonical stream per
// seed.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/availability.hpp"
#include "cluster/topology.hpp"
#include "common/thread_pool.hpp"
#include "faults/suite.hpp"
#include "sched/planner.hpp"
#include "sim/session_sim.hpp"
#include "telemetry/sink.hpp"

namespace unp::sim {

struct CampaignConfig {
  std::uint64_t seed = 42;
  CampaignWindow window{};
  cluster::Topology::Config topology{};
  cluster::AvailabilityModel::Config availability{};
  sched::ScanPlanner::Config planner{};
  faults::FaultModelSuite::Config faults{};
  SessionSimConfig session{};

  /// Auto-append the study's administrative outages to the availability
  /// config: the degrading node's unmonitored December stretches (the
  /// "errors stop abruptly" artefact of Fig 12) and the pathological node's
  /// removal from the scheduler pool.
  bool wire_special_outages = true;
};

/// Per-node accounting next to the record stream.
struct NodeAccounting {
  cluster::NodeId node;
  double scanned_hours = 0.0;
  double terabyte_hours = 0.0;
  std::size_t sessions = 0;
};

/// Everything the campaign produces besides the record stream itself:
/// the concrete topology, the ground-truth fault events and the per-node
/// accounting.  This is what a streaming run returns — the records went to
/// the sinks and are not resident here.
struct CampaignSummary {
  cluster::Topology topology;
  /// Ground-truth fault events (sorted), for truth-vs-observation studies.
  std::vector<faults::FaultEvent> ground_truth;
  std::vector<NodeAccounting> accounting;  ///< one entry per monitored node

  [[nodiscard]] double total_scanned_hours() const noexcept;
  [[nodiscard]] double total_terabyte_hours() const noexcept;
};

/// The topology the campaign instantiates for `config` (deterministic; lets
/// consumers of a spilled record stream rebuild the fleet without rerunning
/// the simulation).
[[nodiscard]] cluster::Topology campaign_topology(const CampaignConfig& config);

/// The open-loop campaign before any session is simulated: every scan plan
/// and the fleet-wide ground truth, derived from the campaign seed.
struct CampaignPlan {
  cluster::Topology topology;
  /// One plan per node of `topology.monitored_nodes()`, in that order.
  std::vector<sched::ScanPlan> plans;
  /// Ground-truth fault events of the whole fleet, sorted by time.
  std::vector<faults::FaultEvent> ground_truth;
  /// Indexed by `cluster::node_index`: positions into `ground_truth` of the
  /// node's events, ascending.
  std::vector<std::vector<std::uint32_t>> node_events;
  /// Sub-seed feeding per-node session simulation (simulate_node).
  std::uint64_t session_seed = 0;

  /// Owned copy of `node`'s events, in ground-truth order: the mutable
  /// substrate a closed-loop driver masks between re-simulations.
  [[nodiscard]] std::vector<faults::FaultEvent> events_of(
      cluster::NodeId node) const;
};

/// Plan the campaign: topology, availability, scan plans (parallel on
/// `pool` when non-null) and fleet-wide fault generation.  The one place
/// those components are wired, so the streaming campaign, its shards and
/// the closed-loop drivers in src/policy all simulate the same world; the
/// result is identical for any pool size.
[[nodiscard]] CampaignPlan plan_campaign(const CampaignConfig& config,
                                         ThreadPool* pool = nullptr);

/// Stream the campaign through `sinks`.  Per-node records are pushed with
/// full framing (begin_campaign .. end_campaign, nodes ascending by index),
/// each node as soon as it and every earlier node are simulated.  Workers
/// take the node with the most error runs (count_node_runs) first: when
/// some sink wants bytes, as `threads` ranges of its walk (NodeSplit) that
/// they simulate and encode in parallel and that reach the sinks as one
/// owned-body frame; else whole.  The other nodes follow ascending, into a
/// bounded ring of slots: at most max(threads*8, 32) node logs are ever
/// resident.  Sinks are called only from the calling thread.  Each node
/// reaches every sink as one bulk
/// `on_node_log(EncodedNodeLog)` call; when some sink wants bytes, the
/// node-log body is encoded once per node in the simulation workers and
/// shared by every sink.  `threads` > 1 parallelizes planning and session
/// simulation, overlapped with delivery; the emitted stream is
/// bit-identical for any thread count.  An exception from a sink or a
/// worker reaches the caller after every worker has stopped.
CampaignSummary run_campaign_streaming(
    const CampaignConfig& config,
    const std::vector<telemetry::RecordSink*>& sinks, std::size_t threads = 1);

/// Thread count the front ends simulate on by default: every hardware
/// thread.
[[nodiscard]] std::size_t default_campaign_threads() noexcept;

}  // namespace unp::sim
