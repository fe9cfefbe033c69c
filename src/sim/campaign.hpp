// Whole-campaign driver: wires topology, availability, the scheduler, the
// fault model and the session simulator into the 13-month monitoring
// campaign, streaming the telemetry every analysis consumes.
//
// Determinism: every stochastic component derives its stream from the one
// campaign seed; node timelines are independent, so the per-node work can
// be executed on any number of threads with bit-identical results.  The
// record stream is emitted to sinks in ascending node-index order no matter
// the thread count, so downstream consumers (archive, disk spill, streaming
// extraction) observe one canonical stream per seed.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/availability.hpp"
#include "cluster/topology.hpp"
#include "faults/suite.hpp"
#include "sched/planner.hpp"
#include "sim/session_sim.hpp"
#include "telemetry/archive.hpp"
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

/// Per-node accounting next to the raw archive.
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

/// A materialized campaign: the streaming run's summary plus the archive
/// the CampaignArchive sink collected.  Totals forward to the summary so
/// the accounting arithmetic exists once.
struct CampaignResult {
  CampaignSummary summary;
  telemetry::CampaignArchive archive;

  [[nodiscard]] double total_scanned_hours() const noexcept {
    return summary.total_scanned_hours();
  }
  [[nodiscard]] double total_terabyte_hours() const noexcept {
    return summary.total_terabyte_hours();
  }
};

/// The topology the campaign instantiates for `config` (deterministic; lets
/// consumers of a spilled record stream rebuild the fleet without rerunning
/// the simulation).
[[nodiscard]] cluster::Topology campaign_topology(const CampaignConfig& config);

// The exact component wiring run_campaign_streaming uses, exposed so
// out-of-band drivers (the closed-loop policy runner in src/policy, which
// must re-simulate individual node timelines under actuated scan plans) can
// reproduce the open-loop campaign bit-for-bit before layering their cuts.

/// Availability config with window + special administrative outages wired.
[[nodiscard]] cluster::AvailabilityModel::Config campaign_availability(
    const CampaignConfig& config);

/// Planner config with the campaign's derived scheduler seed.
[[nodiscard]] sched::ScanPlanner::Config campaign_planner_config(
    const CampaignConfig& config);

/// Sub-seed feeding fault generation (FaultModelSuite::generate).
[[nodiscard]] std::uint64_t campaign_fault_seed(
    const CampaignConfig& config) noexcept;

/// Sub-seed feeding per-node session simulation (simulate_node).
[[nodiscard]] std::uint64_t campaign_session_seed(
    const CampaignConfig& config) noexcept;

/// Stream the campaign through `sinks`.  Per-node records are pushed with
/// full framing (begin_campaign .. end_campaign, nodes ascending by index)
/// as soon as each node block completes; only a bounded block of node logs
/// is ever resident.  Each node reaches every sink as one bulk
/// `on_node_log(EncodedNodeLog)` call; when some sink wants bytes, the
/// node-log body is encoded once per node in the simulation workers and
/// shared by every sink.  `threads` > 1 parallelizes planning and session
/// simulation; the emitted stream is bit-identical for any thread count.
CampaignSummary run_campaign_streaming(
    const CampaignConfig& config,
    const std::vector<telemetry::RecordSink*>& sinks, std::size_t threads = 1);

/// Run the campaign and materialize the archive (the CampaignArchive sink
/// fed by run_campaign_streaming).
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config,
                                          std::size_t threads = 1);

/// Thread count used for the default campaign: every hardware thread.
[[nodiscard]] std::size_t default_campaign_threads() noexcept;

/// The calibrated default campaign (seed 42) used by every bench binary.
/// Simulated multithreaded on first use (identical to a 1-thread run).
[[nodiscard]] const CampaignResult& default_campaign();

}  // namespace unp::sim
