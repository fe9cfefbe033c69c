#include "sim/campaign.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "sim/shard.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::sim {

double CampaignSummary::total_scanned_hours() const noexcept {
  double total = 0.0;
  for (const auto& a : accounting) total += a.scanned_hours;
  return total;
}

double CampaignSummary::total_terabyte_hours() const noexcept {
  double total = 0.0;
  for (const auto& a : accounting) total += a.terabyte_hours;
  return total;
}

cluster::Topology campaign_topology(const CampaignConfig& config) {
  cluster::Topology::Config topo_config = config.topology;
  topo_config.seed = mix64(config.seed, 0x70B0);
  return cluster::Topology(topo_config);
}

cluster::AvailabilityModel::Config campaign_availability(
    const CampaignConfig& config) {
  cluster::AvailabilityModel::Config avail = config.availability;
  avail.window = config.window;
  if (!config.wire_special_outages) return avail;

  // The degrading node went unmonitored from late November except a short
  // December re-test (Section III-H explains Fig 12's silent stretches).
  const cluster::NodeId degrading = config.faults.degrading.node;
  avail.extra_outages.push_back(
      {degrading,
       {from_civil_utc({2015, 11, 26, 12, 0, 0}),
        from_civil_utc({2015, 12, 12, 9, 0, 0})}});
  avail.extra_outages.push_back(
      {degrading,
       {from_civil_utc({2015, 12, 14, 21, 0, 0}), config.window.end}});

  // The pathological node left the scheduler pool at its removal date.
  avail.extra_outages.push_back(
      {config.faults.pathological.node,
       {config.faults.pathological.removal, config.window.end}});
  return avail;
}

sched::ScanPlanner::Config campaign_planner_config(const CampaignConfig& config) {
  sched::ScanPlanner::Config planner_config = config.planner;
  planner_config.seed = mix64(config.seed, 0x51A2);
  return planner_config;
}

std::uint64_t campaign_fault_seed(const CampaignConfig& config) noexcept {
  return mix64(config.seed, 0xFA17);
}

std::uint64_t campaign_session_seed(const CampaignConfig& config) noexcept {
  return mix64(config.seed, 0x5E55);
}

namespace {

/// Per-slot scratch for phase 3: everything a worker touches while turning
/// one node's fault events into (optionally pre-encoded) telemetry.  A slot
/// is allocated once and reused for every block, so steady-state
/// simulation+encoding allocates nothing per node.
struct NodeSlot {
  telemetry::NodeLog log;
  SessionSimArena sim;
  std::string encoded;  ///< pre-encoded node-log body
};

}  // namespace

CampaignSummary run_campaign_shard(const CampaignConfig& config,
                                   const ShardSpec& spec,
                                   const std::vector<telemetry::RecordSink*>& sinks,
                                   std::size_t threads) {
  UNP_REQUIRE(threads >= 1);
  UNP_REQUIRE(spec.count >= 1);
  UNP_REQUIRE(spec.index >= 0 && spec.index < spec.count);

  CampaignSummary summary{campaign_topology(config), {}, {}};

  const cluster::AvailabilityModel availability(campaign_availability(config));
  const sched::ScanPlanner planner(campaign_planner_config(config));

  const auto& nodes = summary.topology.monitored_nodes();
  const std::size_t n = nodes.size();

  // Phase 1: per-node scan plans (parallel, order-independent).  Every shard
  // builds the plans of the WHOLE fleet: the fleet-wide fault generation
  // below consumes every node's plan and scanned hours, and re-deriving them
  // is what keeps each shard's random streams bit-identical to the
  // monolithic run's.  Planning is cheap next to session simulation, which
  // is the phase sharding actually divides.
  std::vector<sched::ScanPlan> plans(n);
  auto build_plan = [&](std::size_t i) {
    plans[i] = planner.plan(nodes[i], availability.build(nodes[i]));
  };
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  if (pool) {
    pool->parallel_for(n, build_plan);
  } else {
    for (std::size_t i = 0; i < n; ++i) build_plan(i);
  }

  // Phase 2: fleet-wide fault generation (sequential; fleet-level streams),
  // identical in every shard for the same campaign seed.
  std::vector<faults::NodeContext> contexts(n);
  for (std::size_t i = 0; i < n; ++i) {
    contexts[i].node = nodes[i];
    contexts[i].plan = &plans[i];
    contexts[i].scanned_hours = plans[i].scanned_hours();
    contexts[i].near_overheating_slot =
        nodes[i].soc == cluster::kOverheatingSoc - 1 ||
        nodes[i].soc == cluster::kOverheatingSoc + 1;
  }
  const faults::FaultModelSuite suite(config.faults);
  std::vector<faults::FaultEvent> fleet_truth =
      suite.generate(contexts, campaign_fault_seed(config));

  // Partition events per node as index lists into the shared fleet vector —
  // the events themselves (with their heap word lists) are never copied on
  // the hot path; workers read them in place.
  UNP_REQUIRE(fleet_truth.size() <= 0xFFFFFFFFull);
  std::vector<std::vector<std::uint32_t>> per_node(
      static_cast<std::size_t>(cluster::kStudyNodeSlots));
  for (std::size_t e = 0; e < fleet_truth.size(); ++e) {
    per_node[static_cast<std::size_t>(cluster::node_index(fleet_truth[e].node))]
        .push_back(static_cast<std::uint32_t>(e));
  }

  // Ownership: monitored position j belongs to shard j % count (see
  // shard.hpp).  `owned` holds positions into `nodes`, still ascending.
  std::vector<std::size_t> owned;
  owned.reserve(n / static_cast<std::size_t>(spec.count) + 1);
  for (std::size_t j = 0; j < n; ++j) {
    if (j % static_cast<std::size_t>(spec.count) ==
        static_cast<std::size_t>(spec.index)) {
      owned.push_back(j);
    }
  }

  // The shard summary covers owned nodes only; filtering the time-sorted
  // fleet truth preserves its order, so shard truths interleave back into
  // the monolithic vector.  The monolithic move happens after phase 3 —
  // workers read events out of fleet_truth until the last block is emitted.
  if (!spec.is_monolithic()) {
    std::vector<bool> owned_slot(
        static_cast<std::size_t>(cluster::kStudyNodeSlots), false);
    for (std::size_t j = 0; j < n; ++j) {
      if (j % static_cast<std::size_t>(spec.count) ==
          static_cast<std::size_t>(spec.index)) {
        owned_slot[static_cast<std::size_t>(cluster::node_index(nodes[j]))] =
            true;
      }
    }
    for (const auto& ev : fleet_truth) {
      if (owned_slot[static_cast<std::size_t>(cluster::node_index(ev.node))]) {
        summary.ground_truth.push_back(ev);
      }
    }
  }

  // Phase 3: per-node session simulation of the owned nodes, streamed out
  // block by block.  Workers fill a block of node logs in parallel; the
  // block is then emitted to every sink in ascending node order and freed,
  // so at most one block of logs is resident at a time and the stream is
  // identical for any thread count (monitored_nodes() is index-sorted and
  // the ownership filter preserves that order).
  for (auto* sink : sinks) sink->begin_campaign(config.window);

  const std::uint64_t session_seed = campaign_session_seed(config);
  const std::size_t block = std::max<std::size_t>(threads * 8, 32);
  // Pre-encode node-log bodies in the workers only when some sink will
  // actually consume bytes; record-routing sinks never pay for encoding.
  bool wants_encoded = false;
  for (const auto* sink : sinks)
    wants_encoded = wants_encoded || sink->wants_encoded_node_log();

  std::vector<NodeSlot> slots(std::min(block, owned.size()));
  summary.accounting.resize(owned.size());
  for (std::size_t base = 0; base < owned.size(); base += block) {
    const std::size_t count = std::min(block, owned.size() - base);
    auto simulate = [&](std::size_t i) {
      const std::size_t j = owned[base + i];
      const cluster::NodeId node = nodes[j];
      NodeSlot& s = slots[i];
      // Zero-copy: simulate straight off the shared fleet-truth events.
      simulate_node_shared_into(
          config.session, node, plans[j],
          cluster::Topology::is_overheating_slot(node), session_seed,
          fleet_truth,
          per_node[static_cast<std::size_t>(cluster::node_index(node))], s.sim,
          s.log);
      if (wants_encoded) {
        s.encoded.clear();
        telemetry::encode_node_log_into(s.log, s.encoded);
      }
    };
    if (pool) {
      pool->parallel_for(count, simulate);
    } else {
      for (std::size_t i = 0; i < count; ++i) simulate(i);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j = owned[base + i];
      const cluster::NodeId node = nodes[j];
      NodeSlot& s = slots[i];
      // One EncodedNodeLog shared across sinks: the body is encoded at most
      // once per node (already done in the worker if any sink wants bytes)
      // and spliced — never re-encoded, never re-copied per sink.
      telemetry::EncodedNodeLog enc_log(node, s.log, s.encoded, wants_encoded);
      for (auto* sink : sinks) {
        sink->begin_node(node);
        sink->on_node_log(enc_log);
        sink->end_node(node);
      }
      summary.accounting[base + i] = {node, plans[j].scanned_hours(),
                                      plans[j].terabyte_hours(),
                                      plans[j].sessions.size()};
    }
  }

  for (auto* sink : sinks) sink->end_campaign();
  if (spec.is_monolithic()) summary.ground_truth = std::move(fleet_truth);
  return summary;
}

CampaignSummary run_campaign_streaming(
    const CampaignConfig& config,
    const std::vector<telemetry::RecordSink*>& sinks, std::size_t threads) {
  return run_campaign_shard(config, ShardSpec{}, sinks, threads);
}

CampaignResult run_campaign(const CampaignConfig& config, std::size_t threads) {
  telemetry::CampaignArchive archive(config.window);
  CampaignSummary summary = run_campaign_streaming(config, {&archive}, threads);
  return CampaignResult{std::move(summary), std::move(archive)};
}

std::size_t default_campaign_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

const CampaignResult& default_campaign() {
  static const CampaignResult result =
      run_campaign(CampaignConfig{}, default_campaign_threads());
  return result;
}

}  // namespace unp::sim
