#include "sim/campaign.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
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

namespace {

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

/// One resident node log: what a worker fills while turning one node's
/// fault events into (optionally pre-encoded) telemetry, until the calling
/// thread has handed it to the sinks.  A ring slot is reused for every
/// node that maps to it, so steady-state simulation+encoding allocates
/// nothing per node.  The costliest node's slot holds its assembled body
/// instead when that node was split.
struct NodeSlot {
  telemetry::NodeLog log;
  std::string encoded;  ///< pre-encoded node-log body
  std::size_t runs_at = 0;  ///< where `encoded`'s run section begins
  std::uint64_t raw = 0;  ///< log.raw_error_count(), summed in the worker
  std::optional<telemetry::NodeBody> body;  ///< the split node's, when set
  bool done = false;    ///< filled and not yet delivered (pipeline mutex)
};

/// The ordered pipeline of phase 3.  Workers first run the costliest
/// node's chunks (the worker whose chunk completes the node's body moves
/// it into a slot of its own), or simulate that node whole into its slot
/// when it is not split, then simulate the other owned nodes
/// ascending through a ring of `ring` slots, while the calling thread
/// delivers nodes in ascending order as soon as each is done.  A worker
/// takes a ring slot only once the node that used it last has been
/// delivered, so at most `ring` + 1 logs are resident.
///
/// Owned positions are indices into the shard's ascending owned list; a
/// position's ring rank is its index among the positions other than
/// `costly`.
class NodePipeline {
 public:
  using Simulate =
      std::function<void(std::size_t, NodeSlot&, SessionSimArena&)>;
  using Deliver = std::function<void(std::size_t, NodeSlot&)>;

  /// `split` is the costliest node's, or null to simulate it whole.
  NodePipeline(std::size_t owned, std::size_t costly, NodeSplit* split,
               std::size_t ring)
      : owned_(owned),
        costly_(costly),
        split_(split),
        head_(split != nullptr ? split->chunks() : 1),
        tasks_(head_ + owned - 1),
        ring_(ring) {}

  /// Run `lanes` workers on `pool` and deliver on the calling thread.  An
  /// exception from a worker or from `deliver` stops dispatch and is
  /// rethrown only after every worker has returned, so no slot is touched
  /// once the pipeline unwinds.
  void run(ThreadPool& pool, std::size_t lanes, const Simulate& simulate,
           const Deliver& deliver) {
    for (std::size_t lane = 0; lane < lanes; ++lane)
      pool.submit([this, &simulate] { work(simulate); });
    try {
      for (std::size_t p = 0; p < owned_; ++p) {
        NodeSlot& slot = slot_of(p);
        {
          std::unique_lock lock(mutex_);
          done_cv_.wait(lock, [&] { return stop_ || slot.done; });
          if (stop_) break;
        }
        deliver(p, slot);
        {
          const std::lock_guard lock(mutex_);
          slot.done = false;
          if (p != costly_) ++delivered_ranks_;
        }
        free_cv_.notify_all();
      }
    } catch (...) {
      fail(std::current_exception());
    }
    pool.wait_idle();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  /// The slot owned position `p` fills.
  [[nodiscard]] NodeSlot& slot_of(std::size_t p) noexcept {
    return p == costly_ ? costly_slot_ : ring_[rank_of(p) % ring_.size()];
  }

  [[nodiscard]] std::size_t rank_of(std::size_t p) const noexcept {
    return p > costly_ ? p - 1 : p;
  }

  /// Dispatch order: the costliest node (whole, or its chunks), then the
  /// other positions ascending.  Returns the position of a task past it.
  [[nodiscard]] std::size_t position(std::size_t task) const noexcept {
    const std::size_t rank = task - head_;
    return rank < costly_ ? rank : rank + 1;
  }

  void work(const Simulate& simulate) {
    SessionSimArena arena;  // this lane's scratch, reused across its nodes
    for (;;) {
      std::size_t task = 0;
      std::size_t p = costly_;
      {
        std::unique_lock lock(mutex_);
        if (stop_ || next_task_ == tasks_) return;
        task = next_task_++;
        if (task >= head_) {
          p = position(task);
          const std::size_t rank = rank_of(p);
          free_cv_.wait(lock, [&] {
            return stop_ || rank < delivered_ranks_ + ring_.size();
          });
          if (stop_) return;
        }
      }
      NodeSlot& slot = slot_of(p);
      try {
        if (p != costly_ || split_ == nullptr) {
          simulate(p, slot, arena);
        } else {
          if (!split_->run_chunk(task, arena)) continue;
          slot.body = split_->take_body();
        }
      } catch (...) {
        fail(std::current_exception());
        return;
      }
      {
        const std::lock_guard lock(mutex_);
        slot.done = true;
      }
      done_cv_.notify_all();
    }
  }

  void fail(std::exception_ptr error) {
    {
      const std::lock_guard lock(mutex_);
      if (!error_) error_ = std::move(error);
      stop_ = true;
    }
    done_cv_.notify_all();
    free_cv_.notify_all();
  }

  const std::size_t owned_;
  const std::size_t costly_;
  NodeSplit* split_;
  const std::size_t head_;  ///< tasks of the costliest node
  const std::size_t tasks_;
  std::vector<NodeSlot> ring_;
  NodeSlot costly_slot_;

  std::mutex mutex_;
  std::condition_variable done_cv_;  ///< a slot became done, or stop
  std::condition_variable free_cv_;  ///< a ring slot was delivered, or stop
  std::size_t next_task_ = 0;
  std::size_t delivered_ranks_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace

std::vector<faults::FaultEvent> CampaignPlan::events_of(
    cluster::NodeId node) const {
  std::vector<faults::FaultEvent> events;
  const auto& indices =
      node_events[static_cast<std::size_t>(cluster::node_index(node))];
  events.reserve(indices.size());
  for (const std::uint32_t e : indices) events.push_back(ground_truth[e]);
  return events;
}

CampaignPlan plan_campaign(const CampaignConfig& config, ThreadPool* pool) {
  CampaignPlan plan{campaign_topology(config), {}, {}, {},
                    campaign_session_seed(config)};

  const cluster::AvailabilityModel availability(campaign_availability(config));
  const sched::ScanPlanner planner(campaign_planner_config(config));

  const auto& nodes = plan.topology.monitored_nodes();
  const std::size_t n = nodes.size();

  // Phase 1: per-node scan plans (parallel, order-independent).
  plan.plans.resize(n);
  auto build_plan = [&](std::size_t i) {
    plan.plans[i] = planner.plan(nodes[i], availability.build(nodes[i]));
  };
  if (pool) {
    pool->parallel_for(n, build_plan);
  } else {
    for (std::size_t i = 0; i < n; ++i) build_plan(i);
  }

  // Phase 2: fleet-wide fault generation (sequential; fleet-level streams).
  std::vector<faults::NodeContext> contexts(n);
  for (std::size_t i = 0; i < n; ++i) {
    contexts[i].node = nodes[i];
    contexts[i].plan = &plan.plans[i];
    contexts[i].scanned_hours = plan.plans[i].scanned_hours();
    contexts[i].near_overheating_slot =
        nodes[i].soc == cluster::kOverheatingSoc - 1 ||
        nodes[i].soc == cluster::kOverheatingSoc + 1;
  }
  const faults::FaultModelSuite suite(config.faults);
  plan.ground_truth = suite.generate(contexts, campaign_fault_seed(config));

  // Partition events per node as index lists into the shared fleet vector —
  // the events themselves (with their heap word lists) are never copied on
  // the hot path; simulation workers read them in place.
  UNP_REQUIRE(plan.ground_truth.size() <= 0xFFFFFFFFull);
  plan.node_events.resize(static_cast<std::size_t>(cluster::kStudyNodeSlots));
  for (std::size_t e = 0; e < plan.ground_truth.size(); ++e) {
    plan.node_events[static_cast<std::size_t>(
                         cluster::node_index(plan.ground_truth[e].node))]
        .push_back(static_cast<std::uint32_t>(e));
  }
  return plan;
}

CampaignSummary run_campaign_shard(const CampaignConfig& config,
                                   const ShardSpec& spec,
                                   const std::vector<telemetry::RecordSink*>& sinks,
                                   std::size_t threads) {
  UNP_REQUIRE(threads >= 1);
  UNP_REQUIRE(spec.count >= 1);
  UNP_REQUIRE(spec.index >= 0 && spec.index < spec.count);

  // Phases 1-2: scan plans and the fleet-wide fault generation.  Every
  // shard plans the WHOLE fleet: fault generation consumes every node's plan
  // and scanned hours, and re-deriving them is what keeps each shard's
  // random streams bit-identical to the monolithic run's.  Planning is cheap
  // next to session simulation, which is the phase sharding actually
  // divides.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  CampaignPlan plan = plan_campaign(config, pool.get());
  const std::vector<sched::ScanPlan>& plans = plan.plans;
  const std::vector<faults::FaultEvent>& fleet_truth = plan.ground_truth;

  CampaignSummary summary{std::move(plan.topology), {}, {}};
  const auto& nodes = summary.topology.monitored_nodes();
  const std::size_t n = nodes.size();

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
  // workers read events out of fleet_truth until the last node is simulated.
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
  // node by node.  The calling thread hands each node to every sink in
  // ascending node order (monitored_nodes() is index-sorted and the
  // ownership filter preserves that order), so the stream is identical for
  // any thread count; sinks are only ever called from this thread.
  for (auto* sink : sinks) sink->begin_campaign(config.window);

  // Pre-encode node-log bodies in the workers only when some sink will
  // actually consume bytes; record-routing sinks never pay for encoding.
  bool wants_encoded = false;
  for (const auto* sink : sinks)
    wants_encoded = wants_encoded || sink->wants_encoded_node_log();

  const auto events_of = [&](std::size_t p) {
    return std::span<const std::uint32_t>(plan.node_events[static_cast<
        std::size_t>(cluster::node_index(nodes[owned[p]]))]);
  };

  // Every owned node's exact error-run count and per-session tallies: the
  // count sizes each node's log once and names the costliest node, whose
  // tallies split it.
  std::vector<std::size_t> runs(owned.size());
  std::vector<std::vector<SessionTally>> tallies(owned.size());
  const auto count = [&](std::size_t p) {
    SessionSimArena arena;
    runs[p] = count_node_runs(config.session, plans[owned[p]], fleet_truth,
                              events_of(p), arena, tallies[p]);
  };
  if (pool) {
    pool->parallel_for(owned.size(), count);
  } else {
    for (std::size_t p = 0; p < owned.size(); ++p) count(p);
  }
  const std::size_t costly = static_cast<std::size_t>(
      std::max_element(runs.begin(), runs.end()) - runs.begin());

  summary.accounting.resize(owned.size());
  for (std::size_t p = 0; p < owned.size(); ++p) {
    const sched::ScanPlan& node_plan = plans[owned[p]];
    summary.accounting[p] = {nodes[owned[p]], node_plan.scanned_hours(),
                             node_plan.terabyte_hours(),
                             node_plan.sessions.size()};
  }

  const auto simulate = [&](std::size_t p, NodeSlot& slot,
                            SessionSimArena& arena) {
    const cluster::NodeId node = nodes[owned[p]];
    // Zero-copy: simulate straight off the shared fleet-truth events.
    simulate_node_shared_into(config.session, node, plans[owned[p]],
                              cluster::Topology::is_overheating_slot(node),
                              plan.session_seed, fleet_truth, events_of(p),
                              runs[p], arena, slot.log);
    slot.raw = slot.log.raw_error_count();
    if (wants_encoded) {
      slot.encoded.clear();
      slot.runs_at = telemetry::encode_node_log_into(slot.log, slot.encoded);
    }
  };
  const auto deliver = [&](std::size_t p, NodeSlot& slot) {
    const cluster::NodeId node = nodes[owned[p]];
    const auto send = [&](telemetry::EncodedNodeLog& frame) {
      for (auto* sink : sinks) {
        sink->begin_node(node);
        sink->on_node_log(frame);
        sink->end_node(node);
      }
    };
    if (slot.body) {
      // The split costliest node: its body is the frame's own, so a sink
      // that keeps it (the streaming extractor's filter candidate) takes
      // it without a copy, and its runs are decoded only if a sink reads
      // them.
      telemetry::EncodedNodeLog frame(node, std::move(*slot.body));
      slot.body.reset();
      send(frame);
      return;
    }
    // One EncodedNodeLog shared across sinks: the body is encoded at most
    // once per node (already done in the worker if any sink wants bytes)
    // and spliced — never re-encoded, never re-copied per sink.  The raw
    // total was summed in the worker too.
    telemetry::EncodedNodeLog frame(node, slot.log, slot.encoded);
    if (wants_encoded) frame.set_encoded(slot.runs_at);
    frame.set_raw_error_count(slot.raw);
    // The costliest log is freed below anyway, so a sink that keeps its
    // body (the streaming extractor's filter candidate) takes it without a
    // copy.
    if (p == costly) frame.adopt_body();
    send(frame);
    // The costliest log is an outlier; no later node reuses its capacity.
    if (p == costly) {
      slot.log = telemetry::NodeLog{};
      std::string().swap(slot.encoded);
    }
  };

  if (!owned.empty()) {
    // When some sink wants bytes, the costliest node runs as chunks of its
    // walk, one per lane, so it no longer holds one worker for the whole
    // campaign.  Record-reading sinks take it as a whole log instead: a
    // split node reaches them as a body they would decode again, and its
    // per-lane run buffers stay in the lanes' malloc arenas once freed.
    std::optional<NodeSplit> split;
    if (wants_encoded) {
      const cluster::NodeId node = nodes[owned[costly]];
      split.emplace(config.session, node, plans[owned[costly]],
                    cluster::Topology::is_overheating_slot(node),
                    plan.session_seed, fleet_truth, events_of(costly),
                    tallies[costly], threads);
    }
    tallies = {};

    if (!pool) {
      NodeSlot slot;
      SessionSimArena arena;
      for (std::size_t p = 0; p < owned.size(); ++p) {
        if (p == costly && split) {
          for (std::size_t k = 0; k < split->chunks(); ++k)
            (void)split->run_chunk(k, arena);
          slot.body = split->take_body();
        } else {
          simulate(p, slot, arena);
        }
        deliver(p, slot);
      }
    } else {
      // At most this many logs are resident: the ring plus the costliest's
      // own slot.
      const std::size_t resident = std::max<std::size_t>(threads * 8, 32);
      NodePipeline pipeline(owned.size(), costly, split ? &*split : nullptr,
                            std::min(resident - 1, owned.size() - 1));
      pipeline.run(*pool, threads, simulate, deliver);
    }
  }

  for (auto* sink : sinks) sink->end_campaign();
  if (spec.is_monolithic()) summary.ground_truth = std::move(plan.ground_truth);
  return summary;
}

CampaignSummary run_campaign_streaming(
    const CampaignConfig& config,
    const std::vector<telemetry::RecordSink*>& sinks, std::size_t threads) {
  return run_campaign_shard(config, ShardSpec{}, sinks, threads);
}

std::size_t default_campaign_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace unp::sim
