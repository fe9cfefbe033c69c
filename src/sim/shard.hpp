// Campaign partitioning: the first stage of the sharded fabric.
//
// A shard is a deterministic slice of the monitored fleet.  Every shard
// re-derives the full campaign environment — topology, availability, scan
// plans and the fleet-wide fault streams — from the same campaign seed via
// the same `campaign_fault_seed`/`campaign_session_seed` sub-seed helpers,
// then simulates sessions only for the nodes it owns.  Because
// `simulate_node` depends only on (config, node, plan, node events,
// session sub-seed), each owned node's record frame is byte-identical to
// the frame the monolithic `run_campaign_streaming` would emit.
//
// Partition invariant: monitored node at position j (of the index-sorted
// `Topology::monitored_nodes()` list) belongs to shard `j % count`.  The
// owned subset therefore stays ascending by node index, shards are disjoint
// and exhaustive, and a stable merge of the K shard record streams on the
// node-index key reproduces the monolithic stream byte for byte
// (telemetry::ShardMergeReader is that merge).
//
// Round-robin (rather than contiguous block) assignment balances load: the
// loud nodes of the study (the pathological node, the degrading node, the
// overheating neighbourhood) sit in adjacent slots, and block partitions
// would hand one shard most of the simulation work.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/campaign.hpp"

namespace unp::sim {

/// Identifies one shard of a K-way partition.  The monolithic campaign is
/// the trivial partition {count = 1, index = 0}.
struct ShardSpec {
  int count = 1;  ///< K, total shards in the partition
  int index = 0;  ///< this shard, in [0, count)

  [[nodiscard]] bool is_monolithic() const noexcept {
    return count == 1 && index == 0;
  }

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// Version of the ownership rule + sub-seed derivation above.  Mixed into
/// cache fingerprints so archives produced under a different partition
/// algebra can never be mistaken for one another.
inline constexpr std::uint64_t kShardDerivationVersion = 1;

/// The monitored nodes shard `spec` owns (ascending node index).
[[nodiscard]] std::vector<cluster::NodeId> shard_nodes(
    const cluster::Topology& topology, const ShardSpec& spec);

/// The partition of one campaign: which nodes this shard simulates.
struct ShardPlan {
  ShardSpec spec;
  std::vector<cluster::NodeId> nodes;  ///< owned nodes, ascending index
};

[[nodiscard]] ShardPlan plan_shard(const cluster::Topology& topology,
                                   const ShardSpec& spec);

/// Run one shard of the campaign, streaming the owned nodes' records to
/// `sinks` with full framing (begin_campaign .. end_campaign, owned nodes
/// ascending by index), one bulk `on_node_log` per node exactly as
/// run_campaign_streaming delivers them.  The returned summary is filtered
/// to the shard: `ground_truth` and `accounting` cover owned nodes only, so
/// the K shard summaries concatenate (stably, by ground-truth order / node
/// index) into the monolithic summary.
/// `run_campaign_streaming(config, sinks, threads)` is exactly
/// `run_campaign_shard(config, ShardSpec{}, sinks, threads)`.
CampaignSummary run_campaign_shard(const CampaignConfig& config,
                                   const ShardSpec& spec,
                                   const std::vector<telemetry::RecordSink*>& sinks,
                                   std::size_t threads = 1);

}  // namespace unp::sim
