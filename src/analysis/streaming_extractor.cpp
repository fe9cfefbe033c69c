#include "analysis/streaming_extractor.hpp"

#include "common/require.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::analysis {

StreamingExtractor::StreamingExtractor(ExtractionConfig config)
    : config_(config),
      pending_(static_cast<std::size_t>(cluster::kStudyNodeSlots)),
      pending_bodies_(static_cast<std::size_t>(cluster::kStudyNodeSlots)),
      collapsed_(static_cast<std::size_t>(cluster::kStudyNodeSlots)),
      raw_per_node_(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0) {}

void StreamingExtractor::begin_campaign(const CampaignWindow&) {
  // Reset so a partially-fed extractor (torn cache replay that fell back to
  // a fresh simulation pass) starts clean when the stream re-opens.
  pending_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), {});
  pending_bodies_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots),
                         {});
  collapsed_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), {});
  raw_per_node_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0);
  raw_total_ = 0;
  sessions_ = 0;
  finished_ = false;
}

void StreamingExtractor::on_start(const telemetry::StartRecord&) { ++sessions_; }

void StreamingExtractor::on_end(const telemetry::EndRecord&) {}

void StreamingExtractor::on_alloc_fail(const telemetry::AllocFailRecord&) {}

void StreamingExtractor::on_error_run(const telemetry::ErrorRun& r) {
  UNP_REQUIRE(!finished_);
  const auto index =
      static_cast<std::size_t>(cluster::node_index(r.first.node));
  unpack_body(index);
  pending_[index].add_error_run(r);
  raw_per_node_[index] += r.count;
  raw_total_ += r.count;
}

void StreamingExtractor::on_node_log(telemetry::EncodedNodeLog& enc) {
  UNP_REQUIRE(!finished_);
  const auto index = static_cast<std::size_t>(cluster::node_index(enc.node()));
  const std::uint64_t raw = enc.raw_error_count();
  sessions_ += enc.sessions().starts().size();
  raw_per_node_[index] += raw;
  raw_total_ += raw;
  if (enc.error_run_count() == 0) return;
  if (observer_) {
    // The observer is owed these faults at end_node, so the runs outlive
    // the producer's log.
    unpack_body(index);
    pending_[index].add_error_runs(enc.log().error_runs());
    return;
  }
  if (deferred(index)) {
    // A filter candidate waits for finish(), most likely to be dropped
    // there: keep its encoded body, shared with the producer (node 21-07's
    // is ~42 MB, its runs ~150 MB), and decode it only if the filter keeps
    // the node.
    unpack_body(index);
    pending_bodies_[index] = enc.share_body();
    return;
  }
  add_faults(index,
             collapse_node_log(enc.node(), enc.log(), config_.merge_window_s));
}

void StreamingExtractor::end_node(cluster::NodeId node) {
  const auto index = static_cast<std::size_t>(cluster::node_index(node));
  if (!deferred(index)) collapse_pending(index);
}

bool StreamingExtractor::deferred(std::size_t index) const noexcept {
  return !observer_ && raw_per_node_[index] >= config_.pathological_min_raw;
}

void StreamingExtractor::unpack_body(std::size_t index) {
  telemetry::SharedBody& held = pending_bodies_[index];
  if (!held.bytes) return;
  // The body was validated at delivery (or encoded in this process), so
  // this decode cannot throw.  Its runs land after the node's pending ones.
  const cluster::NodeId node = cluster::node_from_index(static_cast<int>(index));
  std::size_t pos = held.runs_at;
  telemetry::decode_error_runs(*held.bytes, pos, node, pending_[index]);
  held = {};
}

void StreamingExtractor::collapse_pending(std::size_t index) {
  unpack_body(index);
  telemetry::NodeLog& log = pending_[index];
  if (log.error_runs().empty()) return;
  const cluster::NodeId node = cluster::node_from_index(static_cast<int>(index));
  auto faults = collapse_node_log(node, log, config_.merge_window_s);
  log = telemetry::NodeLog{};  // free the raw runs mid-stream
  add_faults(index, std::move(faults));
}

void StreamingExtractor::add_faults(std::size_t index,
                                    std::vector<FaultRecord> faults) {
  if (observer_)
    observer_(cluster::node_from_index(static_cast<int>(index)), faults);
  auto& bucket = collapsed_[index];
  if (bucket.empty()) {
    bucket = std::move(faults);
  } else {
    bucket.insert(bucket.end(), faults.begin(), faults.end());
  }
}

ExtractionResult StreamingExtractor::finish() {
  UNP_REQUIRE(!finished_);
  finished_ = true;

  // Mirror extract_faults exactly: node-index order, campaign-wide
  // pathological filter, then the global deterministic sort.
  ExtractionResult result;
  result.total_raw_logs = raw_total_;
  for (std::size_t i = 0; i < collapsed_.size(); ++i) {
    const std::uint64_t raw = raw_per_node_[i];
    const bool pathological = is_pathological(raw, raw_total_, config_);
    // Kept filter candidates, and anything streamed without an end_node
    // frame, collapse here.  A removed node is freed uncollapsed unless an
    // observer is still owed its faults.
    if (!pathological || observer_) collapse_pending(i);
    pending_[i] = telemetry::NodeLog{};
    pending_bodies_[i] = {};
    if (raw == 0) continue;

    if (pathological) {
      result.removed_nodes.push_back(
          cluster::node_from_index(static_cast<int>(i)));
      result.removed_raw_logs += raw;
      continue;
    }
    result.faults.insert(result.faults.end(), collapsed_[i].begin(),
                         collapsed_[i].end());
  }

  sort_canonical(result.faults);
  return result;
}

}  // namespace unp::analysis
