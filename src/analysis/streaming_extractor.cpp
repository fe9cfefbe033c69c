#include "analysis/streaming_extractor.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "telemetry/archive.hpp"

namespace unp::analysis {

StreamingExtractor::StreamingExtractor(ExtractionConfig config)
    : config_(config),
      pending_(static_cast<std::size_t>(cluster::kStudyNodeSlots)),
      collapsed_(static_cast<std::size_t>(cluster::kStudyNodeSlots)),
      raw_per_node_(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0) {}

void StreamingExtractor::begin_campaign(const CampaignWindow&) {
  // Reset so a partially-fed extractor (torn cache replay that fell back to
  // a fresh simulation pass) starts clean when the stream re-opens.
  pending_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), {});
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
  pending_[index].add_error_run(r);
  raw_per_node_[index] += r.count;
  raw_total_ += r.count;
}

void StreamingExtractor::on_node_log(telemetry::EncodedNodeLog& enc) {
  UNP_REQUIRE(!finished_);
  const telemetry::NodeLog& log = enc.log();
  const auto index = static_cast<std::size_t>(cluster::node_index(enc.node()));
  const std::uint64_t raw = log.raw_error_count();
  sessions_ += log.starts().size();
  raw_per_node_[index] += raw;
  raw_total_ += raw;
  if (log.error_runs().empty()) return;
  if (observer_ || deferred(index)) {
    // The observer is owed these faults at end_node; a filter candidate
    // waits for finish().  Either way the runs outlive the producer's log.
    pending_[index].add_error_runs(log.error_runs());
    return;
  }
  add_faults(index,
             collapse_node_log(enc.node(), log, config_.merge_window_s));
}

void StreamingExtractor::end_node(cluster::NodeId node) {
  const auto index = static_cast<std::size_t>(cluster::node_index(node));
  if (!deferred(index)) collapse_pending(index);
}

bool StreamingExtractor::deferred(std::size_t index) const noexcept {
  return !observer_ && raw_per_node_[index] >= config_.pathological_min_raw;
}

void StreamingExtractor::collapse_pending(std::size_t index) {
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
    const bool pathological =
        raw >= config_.pathological_min_raw &&
        static_cast<double>(raw) >
            config_.pathological_raw_fraction *
                static_cast<double>(result.total_raw_logs);
    // Kept filter candidates, and anything streamed without an end_node
    // frame, collapse here.  A removed node is freed uncollapsed unless an
    // observer is still owed its faults.
    if (!pathological || observer_) collapse_pending(i);
    pending_[i] = telemetry::NodeLog{};
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

  std::sort(result.faults.begin(), result.faults.end(),
            [](const FaultRecord& a, const FaultRecord& b) {
              if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
              const int na = cluster::node_index(a.node);
              const int nb = cluster::node_index(b.node);
              if (na != nb) return na < nb;
              return a.virtual_address < b.virtual_address;
            });
  return result;
}

}  // namespace unp::analysis
