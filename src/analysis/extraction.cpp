#include "analysis/extraction.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/require.hpp"

namespace unp::analysis {

std::vector<FaultRecord> collapse_node_log(cluster::NodeId node,
                                           const telemetry::NodeLog& log,
                                           std::int64_t merge_window_s) {
  UNP_REQUIRE(merge_window_s >= 0);

  // Bucket runs by address, keeping (first, last, raw count, context).
  struct Span {
    TimePoint first;
    TimePoint last;
    std::uint64_t raw;
    Word expected;
    Word actual;
    double temperature;
  };
  std::unordered_map<std::uint64_t, std::vector<Span>> by_address;
  for (const auto& run : log.error_runs()) {
    by_address[run.first.virtual_address].push_back(
        {run.first.time, run.last_time(), run.count, run.first.expected,
         run.first.actual, run.first.temperature_c});
  }

  std::vector<FaultRecord> out;
  for (auto& [address, spans] : by_address) {
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.first < b.first; });

    FaultRecord current;
    bool open = false;
    auto flush = [&] {
      if (open) out.push_back(current);
      open = false;
    };
    for (const auto& span : spans) {
      if (open && span.first - current.last_seen <= merge_window_s) {
        current.last_seen = std::max(current.last_seen, span.last);
        current.raw_logs += span.raw;
        continue;
      }
      flush();
      current = FaultRecord{node,          span.first,    span.last,
                            span.raw,      address,       span.expected,
                            span.actual,   span.temperature};
      open = true;
    }
    flush();
  }

  sort_canonical(out);
  return out;
}

bool is_pathological(std::uint64_t node_raw, std::uint64_t total_raw,
                     const ExtractionConfig& config) noexcept {
  return node_raw >= config.pathological_min_raw &&
         static_cast<double>(node_raw) >
             config.pathological_raw_fraction * static_cast<double>(total_raw);
}

void sort_canonical(std::vector<FaultRecord>& faults) {
  std::sort(faults.begin(), faults.end(),
            [](const FaultRecord& a, const FaultRecord& b) {
              if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
              const int na = cluster::node_index(a.node);
              const int nb = cluster::node_index(b.node);
              if (na != nb) return na < nb;
              return a.virtual_address < b.virtual_address;
            });
}

ExtractionResult extract_faults(std::span<const telemetry::NodeLog> logs,
                                const ExtractionConfig& config) {
  UNP_REQUIRE(logs.size() <= static_cast<std::size_t>(cluster::kStudyNodeSlots));
  ExtractionResult result;
  for (const auto& log : logs) result.total_raw_logs += log.raw_error_count();

  for (std::size_t i = 0; i < logs.size(); ++i) {
    const cluster::NodeId node = cluster::node_from_index(static_cast<int>(i));
    const telemetry::NodeLog& log = logs[i];
    const std::uint64_t raw = log.raw_error_count();
    if (raw == 0) continue;

    if (is_pathological(raw, result.total_raw_logs, config)) {
      result.removed_nodes.push_back(node);
      result.removed_raw_logs += raw;
      continue;
    }

    auto node_faults = collapse_node_log(node, log, config.merge_window_s);
    result.faults.insert(result.faults.end(), node_faults.begin(),
                         node_faults.end());
  }

  sort_canonical(result.faults);
  return result;
}

}  // namespace unp::analysis
