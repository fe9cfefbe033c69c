// A campaign's records as the tests read them.  A campaign streams once
// into an in-memory UNPS stream (ArchiveWriter), and tests walk that stream
// back node by node (ArchiveReader::next), so a walk holds one node's
// records at a time.  Header-only: each helper is compiled into the test
// binaries that call it.
#pragma once

#include <cstddef>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "sim/campaign.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/sink.hpp"

namespace unp::test_support {

/// `config`'s campaign as one UNPS stream.
inline std::string campaign_stream(
    const sim::CampaignConfig& config,
    std::size_t threads = sim::default_campaign_threads()) {
  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  (void)sim::run_campaign_streaming(config, {&writer}, threads);
  return std::move(os).str();
}

/// The default (seed-42) campaign's stream, simulated on first use.
inline const std::string& default_stream() {
  static const std::string bytes = campaign_stream(sim::CampaignConfig{});
  return bytes;
}

/// Visit every node frame of `stream` as f(node, log), nodes ascending.
template <class F>
void for_each_node_log(const std::string& stream, F&& f) {
  std::istringstream is(stream, std::ios::binary);
  telemetry::ArchiveReader reader(is);
  cluster::NodeId node;
  telemetry::NodeLog log;
  while (reader.next(node, log)) f(node, std::as_const(log));
}

/// Every node log of `stream`, indexed by node slot: extract_faults' input.
inline std::vector<telemetry::NodeLog> node_logs(const std::string& stream) {
  std::vector<telemetry::NodeLog> logs(
      static_cast<std::size_t>(cluster::kStudyNodeSlots));
  std::istringstream is(stream, std::ios::binary);
  telemetry::ArchiveReader reader(is);
  cluster::NodeId node;
  telemetry::NodeLog log;
  while (reader.next(node, log))
    logs[static_cast<std::size_t>(cluster::node_index(node))] = std::move(log);
  return logs;
}

/// Push `logs` (indexed by node slot) through `sink` with full framing,
/// record by record: the per-record feed.
inline void feed_logs(std::span<const telemetry::NodeLog> logs,
                      const CampaignWindow& window, telemetry::RecordSink& sink) {
  sink.begin_campaign(window);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const cluster::NodeId node = cluster::node_from_index(static_cast<int>(i));
    sink.begin_node(node);
    telemetry::replay_node_log(logs[i], sink);
    sink.end_node(node);
  }
  sink.end_campaign();
}

/// Push `stream` through `sink` in bulk: ArchiveReader::drain, one
/// on_node_log per frame.
inline telemetry::ReplayStats feed_bulk(const std::string& stream,
                                        telemetry::RecordSink& sink) {
  std::istringstream is(stream, std::ios::binary);
  return telemetry::ArchiveReader(is).drain(sink);
}

/// Keeps every record it is fed, one NodeLog per node slot.  It reads bulk
/// frames through their records (log()), so a replayed frame's runs are
/// decoded in full.
class LogCollector final : public telemetry::RecordSink {
 public:
  std::vector<telemetry::NodeLog> logs{
      static_cast<std::size_t>(cluster::kStudyNodeSlots)};

  void on_start(const telemetry::StartRecord& r) override {
    log(r.node).add_start(r);
  }
  void on_end(const telemetry::EndRecord& r) override { log(r.node).add_end(r); }
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override {
    log(r.node).add_alloc_fail(r);
  }
  void on_error_run(const telemetry::ErrorRun& r) override {
    log(r.first.node).add_error_run(r);
  }

  /// Raw ERROR lines across every node.
  [[nodiscard]] std::uint64_t raw_errors() const noexcept {
    std::uint64_t total = 0;
    for (const auto& l : logs) total += l.raw_error_count();
    return total;
  }

 private:
  telemetry::NodeLog& log(cluster::NodeId node) {
    return logs[static_cast<std::size_t>(cluster::node_index(node))];
  }
};

}  // namespace unp::test_support
