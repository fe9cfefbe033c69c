// Campaign emission contract: the record stream a campaign emits must be
// byte-identical (UNPS) for every thread count and equal to its records
// re-encoded through ArchiveWriter, and every sink fed from one run must
// see the same per-node records no matter which other sinks share the
// run's single encoded body.  The default seed-42 campaign's stream is
// pinned by size and digest.
#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>

#include "sim/shard.hpp"
#include "support/campaign_stream.hpp"
#include "telemetry/archive_io.hpp"

namespace unp::sim {
namespace {

CampaignConfig short_config(std::uint64_t seed = 5) {
  CampaignConfig config;
  config.seed = seed;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 8, 0, 0, 0});
  return config;
}

using test_support::LogCollector;

/// Re-encode node logs (indexed by node slot) through ArchiveWriter's bulk
/// path: one EncodedNodeLog per node slot, as the campaign driver delivers
/// them (empty logs write no frame).
std::string reencode(const std::vector<telemetry::NodeLog>& logs,
                     const CampaignWindow& window) {
  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  writer.begin_campaign(window);
  std::string scratch;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const cluster::NodeId node = cluster::node_from_index(static_cast<int>(i));
    writer.begin_node(node);
    telemetry::EncodedNodeLog enc(node, logs[i], scratch);
    writer.on_node_log(enc);
    writer.end_node(node);
  }
  writer.finish();
  return os.str();
}

void expect_same_logs(const std::vector<telemetry::NodeLog>& got,
                      const std::vector<telemetry::NodeLog>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].starts(), want[i].starts()) << i;
    ASSERT_EQ(got[i].ends(), want[i].ends()) << i;
    ASSERT_EQ(got[i].alloc_fails(), want[i].alloc_fails()) << i;
    ASSERT_EQ(got[i].error_runs(), want[i].error_runs()) << i;
  }
}

/// FNV-1a 64 over the little-endian bytes of 64-bit words.
struct Fnv1a64 {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void word(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      value ^= (v >> (8 * b)) & 0xFF;
      value *= 0x100000001b3ull;
    }
  }
};

/// Output buffer that keeps only the byte count of what is written, so the
/// ~60 MB campaign stream is never resident.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t size = 0;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++size;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    size += static_cast<std::uint64_t>(n);
    return n;
  }
};

/// Folds every record field, in stream order, into one digest, except the
/// temperature values: those are raw doubles from std::sin and a normal
/// draw, which libm builds may round differently in the last bit (the raw
/// stream digest has differed between x86-64 hosts at equal size), so only
/// their presence counts.  Every time, node, address, word, size, run shape
/// and tie order does.
class RecordDigest final : public telemetry::RecordSink {
 public:
  Fnv1a64 digest;

  void begin_node(cluster::NodeId node) override { id(node); }
  void on_start(const telemetry::StartRecord& r) override {
    head(r.time, r.node, r.temperature_c);
    digest.word(r.allocated_bytes);
  }
  void on_end(const telemetry::EndRecord& r) override {
    head(r.time, r.node, r.temperature_c);
  }
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override {
    digest.word(static_cast<std::uint64_t>(r.time));
    id(r.node);
  }
  void on_error_run(const telemetry::ErrorRun& r) override {
    head(r.first.time, r.first.node, r.first.temperature_c);
    digest.word(r.first.virtual_address);
    digest.word(r.first.physical_page);
    digest.word(r.first.expected);
    digest.word(r.first.actual);
    digest.word(static_cast<std::uint64_t>(r.period_s));
    digest.word(r.count);
  }

 private:
  void id(cluster::NodeId node) {
    digest.word(static_cast<std::uint64_t>(cluster::node_index(node)));
  }
  void head(TimePoint t, cluster::NodeId node, double celsius) {
    digest.word(static_cast<std::uint64_t>(t));
    id(node);
    digest.word(telemetry::has_temperature(celsius) ? 1 : 0);
  }
};

TEST(CampaignEmit, DefaultCampaignStreamIsPinned) {
  // The seed-42 campaign every report is built from.  Its UNPS stream (the
  // cache file's bytes after the 13-byte UNPC header) is pinned by size,
  // and its records by a digest of every field but the temperature values:
  // a change to a random draw, a record, or the order of records that tie
  // on time moves one of them.  A change that moves them on purpose updates
  // the pins and says why.
  constexpr std::uint64_t kPinnedStreamBytes = 60'244'561;
  constexpr std::uint64_t kPinnedRecordDigest = 0xa9e6d4edd5b868f7ull;
  CountingBuf buf;
  std::ostream os(&buf);
  telemetry::ArchiveWriter writer(os);
  RecordDigest records;
  std::vector<telemetry::RecordSink*> sinks{&writer, &records};
  (void)run_campaign_streaming(CampaignConfig{}, sinks, 4);
  ASSERT_TRUE(os.good());
  EXPECT_EQ(buf.size, kPinnedStreamBytes);
  EXPECT_EQ(records.digest.value, kPinnedRecordDigest)
      << std::hex << "0x" << records.digest.value;
}

TEST(CampaignEmit, StreamBytesIdenticalAcrossThreads) {
  // The campaign pre-encodes bodies in its workers and delivers nodes as
  // its pipeline completes them, the costliest first; its stream must be
  // what ArchiveWriter produces from the same records afterwards, for any
  // thread count.
  std::string expect;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{4},
                                    std::size_t{8}}) {
    std::ostringstream os(std::ios::binary);
    telemetry::ArchiveWriter writer(os);
    LogCollector records;
    std::vector<telemetry::RecordSink*> sinks{&writer, &records};
    (void)run_campaign_streaming(short_config(), sinks, threads);
    const std::string stream = os.str();
    if (expect.empty()) expect = stream;
    ASSERT_GT(stream.size(), 1u << 12);
    EXPECT_EQ(stream, expect) << "threads=" << threads;
    EXPECT_EQ(reencode(records.logs, short_config().window), stream)
        << "threads=" << threads;
  }

  // Two shards at 3 threads: each shard's stream is its own records
  // re-encoded, and the shards' node logs together re-encode to the
  // monolithic stream.
  std::vector<telemetry::NodeLog> merged(
      static_cast<std::size_t>(cluster::kStudyNodeSlots));
  for (int index = 0; index < 2; ++index) {
    std::ostringstream os(std::ios::binary);
    telemetry::ArchiveWriter writer(os);
    LogCollector records;
    std::vector<telemetry::RecordSink*> sinks{&writer, &records};
    (void)run_campaign_shard(short_config(), ShardSpec{2, index}, sinks, 3);
    EXPECT_EQ(reencode(records.logs, short_config().window), os.str())
        << "shard " << index;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (!records.logs[i].empty()) merged[i] = records.logs[i];
    }
  }
  EXPECT_EQ(reencode(merged, short_config().window), expect);
}

TEST(CampaignEmit, RunCountIsExactOnEveryNode) {
  // The count that names the costliest node and sizes every log is the
  // exact number of runs each node emits; a fresh log ends at exactly that
  // capacity, so no node's log regrows.
  const CampaignConfig config = short_config();
  const CampaignPlan plan = plan_campaign(config);
  const auto& nodes = plan.topology.monitored_nodes();
  SessionSimArena arena;
  std::vector<SessionTally> tallies;
  std::size_t total = 0;
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    const auto& events =
        plan.node_events[static_cast<std::size_t>(cluster::node_index(nodes[j]))];
    const std::size_t runs =
        count_node_runs(config.session, plan.plans[j], plan.ground_truth,
                        events, arena, tallies);
    telemetry::NodeLog fresh;
    simulate_node_shared_into(config.session, nodes[j], plan.plans[j],
                              cluster::Topology::is_overheating_slot(nodes[j]),
                              plan.session_seed, plan.ground_truth, events,
                              runs, arena, fresh);
    ASSERT_EQ(fresh.error_runs().size(), runs) << cluster::node_name(nodes[j]);
    EXPECT_EQ(fresh.error_run_capacity(), runs) << cluster::node_name(nodes[j]);
    total += runs;
  }
  EXPECT_GT(total, 100u);
}

/// Records where and in what order the campaign calls it: the thread of
/// every call, and whether frames open, carry one bulk log and close in
/// ascending node order.
class CallRecorder final : public telemetry::RecordSink {
 public:
  const std::thread::id caller = std::this_thread::get_id();
  std::uint64_t calls = 0;
  std::uint64_t foreign_calls = 0;  ///< calls from any other thread
  std::uint64_t order_faults = 0;   ///< framing or node-order violations
  std::uint64_t nodes = 0;

  void begin_campaign(const CampaignWindow&) override { note(); }
  void begin_node(cluster::NodeId node) override {
    note();
    const int index = cluster::node_index(node);
    if (open_ || index <= last_index_) ++order_faults;
    open_ = true;
    logs_ = 0;
    last_index_ = index;
  }
  void on_node_log(telemetry::EncodedNodeLog& log) override {
    note();
    if (!open_ || cluster::node_index(log.node()) != last_index_) ++order_faults;
    ++logs_;
  }
  void end_node(cluster::NodeId node) override {
    note();
    if (!open_ || cluster::node_index(node) != last_index_ || logs_ != 1)
      ++order_faults;
    open_ = false;
    ++nodes;
  }
  void end_campaign() override { note(); }
  void on_start(const telemetry::StartRecord&) override { ++order_faults; }
  void on_end(const telemetry::EndRecord&) override { ++order_faults; }
  void on_alloc_fail(const telemetry::AllocFailRecord&) override {
    ++order_faults;
  }
  void on_error_run(const telemetry::ErrorRun&) override { ++order_faults; }

 private:
  void note() {
    ++calls;
    if (std::this_thread::get_id() != caller) ++foreign_calls;
  }
  bool open_ = false;
  int last_index_ = -1;
  std::uint64_t logs_ = 0;
};

TEST(CampaignEmit, SinksAreCalledFromTheCallingThreadInNodeOrder) {
  // No sink is thread-safe: the pipeline must deliver on the caller's
  // thread, one frame per node, nodes ascending, with or without a byte
  // sink asking the workers to pre-encode.
  for (const bool with_writer : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
      std::ostringstream os(std::ios::binary);
      telemetry::ArchiveWriter writer(os);
      CallRecorder recorder;
      std::vector<telemetry::RecordSink*> sinks{&recorder};
      if (with_writer) sinks.push_back(&writer);
      const CampaignSummary summary =
          run_campaign_streaming(short_config(), sinks, threads);
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " writer=" << with_writer);
      EXPECT_EQ(recorder.foreign_calls, 0u);
      EXPECT_EQ(recorder.order_faults, 0u);
      EXPECT_EQ(recorder.nodes, summary.accounting.size());
      EXPECT_EQ(recorder.calls, 3 * recorder.nodes + 2);
    }
  }
}

/// Throws from on_node_log at its `throw_at`-th node and counts the nodes it
/// saw.
class ThrowingSink final : public telemetry::RecordSink {
 public:
  explicit ThrowingSink(std::uint64_t throw_at) : throw_at_(throw_at) {}
  std::uint64_t nodes = 0;

  void on_node_log(telemetry::EncodedNodeLog&) override {
    if (nodes++ == throw_at_) throw std::runtime_error("sink failed");
  }
  void on_start(const telemetry::StartRecord&) override {}
  void on_end(const telemetry::EndRecord&) override {}
  void on_alloc_fail(const telemetry::AllocFailRecord&) override {}
  void on_error_run(const telemetry::ErrorRun&) override {}

 private:
  std::uint64_t throw_at_;
};

TEST(CampaignEmit, SinkExceptionReachesTheCallerAfterWorkersStop) {
  // A sink failing mid-stream (first node, inside the ring, past the
  // costliest node) propagates out of the 4-thread campaign once every
  // worker has stopped touching the slots; no node is delivered after it,
  // and the next campaign runs normally.
  for (const std::uint64_t at : {0u, 17u, 400u}) {
    std::ostringstream os(std::ios::binary);
    telemetry::ArchiveWriter writer(os);
    ThrowingSink sink(at);
    std::vector<telemetry::RecordSink*> sinks{&sink, &writer};
    EXPECT_THROW((void)run_campaign_streaming(short_config(), sinks, 4),
                 std::runtime_error)
        << "at " << at;
    EXPECT_EQ(sink.nodes, at + 1) << "at " << at;
  }
  LogCollector records;
  std::vector<telemetry::RecordSink*> sinks{&records};
  (void)run_campaign_streaming(short_config(), sinks, 4);
  EXPECT_GT(records.raw_errors(), 0u);
}

TEST(CampaignEmit, MixedSinksShareOneEncodedBody) {
  // A byte sink (ArchiveWriter) and a record sink (LogCollector) fed from
  // the same streaming run: the writer's stream must equal a writer-only run
  // and the collector must hold, node by node, the records of a
  // collector-only run — one encode per node serves both.
  std::ostringstream solo_os(std::ios::binary);
  {
    telemetry::ArchiveWriter writer(solo_os);
    std::vector<telemetry::RecordSink*> sinks{&writer};
    (void)run_campaign_streaming(short_config(), sinks, 2);
  }

  std::ostringstream os(std::ios::binary);
  telemetry::ArchiveWriter writer(os);
  LogCollector records;
  std::vector<telemetry::RecordSink*> sinks{&writer, &records};
  (void)run_campaign_streaming(short_config(), sinks, 2);

  EXPECT_EQ(os.str(), solo_os.str());

  LogCollector solo_records;
  std::vector<telemetry::RecordSink*> record_sinks{&solo_records};
  (void)run_campaign_streaming(short_config(), record_sinks, 1);
  ASSERT_GT(solo_records.raw_errors(), 0u);
  EXPECT_EQ(records.raw_errors(), solo_records.raw_errors());
  expect_same_logs(records.logs, solo_records.logs);
}

}  // namespace
}  // namespace unp::sim
