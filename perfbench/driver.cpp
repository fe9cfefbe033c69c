// In-process pipeline driver and open-loop load generator for the
// end-to-end benchmark (run.py).
//
//   perfbench_driver report --mode cold|warm --seed S --threads T
//                           --cache-dir D --out REPORT --json OUT
//                           [--trace] [--store-out PATH]
//   perfbench_driver serve  --store A [--store B ...] --workers W --cache N
//                           --port-file F --json OUT [--trace]
//   perfbench_driver loadgen --port P --lines FILE --schedule FILE
//                            [--store PATH ...] --out FILE [--conns N]
//                            [--closed]
//   perfbench_driver isa
//
// `report` makes the public calls unp_report makes for one `--all` report
// and writes the rendered report to REPORT.  Without --trace it runs exactly
// unp_report's path (bench::stream_campaign).  With --trace it drives the
// same layers by hand so each boundary can be timed from outside: the
// record sinks are wrapped in TimedSink, the cache replay is decoded frame by
// frame, and every call into a layer gets a span.  --store-out additionally
// writes the UNPF store unp_query --build would write (a separate root span).
//
// `serve` runs a serve::Server with unp_serve's render function; with
// --trace the render function is split into the calls render_request makes
// (parse, store scan or materialize, analyzer fan-out, render), each under a
// span carrying a request id.
//
// `loadgen` replays a schedule of request lines against a server from one
// thread: open loop (each request is sent at its due time whether or not
// earlier ones were answered) or closed loop (one outstanding request).
// It records due, send and receive times and an FNV-1a hash of every
// response body; run.py checks the bodies and computes the statistics.
//
// Spans are kept in memory and written with the counters as one JSON
// object to OUT when the run ends.  Exit status: 0 on success, 2 on bad
// usage or failure.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fault_sink.hpp"
#include "analysis/metrics.hpp"
#include "analysis/streaming_extractor.hpp"
#include "common/require.hpp"
#include "common/simd_dispatch.hpp"
#include "common/thread_pool.hpp"
#include "serve/server.hpp"
#include "sim/campaign.hpp"
#include "store/builder.hpp"
#include "store/reader.hpp"
#include "telemetry/archive_io.hpp"
#include "telemetry/kernels/kernels.hpp"
#include "util/campaign_cache.hpp"
#include "util/query_render.hpp"
#include "util/report_sections.hpp"

namespace {

using namespace unp;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- spans ----------------------------------------------------------------

struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  ///< 0 = root
  std::uint64_t request;
};

/// Process-wide span store.  Disabled unless --trace; spans nest per thread
/// through a thread-local stack of open span ids.
class Tracer {
 public:
  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  std::uint32_t open() {
    const std::uint32_t id = next_id_.fetch_add(1) + 1;
    stack().push_back(id);
    return id;
  }
  void close(const char* name, std::int64_t start_ns, std::uint32_t id,
             std::uint64_t request) {
    const std::int64_t end = now_ns();
    std::vector<std::uint32_t>& s = stack();
    s.pop_back();
    const std::uint32_t parent = s.empty() ? 0 : s.back();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start_ns, end, id, parent, request});
  }

  void write_json(std::FILE* out) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(out, "[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out,
                   "%s\n[\"%s\",%lld,%lld,%u,%u,%llu]", i ? "," : "", s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.id, s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(out, "]");
  }

 private:
  static std::vector<std::uint32_t>& stack() {
    thread_local std::vector<std::uint32_t> s;
    return s;
  }

  bool enabled_ = false;
  std::atomic<std::uint32_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;

/// Scoped span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : name_(name), request_(request) {
    if (g_tracer.enabled()) {
      start_ = now_ns();
      id_ = g_tracer.open();
    }
  }
  ~Span() {
    if (id_ != 0) g_tracer.close(name_, start_, id_, request_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::int64_t start_ = 0;
  std::uint32_t id_ = 0;
};

// --- counters -------------------------------------------------------------

/// Named numeric results of one run, written next to the spans.
class Counters {
 public:
  void set(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    values_[name] = value;
  }
  void add(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    values_[name] += value;
  }
  void write_json(std::FILE* out) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(out, "{");
    bool first = true;
    for (const auto& [name, value] : values_) {
      std::fprintf(out, "%s\n\"%s\":%.17g", first ? "" : ",", name.c_str(),
                   value);
      first = false;
    }
    std::fprintf(out, "}");
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> values_;
};

Counters g_counters;

void write_result(const std::string& path, double wall_ms) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  UNP_REQUIRE(out != nullptr);
  std::fprintf(out, "{\"wall_ms\":%.17g,\"isa\":\"%s\",\"counters\":", wall_ms,
               simd::to_string(simd::active_isa()));
  g_counters.write_json(out);
  std::fprintf(out, ",\n\"spans\":");
  g_tracer.write_json(out);
  std::fprintf(out, "}\n");
  UNP_REQUIRE(std::fclose(out) == 0);
}

// --- record-sink decorator ---------------------------------------------------

/// Shared by the TimedSinks of one producer pass: measures the wait between
/// consecutive node deliveries (end of node i at the last sink to start of
/// node i+1 at the first).
struct DeliveryClock {
  std::int64_t last_end_ns = 0;
  double max_gap_ms = 0.0;
  std::uint64_t nodes = 0;
};

/// Times every framing and bulk call into `inner` under span `name`.  It
/// forwards wants_encoded_node_log() and on_node_log() so the producer keeps
/// its bulk path (pre-encoded bodies, one call per node); per-record calls
/// are forwarded untimed and counted, and a nonzero count means the run
/// measured a different program.
class TimedSink final : public telemetry::RecordSink {
 public:
  TimedSink(telemetry::RecordSink& inner, const char* name,
            DeliveryClock& clock, bool first)
      : inner_(inner), name_(name), clock_(clock), first_(first) {}

  void begin_campaign(const CampaignWindow& window) override {
    const Span s(name_);
    inner_.begin_campaign(window);
  }
  void begin_node(cluster::NodeId node) override {
    if (first_) {
      const std::int64_t now = now_ns();
      if (clock_.nodes > 0) {
        const double gap = static_cast<double>(now - clock_.last_end_ns) / 1e6;
        if (gap > clock_.max_gap_ms) clock_.max_gap_ms = gap;
      }
      ++clock_.nodes;
    }
    const Span s(name_);
    inner_.begin_node(node);
  }
  void end_node(cluster::NodeId node) override {
    {
      const Span s(name_);
      inner_.end_node(node);
    }
    clock_.last_end_ns = now_ns();
  }
  void end_campaign() override {
    const Span s(name_);
    inner_.end_campaign();
  }
  void on_node_log(telemetry::EncodedNodeLog& log) override {
    const Span s(name_);
    inner_.on_node_log(log);
  }
  [[nodiscard]] bool wants_encoded_node_log() const override {
    return inner_.wants_encoded_node_log();
  }

  void on_start(const telemetry::StartRecord& r) override {
    ++per_record_calls_;
    inner_.on_start(r);
  }
  void on_end(const telemetry::EndRecord& r) override {
    ++per_record_calls_;
    inner_.on_end(r);
  }
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override {
    ++per_record_calls_;
    inner_.on_alloc_fail(r);
  }
  void on_error_run(const telemetry::ErrorRun& r) override {
    ++per_record_calls_;
    inner_.on_error_run(r);
  }

  [[nodiscard]] std::uint64_t per_record_calls() const noexcept {
    return per_record_calls_;
  }

 private:
  telemetry::RecordSink& inner_;
  const char* name_;
  DeliveryClock& clock_;
  bool first_;
  std::uint64_t per_record_calls_ = 0;
};

// --- report ----------------------------------------------------------------

struct ReportOptions {
  bool cold = true;
  std::uint64_t seed = 42;
  std::size_t threads = 1;
  std::string cache_dir;
  std::string out;
  std::string json;
  std::string store_out;
};

std::string render_to_string(bench::ReportAnalyzers& analyzers,
                             const bench::ReportInputs& inputs) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  UNP_REQUIRE(mem != nullptr);
  analyzers.render(inputs, mem);
  std::fclose(mem);
  std::string bytes(buf, len);
  std::free(buf);
  return bytes;
}

/// Traced cold acquisition: simulate with every sink, the spill writer
/// included, wrapped in a TimedSink.
void traced_simulate(const sim::CampaignConfig& config,
                     const ReportOptions& opts, analysis::ScanProfileSink& scan,
                     analysis::StreamingExtractor& extractor) {
  const std::string spill = opts.cache_dir + "/traced_spill.unps";
  std::ofstream os(spill, std::ios::binary | std::ios::trunc);
  UNP_REQUIRE(os.good());
  telemetry::ArchiveWriter writer(os);
  DeliveryClock clock;
  TimedSink t_scan(scan, "analysis.scan_profile", clock, true);
  TimedSink t_extract(extractor, "analysis.extract_feed", clock, false);
  TimedSink t_spill(writer, "telemetry.spill", clock, false);
  {
    const Span s("sim.run_campaign");
    (void)sim::run_campaign_streaming(config, {&t_scan, &t_extract, &t_spill},
                                      opts.threads);
  }
  os.flush();
  g_counters.set("sim.nodes", static_cast<double>(clock.nodes));
  g_counters.set("sim.emit_gap_max_ms", clock.max_gap_ms);
  g_counters.set("telemetry.spill_bytes", static_cast<double>(os.tellp()));
  g_counters.set("telemetry.frames", static_cast<double>(writer.frames_written()));
  g_counters.set("trace.per_record_calls",
                 static_cast<double>(t_scan.per_record_calls() +
                                     t_extract.per_record_calls() +
                                     t_spill.per_record_calls()));
}

/// Traced warm acquisition: read the campaign cache entry unp_report and
/// unp_query wrote, decoding frame by frame and handing each node log to the
/// wrapped sinks in bulk.
void traced_replay(const sim::CampaignConfig& config,
                   const analysis::ExtractionConfig& extraction,
                   const ReportOptions& opts, analysis::ScanProfileSink& scan,
                   analysis::StreamingExtractor& extractor) {
  char name[64];
  std::snprintf(name, sizeof name, "/unp_campaign_%016llx.unpc",
                static_cast<unsigned long long>(
                    bench::campaign_fingerprint(config, extraction)));
  std::ifstream is(opts.cache_dir + name, std::ios::binary);
  UNP_REQUIRE(is.good());
  // UNPC header: magic "UNPC", u8 version, u64 fingerprint; the archive
  // stream follows (see util/campaign_cache.hpp).
  char header[13];
  is.read(header, sizeof header);
  UNP_REQUIRE(is.gcount() == sizeof header &&
              std::memcmp(header, "UNPC", 4) == 0);

  DeliveryClock clock;
  TimedSink t_scan(scan, "analysis.scan_profile", clock, true);
  TimedSink t_extract(extractor, "analysis.extract_feed", clock, false);
  telemetry::RecordSink* sinks[] = {&t_scan, &t_extract};

  std::unique_ptr<telemetry::ArchiveReader> reader;
  {
    const Span s("telemetry.decode");
    reader = std::make_unique<telemetry::ArchiveReader>(is);
  }
  for (auto* sink : sinks) sink->begin_campaign(reader->window());
  const telemetry::kernels::EncodeKernels& kernels =
      telemetry::kernels::active_encode_kernels();
  std::string scratch;
  cluster::NodeId node{};
  telemetry::NodeLog log;
  while (true) {
    bool more = false;
    {
      const Span s("telemetry.decode");
      more = reader->next(node, log);
    }
    if (!more) break;
    telemetry::EncodedNodeLog enc(node, log, scratch, kernels);
    for (auto* sink : sinks) {
      sink->begin_node(node);
      sink->on_node_log(enc);
      sink->end_node(node);
    }
  }
  for (auto* sink : sinks) sink->end_campaign();
  g_counters.set("telemetry.decode_bytes",
                 static_cast<double>(static_cast<std::streamoff>(is.tellg()) -
                                     static_cast<std::streamoff>(sizeof header)));
  g_counters.set("telemetry.frames", static_cast<double>(reader->frames_read()));
  g_counters.set("trace.per_record_calls",
                 static_cast<double>(t_scan.per_record_calls() +
                                     t_extract.per_record_calls()));
}

int run_report(const ReportOptions& opts) {
  const std::int64_t t0 = now_ns();
  sim::CampaignConfig config;
  config.seed = opts.seed;
  const analysis::ExtractionConfig extraction_config;
  analysis::ScanProfileSink scan;
  analysis::StreamingExtractor extractor(extraction_config);
  std::string report;
  analysis::ExtractionResult extraction;
  {
    const Span root("driver.report");
    if (!g_tracer.enabled()) {
      // Exactly unp_report's acquisition.
      (void)bench::stream_campaign(config, extraction_config,
                                   {&scan, &extractor}, opts.threads);
    } else if (opts.cold) {
      traced_simulate(config, opts, scan, extractor);
    } else {
      traced_replay(config, extraction_config, opts, scan, extractor);
    }
    {
      const Span s("analysis.extract_finish");
      extraction = extractor.finish();
    }

    bool all[bench::kSectionCount];
    std::fill(std::begin(all), std::end(all), true);
    bench::ReportAnalyzers analyzers(all);
    std::vector<analysis::FaultSinkTiming> timings;
    {
      const Span s("analysis.fanout");
      std::unique_ptr<ThreadPool> pool;
      if (opts.threads > 1 && analyzers.sinks().size() > 1)
        pool = std::make_unique<ThreadPool>(opts.threads);
      timings = analysis::run_fault_sinks(extraction.faults, {scan.window()},
                                          analyzers.sinks(), pool.get());
    }
    for (std::size_t i = 0; i < timings.size(); ++i) {
      g_counters.set(std::string("analysis.sink.") + analyzers.labels()[i] +
                         "_ms",
                     timings[i].milliseconds);
    }

    bench::ReportInputs inputs;
    inputs.window = scan.window();
    inputs.hours = &scan.hours_grid();
    inputs.terabyte_hours = &scan.terabyte_hours_grid();
    inputs.daily_terabyte_hours = scan.daily_terabyte_hours();
    inputs.total_hours = scan.total_monitored_hours();
    inputs.total_terabyte_hours = scan.total_terabyte_hours();
    inputs.monitored_nodes = scan.monitored_nodes();
    inputs.extraction = &extraction;
    {
      const Span s("report.render");
      report = render_to_string(analyzers, inputs);
    }
  }
  const double wall_ms = static_cast<double>(now_ns() - t0) / 1e6;

  std::FILE* out = std::fopen(opts.out.c_str(), "wb");
  UNP_REQUIRE(out != nullptr);
  std::fwrite(report.data(), 1, report.size(), out);
  UNP_REQUIRE(std::fclose(out) == 0);

  g_counters.set("report.bytes", static_cast<double>(report.size()));
  g_counters.set("analysis.raw_errors",
                 static_cast<double>(extraction.total_raw_logs));
  g_counters.set("analysis.faults", static_cast<double>(extraction.faults.size()));
  g_counters.set("analysis.raw_kept_ratio", 1.0 - extraction.removed_fraction());

  if (!opts.store_out.empty()) {
    // unp_query --build's last step, timed as its own root.
    {
      const Span s("store.build");
      store::write_store(opts.store_out, extraction, scan,
                         bench::campaign_fingerprint(config, extraction_config));
    }
    std::ifstream st(opts.store_out, std::ios::binary | std::ios::ate);
    g_counters.set("store.bytes", static_cast<double>(st.tellg()));
  }
  write_result(opts.json, wall_ms);
  return 0;
}

// --- serve -----------------------------------------------------------------

struct ServeOptions {
  std::vector<std::string> stores;
  std::size_t workers = 2;
  std::size_t cache = 64;
  std::string port_file;
  std::string json;
};

/// render_request split into the public calls it makes, each under a span.
/// Byte-identical to bench::render_request_to_string by construction; the
/// benchmark checks every body against unp_query anyway.  Scan counters and
/// per-analyzer times go to `stats` and `sinks`, recorded by the caller
/// outside the request's root span.
std::string render_spans(const std::string& line,
                         const store::StoreReader& reader,
                         std::uint64_t request, store::ScanStats& stats,
                         std::vector<std::pair<const char*, double>>& sinks) {
  bench::QueryRequest req;
  {
    const Span s("serve.parse", request);
    req = bench::parse_request_line(line);
  }
  store::ScanOptions scan;
  scan.prune = !req.no_prune;

  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = nullptr;
  {
    const Span s("serve.respond", request);
    mem = open_memstream(&buf, &len);
  }
  UNP_REQUIRE(mem != nullptr);
  try {
    if (req.any_section) {
      analysis::ExtractionResult extraction;
      {
        const Span s("store.materialize", request);
        extraction.faults = reader.materialize(req.query, scan, &stats);
      }
      extraction.removed_nodes = reader.extraction_meta().removed_nodes;
      extraction.total_raw_logs = reader.extraction_meta().total_raw_logs;
      extraction.removed_raw_logs = reader.extraction_meta().removed_raw_logs;
      std::optional<bench::ReportAnalyzers> analyzers;
      {
        const Span s("analysis.fanout", request);
        analyzers.emplace(req.want);
        const std::vector<analysis::FaultSinkTiming> timings =
            analysis::run_fault_sinks(extraction.faults, {reader.window()},
                                      analyzers->sinks(), nullptr);
        for (std::size_t i = 0; i < timings.size(); ++i)
          sinks.emplace_back(analyzers->labels()[i], timings[i].milliseconds);
      }
      const store::StoredScanProfile& profile = reader.scan_profile();
      bench::ReportInputs inputs;
      inputs.window = reader.window();
      inputs.hours = &profile.hours;
      inputs.terabyte_hours = &profile.terabyte_hours;
      inputs.daily_terabyte_hours = profile.daily_terabyte_hours;
      inputs.total_hours = profile.total_hours;
      inputs.total_terabyte_hours = profile.total_terabyte_hours;
      inputs.monitored_nodes = profile.monitored_nodes;
      inputs.extraction = &extraction;
      const Span s("report.render", request);
      analyzers->render(inputs, mem);
    } else if (req.count_only) {
      store::Query query = req.query;
      query.projection = 0;
      {
        const Span s("store.scan", request);
        (void)reader.run(query, scan, &stats);
      }
      const Span s("report.render", request);
      std::fprintf(mem, "%llu\n",
                   static_cast<unsigned long long>(stats.rows_matched));
    } else {
      std::vector<analysis::FaultRecord> faults;
      {
        const Span s("store.materialize", request);
        faults = reader.materialize(req.query, scan, &stats);
      }
      const Span s("report.render", request);
      bench::print_query_rows(faults, req.limit, mem);
    }
  } catch (...) {
    std::fclose(mem);
    std::free(buf);
    throw;
  }
  const Span s("serve.respond", request);
  std::fclose(mem);
  std::string body(buf, len);
  std::free(buf);
  return body;
}

std::string traced_render(const std::string& line,
                          const store::StoreReader& reader,
                          std::uint64_t request) {
  store::ScanStats stats;
  std::vector<std::pair<const char*, double>> sinks;
  std::string body;
  {
    const Span root("serve.render", request);
    body = render_spans(line, reader, request, stats, sinks);
  }
  for (const auto& [label, ms] : sinks)
    g_counters.add(std::string("analysis.sink.") + label + "_ms", ms);
  g_counters.add("store.segments_scanned", static_cast<double>(stats.segments_scanned));
  g_counters.add("store.segments_pruned", static_cast<double>(stats.segments_pruned));
  g_counters.add("store.rows_scanned", static_cast<double>(stats.rows_scanned));
  g_counters.add("store.rows_matched", static_cast<double>(stats.rows_matched));
  return body;
}

int run_serve(const ServeOptions& opts) {
  const std::int64_t t0 = now_ns();
  for (const std::string& path : opts.stores) {
    const Span s("store.open");
    (void)store::StoreHandle::open(path);
  }
  serve::Server::Config config;
  config.store_paths = {opts.stores.front()};
  config.workers = opts.workers;
  config.cache_capacity = opts.cache;

  serve::RenderFn render;
  if (g_tracer.enabled()) {
    auto requests = std::make_shared<std::atomic<std::uint64_t>>(0);
    render = [requests](const std::string& line,
                        const store::StoreReader& reader) {
      return traced_render(line, reader, requests->fetch_add(1) + 1);
    };
  } else {
    // Exactly unp_serve's render function.
    render = [](const std::string& line, const store::StoreReader& reader) {
      const bench::QueryRequest req = bench::parse_request_line(line);
      return bench::render_request_to_string(reader, req, store::ScanOptions{});
    };
  }
  serve::Server server(std::move(config), std::move(render));
  server.start();
  {
    std::ofstream pf(opts.port_file, std::ios::trunc);
    pf << server.port() << "\n";
    UNP_REQUIRE(static_cast<bool>(pf.flush()));
  }
  server.wait();
  server.stop();
  const serve::Server::Stats stats = server.stats();
  g_counters.set("serve.cache_hits", static_cast<double>(stats.cache.hits));
  g_counters.set("serve.cache_misses", static_cast<double>(stats.cache.misses));
  g_counters.set("serve.queries", static_cast<double>(stats.queries));
  g_counters.set("serve.generation", static_cast<double>(stats.generation));
  write_result(opts.json, static_cast<double>(now_ns() - t0) / 1e6);
  return 0;
}

// --- loadgen ---------------------------------------------------------------

struct Scheduled {
  std::int64_t due_ns = 0;
  bool swap = false;
  std::size_t arg = 0;  ///< line index, or store index for a swap
};

struct Outcome {
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;
  int status = 3;  ///< 0 OK, 2 ERR, 3 unanswered
  std::uint64_t hash = 0;
};

std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// One client socket with pipelined requests answered in FIFO order.
struct Conn {
  int fd = -1;
  std::string outbox;
  std::uint64_t queued_bytes = 0;  ///< bytes ever appended to the outbox
  std::uint64_t sent_bytes = 0;    ///< bytes ever written to the socket
  /// (schedule index, queued_bytes once its line was appended), in order.
  std::deque<std::pair<std::size_t, std::uint64_t>> unsent;
  std::deque<std::size_t> waiting;  ///< schedule indices sent, not answered
  std::string inbox;
};

int open_conn(std::uint16_t port) {
  const int fd = serve::connect_local(port);
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  UNP_REQUIRE(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) == 0);
  return fd;
}

struct LoadgenOptions {
  std::uint16_t port = 0;
  std::string lines_path;
  std::string schedule_path;
  std::vector<std::string> stores;  ///< swap targets
  std::string out;
  std::size_t conns = 1;
  bool closed = false;
};

/// How long the generator waits for answers after the last due time; a
/// request still unanswered then counts as failed.
constexpr std::int64_t kDrainNs = 3'000'000'000;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  UNP_REQUIRE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Parse every complete frame in `c.inbox`, completing waiting requests.
void drain_frames(Conn& c, std::vector<Outcome>& outcomes, std::int64_t now) {
  while (!c.waiting.empty()) {
    const std::size_t nl = c.inbox.find('\n');
    if (nl == std::string::npos) return;
    const bool ok = c.inbox.compare(0, 3, "OK ") == 0;
    const std::size_t skip = ok ? 3 : 4;
    const std::size_t body_len =
        static_cast<std::size_t>(std::strtoull(c.inbox.c_str() + skip, nullptr, 10));
    if (c.inbox.size() < nl + 1 + body_len) return;
    Outcome& o = outcomes[c.waiting.front()];
    c.waiting.pop_front();
    o.recv_ns = now;
    o.status = ok ? 0 : 2;
    o.hash = fnv1a(c.inbox.data() + nl + 1, body_len);
    c.inbox.erase(0, nl + 1 + body_len);
  }
}

int run_loadgen(const LoadgenOptions& opts) {
  const std::vector<std::string> lines = read_lines(opts.lines_path);
  const std::vector<std::string>& stores = opts.stores;
  // One entry per line: "<due_us> q <line index>" or "<due_us> s <store
  // index>"; swaps send "swap <path of --store number index>".
  std::vector<Scheduled> schedule;
  for (const std::string& e : read_lines(opts.schedule_path)) {
    if (e.empty()) continue;
    long long due_us = 0;
    char kind = 0;
    unsigned long long arg = 0;
    UNP_REQUIRE(std::sscanf(e.c_str(), "%lld %c %llu", &due_us, &kind, &arg) == 3);
    Scheduled s;
    s.due_ns = due_us * 1000;
    s.swap = kind == 's';
    s.arg = static_cast<std::size_t>(arg);
    UNP_REQUIRE(s.swap ? s.arg < stores.size() : s.arg < lines.size());
    schedule.push_back(s);
  }

  std::vector<Conn> conns(opts.conns);
  for (Conn& c : conns) c.fd = open_conn(opts.port);
  // The admin connection holds a server worker for its whole life, so it
  // is opened only when the schedule swaps.
  Conn admin;
  for (const Scheduled& s : schedule) {
    if (s.swap) {
      admin.fd = open_conn(opts.port);
      break;
    }
  }
  std::vector<Outcome> outcomes(schedule.size());

  const std::int64_t t0 = now_ns();
  std::size_t next = 0;
  std::size_t queries = 0;
  std::size_t done = 0;
  const std::size_t total = schedule.size();
  const std::int64_t last_due = schedule.empty() ? 0 : schedule.back().due_ns;
  std::int64_t deadline = -1;
  std::vector<pollfd> fds(conns.size() + 1);

  auto enqueue = [&](Conn& c, std::size_t i, const std::string& text) {
    c.outbox += text;
    c.outbox += '\n';
    c.queued_bytes += text.size() + 1;
    c.unsent.emplace_back(i, c.queued_bytes);
  };
  // A request counts as sent once its last byte reached the socket.
  auto flush = [&](Conn& c, std::int64_t now) {
    while (!c.outbox.empty()) {
      const ssize_t n =
          ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
      if (n <= 0) break;
      c.outbox.erase(0, static_cast<std::size_t>(n));
      c.sent_bytes += static_cast<std::uint64_t>(n);
    }
    while (!c.unsent.empty() && c.unsent.front().second <= c.sent_bytes) {
      outcomes[c.unsent.front().first].sent_ns = now;
      c.waiting.push_back(c.unsent.front().first);
      c.unsent.pop_front();
    }
  };

  while (done < total) {
    std::int64_t now = now_ns() - t0;
    // Send everything due (open loop) or the next request once the
    // previous one is answered (closed loop).
    while (next < total) {
      const Scheduled& s = schedule[next];
      Conn& c = s.swap ? admin : conns[queries % conns.size()];
      if (opts.closed) {
        bool busy = false;
        for (const Conn& q : conns)
          busy = busy || !q.waiting.empty() || !q.unsent.empty();
        if (busy) break;
      } else if (s.due_ns > now) {
        break;
      }
      enqueue(c, next, s.swap ? "swap " + stores[s.arg] : lines[s.arg]);
      if (!s.swap) ++queries;
      ++next;
      flush(c, now);
    }
    if (next == total && deadline < 0)
      deadline = std::max(now, last_due) + kDrainNs;
    if (deadline >= 0 && now > deadline) break;

    std::int64_t wait_ns = 5000000;
    if (!opts.closed && next < total)
      wait_ns = std::min(wait_ns, std::max<std::int64_t>(0, schedule[next].due_ns - now));
    for (std::size_t i = 0; i <= conns.size(); ++i) {
      Conn& c = i < conns.size() ? conns[i] : admin;
      fds[i].fd = c.fd;
      fds[i].events = static_cast<short>(POLLIN | (c.outbox.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                      static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    now = now_ns() - t0;
    for (std::size_t i = 0; i <= conns.size(); ++i) {
      Conn& c = i < conns.size() ? conns[i] : admin;
      if (fds[i].revents & POLLOUT) flush(c, now);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[65536];
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
          if (n <= 0) break;
          c.inbox.append(buf, static_cast<std::size_t>(n));
        }
        const std::size_t before = c.waiting.size();
        drain_frames(c, outcomes, now);
        done += before - c.waiting.size();
      }
    }
  }
  for (Conn& c : conns) (void)::close(c.fd);
  if (admin.fd >= 0) (void)::close(admin.fd);

  std::FILE* out = std::fopen(opts.out.c_str(), "w");
  UNP_REQUIRE(out != nullptr);
  for (std::size_t i = 0; i < total; ++i) {
    const Scheduled& s = schedule[i];
    const Outcome& o = outcomes[i];
    std::fprintf(out, "%c %zu %lld %lld %lld %d %016llx\n", s.swap ? 's' : 'q',
                 s.arg, static_cast<long long>(opts.closed ? o.sent_ns : s.due_ns),
                 static_cast<long long>(o.sent_ns),
                 static_cast<long long>(o.recv_ns), o.status,
                 static_cast<unsigned long long>(o.hash));
  }
  UNP_REQUIRE(std::fclose(out) == 0);
  return 0;
}

// --- argument parsing ------------------------------------------------------

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver report --mode cold|warm --seed S "
               "--threads T --cache-dir D --out REPORT --json OUT [--trace] "
               "[--store-out PATH]\n"
               "       perfbench_driver serve --store PATH... --workers W "
               "--cache N --port-file F --json OUT [--trace]\n"
               "       perfbench_driver loadgen --port P --lines FILE "
               "--schedule FILE [--store PATH ...] --out FILE [--conns N] "
               "[--closed]\n"
               "       perfbench_driver isa\n");
  std::exit(2);
}

int run(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::vector<std::string>> args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) usage();
    if (flag == "--trace" || flag == "--closed") {
      args[flag].push_back("1");
    } else {
      if (i + 1 >= argc) usage();
      args[flag].push_back(argv[++i]);
    }
  }
  auto one = [&](const char* flag, const char* fallback) -> std::string {
    const auto it = args.find(flag);
    if (it == args.end()) {
      if (fallback == nullptr) usage();
      return fallback;
    }
    return it->second.back();
  };
  auto number = [&](const char* flag, const char* fallback) {
    return std::strtoull(one(flag, fallback).c_str(), nullptr, 10);
  };
  if (args.count("--trace")) g_tracer.enable();

  if (cmd == "report") {
    ReportOptions o;
    const std::string mode = one("--mode", nullptr);
    if (mode != "cold" && mode != "warm") usage();
    o.cold = mode == "cold";
    o.seed = number("--seed", nullptr);
    o.threads = std::max<std::size_t>(1, number("--threads", "1"));
    o.cache_dir = one("--cache-dir", nullptr);
    o.out = one("--out", nullptr);
    o.json = one("--json", nullptr);
    o.store_out = one("--store-out", "");
    // The untraced path goes through stream_campaign, which reads the
    // cache directory from the environment exactly as unp_report's
    // --cache-dir sets it.
    setenv("UNP_CACHE_DIR", o.cache_dir.c_str(), 1);
    return run_report(o);
  }
  if (cmd == "serve") {
    ServeOptions o;
    if (!args.count("--store")) usage();
    o.stores = args["--store"];
    o.workers = std::max<std::size_t>(1, number("--workers", "2"));
    o.cache = number("--cache", "64");
    o.port_file = one("--port-file", nullptr);
    o.json = one("--json", nullptr);
    return run_serve(o);
  }
  if (cmd == "loadgen") {
    LoadgenOptions o;
    o.port = static_cast<std::uint16_t>(number("--port", nullptr));
    o.lines_path = one("--lines", nullptr);
    o.schedule_path = one("--schedule", nullptr);
    if (args.count("--store")) o.stores = args["--store"];
    o.out = one("--out", nullptr);
    o.conns = std::max<std::size_t>(1, number("--conns", "1"));
    o.closed = args.count("--closed") > 0;
    return run_loadgen(o);
  }
  if (cmd == "isa") {
    std::printf("%s\n", simd::to_string(simd::active_isa()));
    return 0;
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: fatal: %s\n", e.what());
    return 2;
  }
}
