// The memory scanner: the software error detector of the study.
//
// Life cycle (mirrors the original tool driven by scheduler prologue /
// epilogue scripts):
//
//   start()  - fill memory with the pattern's first value, log START
//   step()   - one iteration: check every word against the previous write,
//              log an ERROR per mismatching word, store the next value
//   request_stop() - the SIGTERM hook; safe from any thread / signal context
//   finish() - log END
//
// The scanner itself is policy-free: time comes from a Clock, temperature
// from a TemperatureProbe, storage from a MemoryBackend, and records go to
// a LogSink.  This is what lets the identical scanner drive a live machine
// and the simulated campaign.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

#include "cluster/topology.hpp"
#include "common/civil_time.hpp"
#include "scanner/backend.hpp"
#include "scanner/pattern.hpp"
#include "telemetry/node_log.hpp"
#include "telemetry/record.hpp"

namespace unp::scanner {

/// Time source for record timestamps.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual TimePoint now() = 0;
};

/// Wall clock (the live tool).
class SystemClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() override;
};

/// Scripted clock (tests and simulation).
class ManualClock final : public Clock {
 public:
  explicit ManualClock(TimePoint start = 0) noexcept : now_(start) {}
  [[nodiscard]] TimePoint now() override { return now_; }
  void set(TimePoint t) noexcept { now_ = t; }
  void advance(std::int64_t seconds) noexcept { now_ += seconds; }

 private:
  TimePoint now_;
};

/// Node temperature source.
class TemperatureProbe {
 public:
  virtual ~TemperatureProbe() = default;
  /// Reading in Celsius, or telemetry::kNoTemperature if unavailable.
  [[nodiscard]] virtual double read_c() = 0;
};

/// Constant reading (tests) or "no sensor" (pre-April-2015 behaviour).
class FixedProbe final : public TemperatureProbe {
 public:
  explicit FixedProbe(double celsius = telemetry::kNoTemperature) noexcept
      : celsius_(celsius) {}
  [[nodiscard]] double read_c() override { return celsius_; }
  void set(double celsius) noexcept { celsius_ = celsius; }

 private:
  double celsius_;
};

/// Receiver for the scanner's records.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void on_start(const telemetry::StartRecord& r) = 0;
  virtual void on_end(const telemetry::EndRecord& r) = 0;
  virtual void on_alloc_fail(const telemetry::AllocFailRecord& r) = 0;
  virtual void on_error(const telemetry::ErrorRecord& r) = 0;
};

/// Sink appending into a telemetry::NodeLog.
class NodeLogSink final : public LogSink {
 public:
  explicit NodeLogSink(telemetry::NodeLog& log) noexcept : log_(&log) {}
  void on_start(const telemetry::StartRecord& r) override { log_->add_start(r); }
  void on_end(const telemetry::EndRecord& r) override { log_->add_end(r); }
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override {
    log_->add_alloc_fail(r);
  }
  void on_error(const telemetry::ErrorRecord& r) override { log_->add_error(r); }

 private:
  telemetry::NodeLog* log_;
};

class MemoryScanner {
 public:
  struct Config {
    cluster::NodeId node;
    PatternKind pattern = PatternKind::kAlternating;
    /// Bytes reported in the START record (the negotiated allocation).
    std::uint64_t allocated_bytes = 0;
  };

  MemoryScanner(MemoryBackend& backend, LogSink& sink, Clock& clock,
                TemperatureProbe& probe, const Config& config);

  /// Fill memory with the pattern's first value and log START.
  void start();

  /// One check-and-flip iteration.  Returns false when a stop was requested
  /// (the iteration itself still completes).  Must be preceded by start().
  bool step();

  /// Run until `max_iterations` steps completed or a stop is requested.
  void run(std::uint64_t max_iterations =
               std::numeric_limits<std::uint64_t>::max());

  /// SIGTERM hook: async-signal-safe stop request.
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  /// Log END.  Call after the loop exits.
  void finish();

  [[nodiscard]] std::uint64_t iterations() const noexcept { return iteration_; }
  [[nodiscard]] std::uint64_t errors_logged() const noexcept { return errors_; }

 private:
  MemoryBackend* backend_;
  LogSink* sink_;
  Clock* clock_;
  TemperatureProbe* probe_;
  Config config_;
  Pattern pattern_;
  std::uint64_t iteration_ = 0;
  std::uint64_t errors_ = 0;
  bool started_ = false;
  std::atomic<bool> stop_{false};
};

}  // namespace unp::scanner
