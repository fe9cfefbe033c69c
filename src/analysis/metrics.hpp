// Figure-level metrics over the extracted faults and the record stream:
// the node-grid heat maps (Figs 1-3), hour-of-day profiles (Figs 5-6),
// temperature profiles (Figs 7-8), daily series (Figs 9-11), the top-node
// decomposition (Fig 12) and the scan-vs-error correlation (Section III-G).
//
// The fault products exist in two shapes that share one implementation: a
// batch function over a FaultView, and a streaming FaultSink that
// accumulates the same product incrementally.  The batch functions are thin
// wrappers that drive the analyzer over the view, so both paths are
// bit-identical by construction.  The scan products (Figs 1, 2, 9 and the
// headline totals) come from one record-level sink, ScanProfileSink.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/extraction.hpp"
#include "analysis/fault_sink.hpp"
#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "telemetry/sink.hpp"

namespace unp::analysis {

/// Flip-width classes used throughout the figures: 1, 2, 3, 4, 5, 6+.
constexpr int kBitClasses = 6;
[[nodiscard]] constexpr int bit_class(int bits) noexcept {
  return bits >= kBitClasses ? kBitClasses - 1 : bits - 1;
}
[[nodiscard]] const char* bit_class_label(int klass) noexcept;

/// counts[day][bit class] (Figs 10, 11).
using DailyErrorSeries = std::vector<std::array<std::uint64_t, kBitClasses>>;

// --- Node-grid heat maps (blade rows x SoC columns) ---------------------

/// Figs 1 and 2 (hours and terabyte-hours each node scanned) are
/// ScanProfileSink's grids.

/// Fig 3: independent memory errors per node.
[[nodiscard]] Grid2D errors_grid(FaultView faults);

// --- Hour-of-day profiles (Figs 5, 6) ------------------------------------

/// counts[hour][bit class]; hours are local (Europe/Madrid) wall clock.
struct HourOfDayProfile {
  std::array<std::array<std::uint64_t, kBitClasses>, 24> counts{};

  [[nodiscard]] std::uint64_t total(int hour) const noexcept;
  [[nodiscard]] std::uint64_t multibit(int hour) const noexcept;
  /// Errors observed 07:00-18:59 vs the rest (the paper's day/night split).
  [[nodiscard]] double day_night_ratio_multibit() const noexcept;
};

[[nodiscard]] HourOfDayProfile hour_of_day_profile(FaultView faults);

// --- Temperature profiles (Figs 7, 8) ------------------------------------

/// One histogram per bit class over node temperature; faults without a
/// reading (pre-April) are excluded.
struct TemperatureProfile {
  static constexpr double kLoC = 20.0;
  static constexpr double kHiC = 80.0;
  static constexpr std::size_t kBins = 30;  ///< 2 degC bins

  std::vector<Histogram1D> by_class;  ///< kBitClasses histograms
  std::uint64_t without_reading = 0;

  TemperatureProfile();
};

[[nodiscard]] TemperatureProfile temperature_profile(FaultView faults);

// --- Daily series (Figs 9-12) --------------------------------------------

/// Splits complete sessions across local-day boundaries into a per-day
/// terabyte-hour series (Fig 9), indexed by campaign day.  It keeps the
/// campaign's first local day and the current UTC year's DST window, so a
/// chunk costs no calendar arithmetic.  Shared by the per-node
/// accumulate_daily_terabyte_hours and the streaming ScanProfileSink so both
/// run identical floating-point arithmetic.
class DailyTerabyteHours {
 public:
  DailyTerabyteHours(const CampaignWindow& window, std::vector<double>& series);
  /// Add one complete session (see NodeLog::for_each_session).  Only the
  /// series' days are walked, however far apart START and END lie.
  void add(const telemetry::StartRecord& start, const telemetry::EndRecord& end);

 private:
  std::int64_t first_day_;
  BarcelonaYear year_;
  std::vector<double>* series_;
};

/// Accumulate one node's contribution to the per-day terabyte-hour series
/// (Fig 9): every complete session of `log` through DailyTerabyteHours.
/// The per-node reference for ScanProfileSink's series.
void accumulate_daily_terabyte_hours(const telemetry::NodeLog& log,
                                     const CampaignWindow& window,
                                     std::vector<double>& series);

[[nodiscard]] DailyErrorSeries daily_errors(FaultView faults,
                                            const CampaignWindow& window);

/// Fig 12: per-day error counts of the `top` loudest nodes plus the rest.
struct TopNodeSeries {
  std::vector<cluster::NodeId> nodes;          ///< loudest first
  std::vector<std::uint64_t> node_totals;      ///< same order
  std::vector<std::vector<std::uint64_t>> per_day;  ///< [node][day]
  std::vector<std::uint64_t> rest_per_day;
  std::uint64_t rest_total = 0;
};

[[nodiscard]] TopNodeSeries top_node_series(FaultView faults,
                                            const CampaignWindow& window,
                                            std::size_t top = 3);

/// Section III-G: Pearson correlation between daily scanned TB-h and daily
/// error counts.
[[nodiscard]] PearsonResult scan_error_correlation(
    std::span<const double> daily_tbh, const DailyErrorSeries& errors);

// --- Headline statistics (Section III-B) ---------------------------------

struct HeadlineStats {
  std::uint64_t raw_logs = 0;
  double removed_fraction = 0.0;
  std::uint64_t independent_faults = 0;
  double monitored_node_hours = 0.0;
  double terabyte_hours = 0.0;
  int monitored_nodes = 0;
  /// Mean time between errors for one node (monitored hours / faults).
  double node_mtbf_hours = 0.0;
  /// Mean time between errors anywhere in the cluster (campaign minutes /
  /// faults).
  double cluster_mtbe_minutes = 0.0;
};

/// Assemble the headline numbers from the scan totals of a ScanProfileSink
/// pass (or a store's scan profile).
[[nodiscard]] HeadlineStats headline_stats(double monitored_node_hours,
                                           double terabyte_hours,
                                           int monitored_nodes,
                                           const CampaignWindow& window,
                                           const ExtractionResult& extraction);

// --- Streaming analyzers --------------------------------------------------

/// Record-level analyzer: every product the figures read from the raw
/// records (Figs 1, 2, 9 and the headline scan totals), computed in one
/// pass over the record stream.  A bulk node log is read in place through
/// its sessions, so a replayed frame's runs are never decoded for it; on
/// the per-record feed only START/END records are buffered, one node at a
/// time.
class ScanProfileSink final : public telemetry::RecordSink {
 public:
  ScanProfileSink();

  void begin_campaign(const CampaignWindow& window) override;
  void begin_node(cluster::NodeId node) override;
  void end_node(cluster::NodeId node) override;
  void on_start(const telemetry::StartRecord& r) override;
  void on_end(const telemetry::EndRecord& r) override;
  void on_alloc_fail(const telemetry::AllocFailRecord& /*r*/) override {}
  void on_error_run(const telemetry::ErrorRun& /*r*/) override {}
  void on_node_log(telemetry::EncodedNodeLog& log) override;

  [[nodiscard]] const CampaignWindow& window() const noexcept { return window_; }
  [[nodiscard]] const Grid2D& hours_grid() const noexcept { return hours_; }
  [[nodiscard]] const Grid2D& terabyte_hours_grid() const noexcept { return tbh_; }
  [[nodiscard]] const std::vector<double>& daily_terabyte_hours() const noexcept {
    return daily_tbh_;
  }
  [[nodiscard]] double total_monitored_hours() const noexcept { return total_hours_; }
  [[nodiscard]] double total_terabyte_hours() const noexcept { return total_tbh_; }
  [[nodiscard]] int monitored_nodes() const noexcept { return monitored_nodes_; }

 private:
  /// Fold one node's START/END records into the grids and totals.
  void add_node(cluster::NodeId node, const telemetry::NodeLog& log);

  CampaignWindow window_;
  Grid2D hours_;
  Grid2D tbh_;
  std::vector<double> daily_tbh_;
  double total_hours_ = 0.0;
  double total_tbh_ = 0.0;
  int monitored_nodes_ = 0;
  telemetry::NodeLog pending_;  ///< starts/ends of the node being streamed
  bool bulk_ = false;           ///< current node arrived via on_node_log
};

/// Fig 3 incrementally.
class ErrorsGridAnalyzer final : public FaultSink {
 public:
  ErrorsGridAnalyzer();
  void begin_faults(const FaultStreamContext& ctx) override;
  void on_fault(const FaultRecord& fault) override;
  [[nodiscard]] std::string serialize_state() const override;
  void merge_state(const std::string& blob) override;
  [[nodiscard]] const Grid2D& grid() const noexcept { return grid_; }

 private:
  Grid2D grid_;
};

/// Figs 5-6 incrementally.
class HourOfDayAnalyzer final : public FaultSink {
 public:
  void begin_faults(const FaultStreamContext& ctx) override;
  void on_fault(const FaultRecord& fault) override;
  [[nodiscard]] std::string serialize_state() const override;
  void merge_state(const std::string& blob) override;
  [[nodiscard]] const HourOfDayProfile& profile() const noexcept { return profile_; }

 private:
  HourOfDayProfile profile_;
};

/// Figs 7-8 incrementally.
class TemperatureAnalyzer final : public FaultSink {
 public:
  void begin_faults(const FaultStreamContext& ctx) override;
  void on_fault(const FaultRecord& fault) override;
  [[nodiscard]] std::string serialize_state() const override;
  void merge_state(const std::string& blob) override;
  [[nodiscard]] const TemperatureProfile& profile() const noexcept { return profile_; }

 private:
  TemperatureProfile profile_;
};

/// Figs 10-11 incrementally.
class DailyErrorsAnalyzer final : public FaultSink {
 public:
  void begin_faults(const FaultStreamContext& ctx) override;
  void on_fault(const FaultRecord& fault) override;
  [[nodiscard]] std::string serialize_state() const override;
  void merge_state(const std::string& blob) override;
  [[nodiscard]] const DailyErrorSeries& series() const noexcept { return series_; }

 private:
  CampaignWindow window_;
  DailyErrorSeries series_;
};

/// Fig 12 incrementally: keeps the full per-node-per-day census (~3 MB for
/// the study topology) and resolves the top-`top` decomposition at
/// end_faults.
class TopNodeAnalyzer final : public FaultSink {
 public:
  explicit TopNodeAnalyzer(std::size_t top = 3) : top_(top) {}

  void begin_faults(const FaultStreamContext& ctx) override;
  void on_fault(const FaultRecord& fault) override;
  void end_faults() override;
  [[nodiscard]] std::string serialize_state() const override;
  void merge_state(const std::string& blob) override;
  [[nodiscard]] const TopNodeSeries& series() const noexcept { return series_; }

 private:
  std::size_t top_;
  CampaignWindow window_;
  std::size_t days_ = 0;
  std::vector<std::uint64_t> totals_;  ///< all faults, valid day or not
  std::vector<std::uint64_t> counts_;  ///< [node * days_ + day], valid days
  TopNodeSeries series_;
};

}  // namespace unp::analysis
