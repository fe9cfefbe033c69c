// Shared section registry + renderer for the unified report front ends.
//
// unp_report's live pipeline and the store-backed paths (unp_report --store,
// unp_query --fig) produce their analysis products from different fault
// sources — a streaming extraction vs a columnar-store replay — but must
// print byte-identical sections.  This header factors the part both share:
// which analyzer sinks a section set needs, and how finished products plus
// scan-side inputs render in canonical report order through the
// bench::print_* functions.
#pragma once

#include <cstdio>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "analysis/alignment.hpp"
#include "analysis/bitstats.hpp"
#include "analysis/fault_sink.hpp"
#include "analysis/grouping.hpp"
#include "analysis/hammer_census.hpp"
#include "analysis/interarrival.hpp"
#include "analysis/markov.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "dram/address_map.hpp"

namespace unp::bench {

/// Every printable report section, in canonical output order.
enum Section : int {
  kHeadline = 0,
  kFig01,
  kFig02,
  kFig03,
  kTab1,
  kFig04,
  kFig05,
  kFig06,
  kFig07,
  kFig08,
  kFig09,
  kFig10,
  kFig11,
  kFig12,
  kFig13,
  kExtTemporal,
  kExtMarkov,
  kExtAlignment,
  kExtEcc,
  kExtHammer,
  kSectionCount
};

/// One `--ext NAME` extension section.  The registry below is the single
/// source of truth for the front ends: unp_report resolves `--ext` values
/// against it and lists exactly these names when given an unknown one, so
/// adding a section here is all it takes to expose it on the CLI.
struct ExtSection {
  const char* name;
  Section section;
};

[[nodiscard]] std::span<const ExtSection> ext_sections() noexcept;
/// The registry entry called `name`; nullptr when there is none.
[[nodiscard]] const ExtSection* find_ext_section(std::string_view name) noexcept;

/// `--fig N` (1..13) to Section mapping.
inline constexpr Section kFigSections[] = {kFig01, kFig02, kFig03, kFig04,
                                           kFig05, kFig06, kFig07, kFig08,
                                           kFig09, kFig10, kFig11, kFig12,
                                           kFig13};

/// Scan-side and extraction-side inputs of the renderers; pointees must
/// outlive render_report_sections.  Populated from a live ScanProfileSink or
/// from a store's persisted scan profile — equal values either way.
struct ReportInputs {
  CampaignWindow window;
  const Grid2D* hours = nullptr;
  const Grid2D* terabyte_hours = nullptr;
  std::span<const double> daily_terabyte_hours;
  double total_hours = 0.0;
  double total_terabyte_hours = 0.0;
  int monitored_nodes = 0;
  const analysis::ExtractionResult* extraction = nullptr;
};

/// Owns one instance of every fault-level analyzer a report can need and
/// registers exactly those the wanted sections use.  Feed sinks() one
/// in-order fault pass (run_fault_sinks or StoreReader::replay), then
/// render(), which formats their finished products.
class ReportAnalyzers {
 public:
  explicit ReportAnalyzers(const bool (&wanted)[kSectionCount]);

  /// Sinks the wanted sections require, for the fault fan-out.
  [[nodiscard]] std::span<analysis::FaultSink* const> sinks() const noexcept {
    return sinks_;
  }
  /// Observability labels, parallel to sinks().
  [[nodiscard]] const std::vector<const char*>& labels() const noexcept {
    return labels_;
  }

  /// Print the wanted sections to `out` (stdout by default) in canonical
  /// order.  Non-const: some analyzer accessors finalize lazily on first
  /// read.
  void render(const ReportInputs& in, FILE* out = stdout);

 private:
  [[nodiscard]] bool want(Section s) const noexcept { return want_[s]; }

  bool want_[kSectionCount] = {};
  analysis::ErrorsGridAnalyzer errors_grid_;
  analysis::MultibitPatternAnalyzer patterns_;
  analysis::AdjacencyAnalyzer adjacency_;
  analysis::DirectionAnalyzer direction_;
  analysis::SimultaneousGroupAnalyzer grouping_;
  analysis::HourOfDayAnalyzer hourly_;
  analysis::TemperatureAnalyzer temperature_;
  analysis::DailyErrorsAnalyzer daily_;
  analysis::TopNodeAnalyzer top_nodes_;
  analysis::NodePatternCensus node_patterns_;
  analysis::RegimeAnalyzer regime_;
  analysis::InterArrivalAnalyzer interarrival_;
  analysis::RegimeDynamicsAnalyzer dynamics_;
  dram::AddressMap address_map_;
  analysis::AlignmentAnalyzer alignment_;
  std::optional<analysis::HammerCensusSet> hammer_;  ///< with kExtHammer
  std::vector<analysis::FaultSink*> sinks_;
  std::vector<const char*> labels_;
};

}  // namespace unp::bench
