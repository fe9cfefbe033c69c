// CSV exporters for every figure's underlying data.
//
// The bench binaries print ASCII renderings; these functions emit the same
// series as machine-readable CSV so the paper's plots can be regenerated
// with any plotting stack.  write_figure_bundle() drops one file per
// figure into a directory.
#pragma once

#include <string>

#include "analysis/extraction.hpp"
#include "analysis/grouping.hpp"
#include "analysis/metrics.hpp"
#include "common/histogram.hpp"

namespace unp::analysis {

/// Node-grid CSV: "blade,soc,value" per cell (Figs 1-3).
[[nodiscard]] std::string csv_grid(const Grid2D& grid, const std::string& header);

/// Hour-of-day CSV: "hour,bits1,...,bits6plus,total,multibit" (Figs 5-6).
[[nodiscard]] std::string csv_hour_profile(const HourOfDayProfile& profile);

/// Temperature CSV: "bin_lo_c,bin_hi_c,bits1,...,bits6plus" (Figs 7-8).
[[nodiscard]] std::string csv_temperature_profile(const TemperatureProfile& profile);

/// Daily CSV: "day,date,tbh_scanned,errors,multibit_errors" (Figs 9-11),
/// the scanned series from `scan`'s pass over the campaign's records.
[[nodiscard]] std::string csv_daily(const ScanProfileSink& scan,
                                    FaultView faults);

/// Full fault dump:
/// "node,first_seen,last_seen,raw_logs,vaddr,expected,actual,bits,temp_c".
[[nodiscard]] std::string csv_faults(FaultView faults);

/// Fig 4 CSV: "bits,per_word,per_node".
[[nodiscard]] std::string csv_viewpoints(const MultibitViewpoints& viewpoints);

/// Write the complete figure bundle (fig01..fig11 plus faults.csv) into
/// `directory` (created if needed), from one campaign's scan profile and
/// extraction.  Returns the number of files written.
int write_figure_bundle(const std::string& directory,
                        const ScanProfileSink& scan,
                        const ExtractionResult& extraction);

}  // namespace unp::analysis
