// Shared renderers for every paper figure/table the bench suite prints.
//
// Each renderer takes finished analysis products and writes one complete,
// self-describing report section (header included) to stdout.  Every front
// end calls these with equal values, so their output is byte-identical by
// construction:
//
//   - unp_report computes all products in one streaming pass (live or from
//     a UNPF store) and prints any requested subset;
//   - unp_query and unp_serve render the same sections over a store
//     predicate;
//   - unp_policy --sweep prints Table II from the online policy engine.
#pragma once

#include <cstdio>
#include <span>
#include <vector>

#include "analysis/alignment.hpp"
#include "analysis/bitstats.hpp"
#include "analysis/extraction.hpp"
#include "analysis/grouping.hpp"
#include "analysis/hammer_census.hpp"
#include "analysis/interarrival.hpp"
#include "analysis/markov.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "resilience/quarantine.hpp"

namespace unp::bench {

/// Section III-B headline statistics.
void print_headline(const analysis::HeadlineStats& stats,
                    const analysis::ExtractionResult& extraction,
                FILE* out = stdout);

/// Fig 1: hours each node was scanned.
void print_fig01(const Grid2D& hours,
                FILE* out = stdout);

/// Fig 2: terabyte-hours per node (needs Fig 1's grid for the correlation).
void print_fig02(const Grid2D& hours, const Grid2D& tbh,
                FILE* out = stdout);

/// Fig 3: independent errors per node.
void print_fig03(const Grid2D& errors,
                FILE* out = stdout);

/// Table I: multi-bit corruption census.
void print_tab1(const std::vector<analysis::MultibitPattern>& patterns,
                const analysis::AdjacencyStats& adj,
                const analysis::DirectionStats& dir,
                FILE* out = stdout);

/// Fig 4: per-word vs per-node accounting of the same corruptions.
void print_fig04(const analysis::MultibitViewpoints& viewpoints,
                 const analysis::CoOccurrence& co,
                FILE* out = stdout);

/// Fig 5: errors per hour of day, by bit class.
void print_fig05(const analysis::HourOfDayProfile& profile,
                FILE* out = stdout);

/// Fig 6: multi-bit errors per hour of day.
void print_fig06(const analysis::HourOfDayProfile& profile,
                FILE* out = stdout);

/// Fig 7: errors vs node temperature, by bit class.
void print_fig07(const analysis::TemperatureProfile& profile,
                FILE* out = stdout);

/// Fig 8: multi-bit errors vs node temperature.
void print_fig08(const analysis::TemperatureProfile& profile,
                FILE* out = stdout);

/// Fig 9: terabyte-hours scanned per day.
void print_fig09(std::span<const double> daily_tbh,
                 const CampaignWindow& window,
                FILE* out = stdout);

/// Fig 10: errors per day + the Section III-G scan-vs-error correlation.
void print_fig10(const analysis::DailyErrorSeries& series,
                 const PearsonResult& corr, const CampaignWindow& window,
                FILE* out = stdout);

/// Fig 11: multi-bit errors per day (walks the fault list directly).
void print_fig11(analysis::FaultView faults, const CampaignWindow& window,
                FILE* out = stdout);

/// Fig 12: top-3 nodes vs the rest; `profiles` pairs with `top.nodes`.
void print_fig12(const analysis::TopNodeSeries& top,
                 const std::vector<analysis::NodePatternProfile>& profiles,
                 const CampaignWindow& window,
                FILE* out = stdout);

/// Fig 13 + Section III-I: normal vs degraded days.
void print_fig13(const analysis::AutoRegime& result,
                 const CampaignWindow& window,
                FILE* out = stdout);

/// Table II: quarantine-period sweep, as printed by the online policy
/// engine (unp_policy --sweep).  Outcomes equal to the batch
/// resilience::quarantine_sweep render byte-identically.
void print_tab2(const std::vector<resilience::QuarantineOutcome>& sweep,
                FILE* out = stdout);

/// Extension: inter-arrival structure vs the Poisson null.
void print_ext_temporal(const analysis::InterArrivalStats& observed,
                        const analysis::InterArrivalStats& null_model,
                FILE* out = stdout);

/// Extension: Markov dynamics of the regime sequence.
void print_ext_markov(const std::vector<bool>& days,
                      const analysis::MarkovRegimeModel& model,
                      const analysis::SpellStats& stats,
                      double empirical_degraded_fraction,
                FILE* out = stdout);

/// Extension: physical alignment of simultaneous corruptions.
void print_ext_alignment(const analysis::AlignmentStats& stats,
                         const analysis::LogicalSpread& spread,
                FILE* out = stdout);

/// Extension: the ECC evaluation engine's population replay — every
/// extracted fault mask decoded by each default code (ecc/registry.hpp),
/// outcomes per code and per corruption-multiplicity class.  Deterministic
/// for a given fault set (the engine is thread-count invariant), so store
/// and live paths render byte-identically.
void print_ext_ecc(const analysis::ExtractionResult& extraction,
                FILE* out = stdout);

/// Extension: Rowhammer victim-row census — the per-geometry products of
/// the folded census passes (one per dram/mapping menu geometry), plus the
/// detected-row ledger for the primary geometry.  The passes are fault sinks
/// (analysis/hammer_census.hpp), so store, live and aggregate paths render
/// byte-identically.
void print_ext_hammer(const analysis::HammerCensusSet& census,
                FILE* out = stdout);

}  // namespace unp::bench
