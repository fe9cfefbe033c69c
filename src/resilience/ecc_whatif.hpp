// ECC what-if analysis (Sections III-C/D and the ablation experiments).
//
// Because the machine was unprotected, the study knows the exact corruption
// of every fault and can decide, per protection scheme, whether it would
// have been corrected, merely detected (crash), or silent.  This is what
// grounds the paper's claims "76 double-bit errors would be detected by
// SECDED" and "9 errors could pass undetected, leading to SDC".
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/extraction.hpp"
#include "ecc/code.hpp"
#include "ecc/engine.hpp"

namespace unp::resilience {

struct EccWhatIf {
  /// A per-word parity bit: odd flip counts are detected (detect_only),
  /// even ones pass silently (sdc); it corrects nothing.
  ecc::VerdictCounts parity;
  ecc::PopulationResult secded;    ///< registry code `secded72`
  ecc::PopulationResult chipkill;  ///< registry code `chipkill`
  /// Faults with more than 2 flipped bits (the paper's "more than 2
  /// corrupted bits could pass undetected").
  std::uint64_t beyond_secded_guarantee = 0;
  std::uint64_t multibit_faults = 0;
  std::uint64_t double_bit_faults = 0;
};

/// Replay every fault's flip mask through SECDED(72,64), chipkill and
/// parity.  Faults with no flipped bit are skipped.
[[nodiscard]] EccWhatIf ecc_what_if(const std::vector<analysis::FaultRecord>& faults);

/// The isolation analysis of Section III-D: for each fault beyond SECDED's
/// guarantee (> 3 flipped bits in the paper's reading), check whether any
/// other fault occurred on the same node at all, or anywhere in the system
/// within `window_s` of it.
struct IsolationReport {
  analysis::FaultRecord fault;
  std::uint64_t same_node_other_faults = 0;   ///< any other fault, same node
  std::uint64_t same_node_small_faults = 0;   ///< same node, below min_bits
  std::uint64_t same_time_other_faults = 0;   ///< anywhere, within the window
};

[[nodiscard]] std::vector<IsolationReport> sdc_isolation_report(
    const std::vector<analysis::FaultRecord>& faults, int min_bits = 4,
    std::int64_t window_s = 3600);

}  // namespace unp::resilience
