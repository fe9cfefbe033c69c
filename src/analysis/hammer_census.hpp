// Rowhammer victim-row census (`--ext hammer`) as fault sinks.
//
// Each pass feeds the extracted faults through one HammerRowDetector per
// node - the detector the live mitigation policy and the closed-loop runner
// use, so all three agree by construction - under one DRAM mapping.  A
// folded pass wraps every word into the geometry's address space so every
// geometry sees every fault; the ledger pass skips words past it and keeps
// every detected row.  At end_faults a pass reduces its detectors to the
// product the section prints and frees them, so rendering only formats.
//
// State blobs: the shard fabric partitions faults by node and a detector's
// outcome depends on its node's faults alone, so a blob holds per-node
// outcomes and merging is a union by node.  A node present in two partial
// states (or streamed locally and merged) is refused.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fault_sink.hpp"
#include "dram/mapping/mapping.hpp"
#include "faults/hammer/detect.hpp"

namespace unp::analysis {

/// One detected victim row, tagged with its node.
struct HammerLedgerRow {
  int node_index = 0;
  faults::hammer::DetectedRow row;
};

/// What one census pass reduces to.
struct HammerCensus {
  std::uint64_t rows_triggered = 0;
  std::uint64_t nodes_triggered = 0;
  std::uint64_t absorbable = 0;  ///< faults a row retirement would absorb
  int max_words = 0;             ///< most distinct words on one row
  /// Ledger passes only: every detection, node-ordered, in trigger order
  /// within a node.
  std::vector<HammerLedgerRow> ledger;
};

/// One census pass under one mapping geometry.
class HammerCensusSink final : public FaultSink {
 public:
  enum class Mode { kFolded, kLedger };

  /// `geometry` names a dram::mapping::mapping_menu() entry.
  HammerCensusSink(const std::string& geometry, Mode mode);
  HammerCensusSink(const HammerCensusSink&) = delete;
  HammerCensusSink& operator=(const HammerCensusSink&) = delete;

  void begin_faults(const FaultStreamContext& ctx) override;
  void on_fault(const FaultRecord& fault) override;
  /// Reduces the per-node outcomes to census() and frees the detectors.
  void end_faults() override;
  [[nodiscard]] std::string serialize_state() const override;
  void merge_state(const std::string& blob) override;

  [[nodiscard]] const std::string& geometry() const noexcept {
    return mapping_.config().name;
  }
  /// Observability label: `hammer:<geometry>` or `hammer-ledger`.
  [[nodiscard]] const char* label() const noexcept { return label_.c_str(); }
  [[nodiscard]] const HammerCensus& census() const noexcept { return census_; }

 private:
  /// One node's detector reduced to what the census reads.
  struct NodeOutcome {
    std::uint64_t absorbable = 0;
    std::uint64_t rows = 0;
    int max_words = 0;
    std::vector<faults::hammer::DetectedRow> detections;  ///< kLedger only
  };
  /// A node's faults either streamed here or arrived in a merged blob.
  struct NodeSlot {
    std::unique_ptr<faults::hammer::HammerRowDetector> detector;
    std::optional<NodeOutcome> merged;
  };

  [[nodiscard]] NodeOutcome reduce(
      const faults::hammer::HammerRowDetector& detector) const;
  [[nodiscard]] const NodeOutcome* outcome(const NodeSlot& slot,
                                           NodeOutcome& scratch) const;

  dram::mapping::DramMapping mapping_;
  Mode mode_;
  std::string label_;
  std::vector<NodeSlot> nodes_;  ///< by node index; empty outside a pass
  HammerCensus census_;
};

/// Every pass the `--ext hammer` section reads: one folded pass per
/// mapping_menu() geometry, in menu order, then the lpddr3:mb ledger.
struct HammerCensusSet {
  HammerCensusSet();

  std::vector<std::unique_ptr<HammerCensusSink>> geometries;
  HammerCensusSink ledger{"lpddr3:mb", HammerCensusSink::Mode::kLedger};

  /// Geometries in menu order, then the ledger.
  [[nodiscard]] std::vector<FaultSink*> sinks();
};

}  // namespace unp::analysis
