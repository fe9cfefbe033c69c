// StoreReader: the query side of the UNPF columnar store.
//
// A reader is a thin scan planner over a shared, immutable StoreHandle
// (see store/handle.hpp): the handle owns the mmap-backed bytes and the
// parsed metadata; the reader plans a scan from a Query (segment pruning
// via zone maps, column projection via required_columns), fans the
// surviving segments out on the shared ThreadPool, and concatenates
// per-segment results in directory order — so query results are
// bit-identical for any thread count, with pruning on or off, and on every
// kernel ISA.  Copying a reader copies a shared_ptr; any number of threads
// may run() against the same handle concurrently without locks.
//
// replay() closes the loop with the live pipeline: it materializes matching
// rows back into canonical FaultRecords and streams them through any set of
// analysis::FaultSinks, exactly as run_fault_sinks does downstream of
// StreamingExtractor.  A figure computed from a store replay is therefore
// byte-identical to the same figure computed live.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/extraction.hpp"
#include "analysis/fault_sink.hpp"
#include "common/thread_pool.hpp"
#include "store/format.hpp"
#include "store/handle.hpp"
#include "store/query.hpp"

namespace unp::store {

/// Observability counters of one scan.
struct ScanStats {
  std::size_t segments_total = 0;
  std::size_t segments_pruned = 0;   ///< skipped via zone maps
  std::size_t segments_scanned = 0;  ///< decoded and row-filtered
  std::uint64_t rows_scanned = 0;    ///< rows decoded
  std::uint64_t rows_matched = 0;    ///< rows passing the predicate
};

/// Matching rows in directory (= canonical) order, column-major.  Vectors
/// for unprojected columns are empty; projected ones share one length.
struct QueryResult {
  SegmentColumns columns;
  std::uint64_t rows = 0;
};

/// How a scan executes (never what it returns — results are identical for
/// every option combination).
struct ScanOptions {
  ThreadPool* pool = nullptr;  ///< nullptr = sequential scan
  bool prune = true;           ///< false = decode every segment (for the
                               ///  pruning-equivalence proof in the gate)
  const kernels::StoreKernels* kernels = nullptr;  ///< nullptr = process-wide
};

class StoreReader {
 public:
  using Options = ScanOptions;

  /// View an already-open handle (the cheap, shareable path).
  explicit StoreReader(std::shared_ptr<const StoreHandle> handle)
      : handle_(std::move(handle)) {}

  /// Map, parse, and wrap the store file at `path`.
  [[nodiscard]] static StoreReader open(const std::string& path) {
    return StoreReader(StoreHandle::open(path));
  }

  /// Open the part files of write_partitioned_store as one logical store
  /// (see StoreHandle::open_partitioned for the agreement rules).
  [[nodiscard]] static StoreReader open_partitioned(
      const std::vector<std::string>& paths) {
    return StoreReader(StoreHandle::open_partitioned(paths));
  }

  /// The shared parsed store this reader scans.
  [[nodiscard]] const std::shared_ptr<const StoreHandle>& handle()
      const noexcept {
    return handle_;
  }

  // --- campaign metadata (forwarded from the handle) ----------------------
  [[nodiscard]] const CampaignWindow& window() const noexcept {
    return handle_->window();
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return handle_->fingerprint();
  }
  [[nodiscard]] const StoredScanProfile& scan_profile() const noexcept {
    return handle_->scan_profile();
  }
  [[nodiscard]] const StoredExtractionMeta& extraction_meta() const noexcept {
    return handle_->extraction_meta();
  }
  [[nodiscard]] const std::vector<SegmentZone>& zones() const noexcept {
    return handle_->zones();
  }
  [[nodiscard]] std::uint64_t rows_total() const noexcept {
    return handle_->rows_total();
  }

  /// Execute `query`: prune segments, decode required columns, filter rows,
  /// keep projected columns.  Deterministic for any Options.
  [[nodiscard]] QueryResult run(const Query& query,
                                const Options& options = Options{},
                                ScanStats* stats = nullptr) const;

  /// Materialize matching rows as canonical FaultRecords (query.projection
  /// is ignored; records need every column).
  [[nodiscard]] std::vector<analysis::FaultRecord> materialize(
      const Query& query, const Options& options = Options{},
      ScanStats* stats = nullptr) const;

  /// Materialize and stream through `sinks` exactly like run_fault_sinks
  /// downstream of the live extractor.  Returns the materialized rows; the
  /// caller must keep them alive while sink products are consumed (sinks
  /// may retain pointers into the view).
  [[nodiscard]] std::vector<analysis::FaultRecord> replay(
      const Query& query, std::span<analysis::FaultSink* const> sinks,
      ThreadPool* pool = nullptr) const;

  /// Rebuild the ExtractionResult of the source campaign (all faults plus
  /// the stored accounting) — the store-backed stand-in for a
  /// StreamingExtractor pass over the campaign's records.
  [[nodiscard]] analysis::ExtractionResult extraction_result(
      ThreadPool* pool = nullptr) const;

 private:
  std::shared_ptr<const StoreHandle> handle_;
};

}  // namespace unp::store
