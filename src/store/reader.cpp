#include "store/reader.hpp"

#include <exception>
#include <limits>

#include "common/bitops.hpp"
#include "common/require.hpp"

namespace unp::store {

namespace {

/// Append the kept rows of `src` to `dst` (no-op for undecoded columns).
template <typename T>
void append_kept(std::vector<T>& dst, const std::vector<T>& src,
                 const std::vector<std::uint32_t>& keep) {
  if (src.empty()) return;
  dst.reserve(dst.size() + keep.size());
  for (const std::uint32_t row : keep) dst.push_back(src[row]);
}

template <typename T>
void append_vector(std::vector<T>& dst, const std::vector<T>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void append_columns(SegmentColumns& dst, const SegmentColumns& src) {
  append_vector(dst.node_index, src.node_index);
  append_vector(dst.first_seen, src.first_seen);
  append_vector(dst.last_seen, src.last_seen);
  append_vector(dst.raw_logs, src.raw_logs);
  append_vector(dst.address, src.address);
  append_vector(dst.expected, src.expected);
  append_vector(dst.actual, src.actual);
  append_vector(dst.temperature, src.temperature);
  append_vector(dst.fault_class, src.fault_class);
}

/// Precomputed vector form of a query whose predicates are all
/// range-expressible: inclusive ranges + a class membership set that the
/// mask kernels evaluate column-at-a-time.  Row-for-row equivalent to
/// Query::matches() whenever `usable` (proven by StoreQueryTest's
/// vector-vs-row cross-check):
///   - time:   since <= t < until  ==  t in [since, until - 1]
///   - node:   blade (+ optional soc) selects one contiguous dense-index
///             run; a SoC without a blade is a stride, not a range
///   - bits:   a class-aligned [min_bits, max_bits] is exactly a flip-class
///             interval (see Query::class_range); exact counts need the
///             pattern pair and stay on the row loop
struct VectorPredicates {
  bool usable = false;
  bool filter_time = false;
  std::int64_t time_lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t time_hi = std::numeric_limits<std::int64_t>::max();
  bool filter_node = false;
  std::uint32_t node_lo = 0;
  std::uint32_t node_hi = 0;
  bool filter_class = false;
  std::uint8_t allowed_classes = 0;
};

VectorPredicates plan_vector_predicates(const Query& q) {
  VectorPredicates p;
  if (q.soc && !q.blade) return p;  // stride over node index: row loop
  const auto class_range = q.class_range();
  const bool need_bits = !q.bits_unconstrained();
  if (need_bits && !class_range) return p;  // exact bit counts: row loop
  p.usable = true;
  if (q.since || q.until) {
    p.filter_time = true;
    if (q.since) p.time_lo = *q.since;
    if (q.until) {
      if (*q.until == std::numeric_limits<std::int64_t>::min()) {
        p.time_lo = 1;  // empty range: nothing satisfies t < INT64_MIN
        p.time_hi = 0;
      } else {
        p.time_hi = *q.until - 1;
      }
    }
  }
  if (q.blade) {
    p.filter_node = true;
    p.node_lo = static_cast<std::uint32_t>(
        *q.blade * cluster::kSocsPerBlade + (q.soc ? *q.soc : 0));
    p.node_hi = static_cast<std::uint32_t>(
        *q.blade * cluster::kSocsPerBlade +
        (q.soc ? *q.soc : cluster::kSocsPerBlade - 1));
  }
  if (need_bits) {
    p.filter_class = true;
    for (int c = class_range->first; c <= class_range->second; ++c)
      p.allowed_classes |= static_cast<std::uint8_t>(1u << c);
  }
  return p;
}

}  // namespace

QueryResult StoreReader::run(const Query& query, const Options& options,
                             ScanStats* stats) const {
  const StoreHandle& handle = *handle_;
  const kernels::StoreKernels& k = options.kernels != nullptr
                                       ? *options.kernels
                                       : kernels::active_store_kernels();
  // Scan columns = what the predicate and projection need; last_seen is
  // stored as an offset from first_seen, so it drags first_seen in.
  std::uint32_t scan_columns = query.required_columns();
  if (scan_columns & kColLastSeen) scan_columns |= kColFirstSeen;
  const bool need_bits = !query.bits_unconstrained();
  const bool bits_from_class = need_bits && query.class_range().has_value();
  const VectorPredicates vp = plan_vector_predicates(query);

  const std::vector<SegmentZone>& zones = handle.zones();
  ScanStats local;
  local.segments_total = zones.size();
  std::vector<std::size_t> chosen;
  chosen.reserve(zones.size());
  for (std::size_t i = 0; i < zones.size(); ++i) {
    if (options.prune && !query.may_match(zones[i])) {
      ++local.segments_pruned;
      continue;
    }
    chosen.push_back(i);
  }
  local.segments_scanned = chosen.size();

  struct SegmentScan {
    SegmentColumns kept;
    std::uint64_t rows_scanned = 0;
    std::uint64_t rows_matched = 0;
    std::exception_ptr error;
  };
  std::vector<SegmentScan> scans(chosen.size());

  const auto scan_one = [&](std::size_t task) {
    SegmentScan& scan = scans[task];
    try {
      const SegmentZone& zone = zones[chosen[task]];
      const StoreHandle::SegmentLocation loc =
          handle.segment_location(chosen[task]);
      SegmentColumns cols;
      decode_segment(loc.bytes, loc.pos, zone, scan_columns, cols, k);
      if (!cols.last_seen.empty())
        for (std::size_t i = 0; i < cols.last_seen.size(); ++i)
          cols.last_seen[i] += cols.first_seen[i];
      scan.rows_scanned = zone.rows;
      const auto n = static_cast<std::size_t>(zone.rows);
      // Count-only scans (projection == 0) never need row indices; summing
      // the predicate mask replaces a million-entry keep vector per query.
      const bool need_rows = query.projection != 0;
      std::vector<std::uint32_t> keep;
      if (need_rows) keep.reserve(n);
      if (vp.usable) {
        std::vector<std::uint8_t> mask(n, 1);
        if (vp.filter_time)
          k.mask_range_i64(cols.first_seen.data(), n, vp.time_lo, vp.time_hi,
                           mask.data());
        if (vp.filter_node)
          k.mask_range_u32(cols.node_index.data(), n, vp.node_lo, vp.node_hi,
                           mask.data());
        if (vp.filter_class)
          k.mask_class(cols.fault_class.data(), n, vp.allowed_classes,
                       mask.data());
        if (need_rows) {
          for (std::uint32_t i = 0; i < zone.rows; ++i)
            if (mask[i] != 0) keep.push_back(i);
        } else {
          std::uint64_t matched = 0;
          for (std::size_t i = 0; i < n; ++i) matched += mask[i];
          scan.rows_matched = matched;
        }
      } else {
        for (std::uint32_t i = 0; i < zone.rows; ++i) {
          const std::uint32_t node =
              cols.node_index.empty() ? 0 : cols.node_index[i];
          const TimePoint t = cols.first_seen.empty() ? 0 : cols.first_seen[i];
          int bits = 1;
          if (need_bits) {
            bits = bits_from_class
                       ? kFlipClasses[cols.fault_class[i]].min_bits
                       : flipped_bit_count(cols.expected[i], cols.actual[i]);
          }
          if (query.matches(node, t, bits)) keep.push_back(i);
        }
      }
      if (need_rows || !vp.usable) scan.rows_matched = keep.size();
      if (query.projection & kColNode)
        append_kept(scan.kept.node_index, cols.node_index, keep);
      if (query.projection & kColFirstSeen)
        append_kept(scan.kept.first_seen, cols.first_seen, keep);
      if (query.projection & kColLastSeen)
        append_kept(scan.kept.last_seen, cols.last_seen, keep);
      if (query.projection & kColRawLogs)
        append_kept(scan.kept.raw_logs, cols.raw_logs, keep);
      if (query.projection & kColAddress)
        append_kept(scan.kept.address, cols.address, keep);
      if (query.projection & kColPattern) {
        append_kept(scan.kept.expected, cols.expected, keep);
        append_kept(scan.kept.actual, cols.actual, keep);
      }
      if (query.projection & kColTemperature)
        append_kept(scan.kept.temperature, cols.temperature, keep);
      if (query.projection & kColClass)
        append_kept(scan.kept.fault_class, cols.fault_class, keep);
    } catch (...) {
      scan.error = std::current_exception();
    }
  };

  if (options.pool != nullptr && chosen.size() > 1) {
    options.pool->parallel_for(chosen.size(), scan_one);
  } else {
    for (std::size_t task = 0; task < chosen.size(); ++task) scan_one(task);
  }

  QueryResult result;
  for (SegmentScan& scan : scans) {
    if (scan.error) std::rethrow_exception(scan.error);
    local.rows_scanned += scan.rows_scanned;
    local.rows_matched += scan.rows_matched;
    // Directory order = canonical order; concatenation preserves it.
    append_columns(result.columns, scan.kept);
  }
  result.rows = local.rows_matched;
  if (stats != nullptr) *stats = local;
  return result;
}

std::vector<analysis::FaultRecord> StoreReader::materialize(
    const Query& query, const Options& options, ScanStats* stats) const {
  Query full = query;
  full.projection = kColNode | kColFirstSeen | kColLastSeen | kColRawLogs |
                    kColAddress | kColPattern | kColTemperature;
  const QueryResult result = run(full, options, stats);
  std::vector<analysis::FaultRecord> faults;
  faults.reserve(static_cast<std::size_t>(result.rows));
  const SegmentColumns& c = result.columns;
  for (std::size_t i = 0; i < result.rows; ++i) {
    analysis::FaultRecord f;
    f.node = cluster::node_from_index(static_cast<int>(c.node_index[i]));
    f.first_seen = c.first_seen[i];
    f.last_seen = c.last_seen[i];
    f.raw_logs = c.raw_logs[i];
    f.virtual_address = c.address[i];
    f.expected = c.expected[i];
    f.actual = c.actual[i];
    f.temperature_c = c.temperature[i];
    faults.push_back(f);
  }
  return faults;
}

std::vector<analysis::FaultRecord> StoreReader::replay(
    const Query& query, std::span<analysis::FaultSink* const> sinks,
    ThreadPool* pool) const {
  std::vector<analysis::FaultRecord> faults =
      materialize(query, Options{pool, true});
  analysis::run_fault_sinks(faults, {window()}, sinks, pool);
  return faults;
}

analysis::ExtractionResult StoreReader::extraction_result(
    ThreadPool* pool) const {
  analysis::ExtractionResult result;
  result.faults = materialize(Query{}, Options{pool, true});
  const StoredExtractionMeta& meta = extraction_meta();
  result.removed_nodes = meta.removed_nodes;
  result.total_raw_logs = meta.total_raw_logs;
  result.removed_raw_logs = meta.removed_raw_logs;
  return result;
}

}  // namespace unp::store
