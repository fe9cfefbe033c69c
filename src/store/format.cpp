#include "store/format.hpp"

#include <algorithm>
#include <bit>

#include "common/require.hpp"
#include "telemetry/kernels/kernels.hpp"

namespace unp::store {

namespace {

using telemetry::get_f64;
using telemetry::get_varint;
using telemetry::kernels::encode_varints;
using telemetry::kernels::encode_zigzag_deltas;
using telemetry::put_f64;
using telemetry::put_varint;
using telemetry::zigzag_decode;
using telemetry::zigzag_encode;

/// Stored column order; every segment writes all of them so readers can
/// skip by length prefix without a per-segment schema.
enum StoredColumn : int {
  kStoredNode = 0,
  kStoredFirstSeen,
  kStoredLastSeen,
  kStoredRawLogs,
  kStoredAddress,
  kStoredExpected,
  kStoredActual,
  kStoredTemperature,
  kStoredClass,
  kStoredColumnCount
};

constexpr std::uint32_t kStoredMask[kStoredColumnCount] = {
    kColNode,    kColFirstSeen,   kColLastSeen, kColRawLogs, kColAddress,
    kColPattern, kColPattern,     kColTemperature, kColClass};

/// Bits needed to index a dictionary of `size` entries.
int index_width(std::size_t size) {
  return size <= 1 ? 0 : static_cast<int>(std::bit_width(size - 1));
}

void append_column(std::string& out, const std::string& body) {
  put_varint(out, body.size());
  out += body;
}

/// Bounds of the next length-prefixed column at `pos`; advances `pos` past
/// the length prefix and returns the end of the column body.
std::size_t column_end(std::string_view in, std::size_t& pos,
                       std::size_t segment_end) {
  const std::uint64_t len = get_varint(in, pos);
  if (pos + len > segment_end)
    throw DecodeError("column overruns its segment", pos);
  return pos + static_cast<std::size_t>(len);
}

/// Bounds-checked unpack through a kernel set: validates that the packed
/// block fits [pos, end) (same DecodeError as always), then hands the
/// in-bounds bytes to the kernel.
void unpack_bits_checked(std::string_view in, std::size_t pos, std::size_t end,
                         std::size_t count, int width,
                         std::vector<std::uint64_t>& out,
                         const kernels::StoreKernels& k) {
  UNP_REQUIRE(width >= 0 && width <= 64);
  out.assign(count, 0);
  if (width == 0) return;
  const std::size_t need = (count * static_cast<std::size_t>(width) + 7) / 8;
  if (end > in.size() || pos + need > end)
    throw DecodeError("bit-packed column truncated", pos);
  k.unpack_bits(reinterpret_cast<const unsigned char*>(in.data()) + pos,
                count, width, out.data());
}

}  // namespace

void pack_bits(std::string& out, std::span<const std::uint64_t> values,
               int width) {
  UNP_REQUIRE(width >= 0 && width <= 64);
  if (width == 0) {
    for (const std::uint64_t v : values) UNP_REQUIRE(v == 0);
    return;
  }
  const std::size_t base = out.size();
  out.resize(base + (values.size() * static_cast<std::size_t>(width) + 7) / 8,
             '\0');
  std::size_t bitpos = 0;
  for (const std::uint64_t v : values) {
    UNP_REQUIRE(width == 64 || (v >> width) == 0);
    int written = 0;
    while (written < width) {
      const std::size_t byte = base + (bitpos >> 3);
      const int bit = static_cast<int>(bitpos & 7);
      const int take = std::min(8 - bit, width - written);
      const auto group =
          static_cast<unsigned char>((v >> written) & ((1u << take) - 1));
      out[byte] = static_cast<char>(static_cast<unsigned char>(out[byte]) |
                                    (group << bit));
      written += take;
      bitpos += static_cast<std::size_t>(take);
    }
  }
}

void unpack_bits(std::string_view in, std::size_t pos, std::size_t end,
                 std::size_t count, int width, std::vector<std::uint64_t>& out) {
  unpack_bits_checked(in, pos, end, count, width, out,
                      kernels::active_store_kernels());
}

void encode_segment_into(std::span<const analysis::FaultRecord> rows,
                         SegmentZone& zone, std::string& out,
                         SegmentScratch& arena) {
  UNP_REQUIRE(!rows.empty());
  zone.rows = static_cast<std::uint32_t>(rows.size());

  // --- zone map -----------------------------------------------------------
  zone.time_min = zone.time_max = rows.front().first_seen;
  const auto first_index =
      static_cast<std::uint32_t>(cluster::node_index(rows.front().node));
  zone.node_min = zone.node_max = first_index;
  zone.addr_min = zone.addr_max = rows.front().virtual_address;
  const int first_bits = rows.front().flipped_bits();
  zone.bits_min = zone.bits_max = static_cast<std::uint8_t>(first_bits);
  for (const auto& f : rows) {
    zone.time_min = std::min(zone.time_min, f.first_seen);
    zone.time_max = std::max(zone.time_max, f.first_seen);
    const auto index = static_cast<std::uint32_t>(cluster::node_index(f.node));
    zone.node_min = std::min(zone.node_min, index);
    zone.node_max = std::max(zone.node_max, index);
    zone.addr_min = std::min(zone.addr_min, f.virtual_address);
    zone.addr_max = std::max(zone.addr_max, f.virtual_address);
    const auto bits = static_cast<std::uint8_t>(f.flipped_bits());
    zone.bits_min = std::min(zone.bits_min, bits);
    zone.bits_max = std::max(zone.bits_max, bits);
  }

  const std::size_t n = rows.size();
  const std::size_t base = out.size();
  // Body bound: row count + 9 column prefixes (10 bytes each) + the widest
  // per-row costs (six 10-byte varints, the dictionary, 9-byte temperature,
  // packed bits).  Keeps every append below from reallocating `out`.
  out.reserve(base + 128 + 96 * n);

  std::string& column = arena.column;
  std::vector<std::uint64_t>& values = arena.values;
  // Column-body bound: the widest column is the node dictionary (count +
  // per-entry deltas + packed indices).
  column.reserve(16 + 11 * n);

  put_varint(out, n);

  {  // node: dictionary of ascending distinct indices + packed row indices
    column.clear();
    std::vector<std::uint32_t>& dict = arena.dict;
    dict.clear();
    for (const auto& f : rows)
      dict.push_back(static_cast<std::uint32_t>(cluster::node_index(f.node)));
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    put_varint(column, dict.size());
    values.clear();
    values.reserve(std::max(n, dict.size()));
    std::uint32_t previous = 0;
    for (const std::uint32_t d : dict) {
      values.push_back(d - previous);  // ascending: deltas >= 0
      previous = d;
    }
    encode_varints(values.data(), values.size(), column);
    values.clear();
    for (const auto& f : rows) {
      const auto it = std::lower_bound(
          dict.begin(), dict.end(),
          static_cast<std::uint32_t>(cluster::node_index(f.node)));
      values.push_back(static_cast<std::uint64_t>(it - dict.begin()));
    }
    pack_bits(column, values, index_width(dict.size()));
    append_column(out, column);
  }
  {  // first_seen: zigzag delta varints
    column.clear();
    values.clear();
    for (const auto& f : rows)
      values.push_back(static_cast<std::uint64_t>(f.first_seen));
    encode_zigzag_deltas(values.data(), values.size(), 0, column);
    append_column(out, column);
  }
  {  // last_seen: non-negative offset from first_seen
    column.clear();
    values.clear();
    for (const auto& f : rows) {
      UNP_REQUIRE(f.last_seen >= f.first_seen);
      values.push_back(static_cast<std::uint64_t>(f.last_seen - f.first_seen));
    }
    encode_varints(values.data(), values.size(), column);
    append_column(out, column);
  }
  {  // raw_logs
    column.clear();
    values.clear();
    for (const auto& f : rows) values.push_back(f.raw_logs);
    encode_varints(values.data(), values.size(), column);
    append_column(out, column);
  }
  {  // address: zigzag delta varints
    column.clear();
    values.clear();
    for (const auto& f : rows) values.push_back(f.virtual_address);
    encode_zigzag_deltas(values.data(), values.size(), 0, column);
    append_column(out, column);
  }
  {  // expected
    column.clear();
    values.clear();
    for (const auto& f : rows)
      values.push_back(static_cast<std::uint64_t>(f.expected));
    encode_varints(values.data(), values.size(), column);
    append_column(out, column);
  }
  {  // actual
    column.clear();
    values.clear();
    for (const auto& f : rows)
      values.push_back(static_cast<std::uint64_t>(f.actual));
    encode_varints(values.data(), values.size(), column);
    append_column(out, column);
  }
  {  // temperature: presence bitmap + raw f64 bits of present readings
    column.clear();
    values.clear();
    for (const auto& f : rows)
      values.push_back(f.temperature_c == telemetry::kNoTemperature ? 0 : 1);
    pack_bits(column, values, 1);
    for (const auto& f : rows) {
      if (f.temperature_c != telemetry::kNoTemperature)
        put_f64(column, f.temperature_c);
    }
    append_column(out, column);
  }
  {  // class: 2-bit codes
    column.clear();
    values.clear();
    for (const auto& f : rows)
      values.push_back(static_cast<std::uint64_t>(flip_class_of(f.flipped_bits())));
    pack_bits(column, values, 2);
    append_column(out, column);
  }

  zone.size = out.size() - base;
}

std::string encode_segment(std::span<const analysis::FaultRecord> rows,
                           SegmentZone& zone) {
  std::string out;
  SegmentScratch arena;
  encode_segment_into(rows, zone, out, arena);
  return out;
}

void decode_segment(std::string_view bytes, std::size_t pos,
                    const SegmentZone& zone, std::uint32_t columns,
                    SegmentColumns& out, const kernels::StoreKernels& k) {
  const std::size_t segment_end = pos + static_cast<std::size_t>(zone.size);
  if (segment_end > bytes.size())
    throw DecodeError("segment overruns the file", pos);
  const std::uint64_t declared_rows = get_varint(bytes, pos);
  if (declared_rows != zone.rows)
    throw DecodeError("segment row count disagrees with its zone entry", pos);
  const auto n = static_cast<std::size_t>(zone.rows);

  out = SegmentColumns{};
  std::vector<std::uint64_t> scratch;

  for (int c = 0; c < kStoredColumnCount; ++c) {
    const std::size_t end = column_end(bytes, pos, segment_end);
    if ((columns & kStoredMask[c]) == 0) {
      pos = end;  // skip without decoding
      continue;
    }
    switch (c) {
      case kStoredNode: {
        const std::uint64_t dict_size = get_varint(bytes, pos);
        if (dict_size == 0 || dict_size > static_cast<std::uint64_t>(
                                              cluster::kStudyNodeSlots))
          throw DecodeError("node dictionary size out of range", pos);
        std::vector<std::uint32_t> dict;
        dict.reserve(static_cast<std::size_t>(dict_size));
        std::uint64_t value = 0;
        for (std::uint64_t i = 0; i < dict_size; ++i) {
          value += get_varint(bytes, pos);
          if (value >= static_cast<std::uint64_t>(cluster::kStudyNodeSlots))
            throw DecodeError("node dictionary entry out of range", pos);
          dict.push_back(static_cast<std::uint32_t>(value));
        }
        unpack_bits_checked(bytes, pos, end, n, index_width(dict.size()),
                            scratch, k);
        out.node_index.reserve(n);
        for (const std::uint64_t index : scratch) {
          if (index >= dict.size())
            throw DecodeError("node dictionary index out of range", pos);
          out.node_index.push_back(dict[static_cast<std::size_t>(index)]);
        }
        break;
      }
      case kStoredFirstSeen: {
        // Fused varint+zigzag+prefix kernel, straight into the column
        // (u64 view of the i64 storage: same bits, no scratch pass).
        out.first_seen.resize(n);
        k.decode_zigzag_deltas(
            bytes, pos, n, 0,
            reinterpret_cast<std::uint64_t*>(out.first_seen.data()));
        break;
      }
      case kStoredLastSeen: {
        // Decoded as offsets here; the reader adds first_seen (which it
        // always materializes alongside when this column is requested).
        scratch.resize(n);
        k.decode_varints(bytes, pos, n, scratch.data());
        out.last_seen.resize(n);
        for (std::size_t i = 0; i < n; ++i)
          out.last_seen[i] = static_cast<TimePoint>(scratch[i]);
        break;
      }
      case kStoredRawLogs: {
        out.raw_logs.resize(n);
        k.decode_varints(bytes, pos, n, out.raw_logs.data());
        break;
      }
      case kStoredAddress: {
        out.address.resize(n);
        k.decode_zigzag_deltas(bytes, pos, n, 0, out.address.data());
        break;
      }
      case kStoredExpected: {
        scratch.resize(n);
        k.decode_varints(bytes, pos, n, scratch.data());
        out.expected.resize(n);
        for (std::size_t i = 0; i < n; ++i)
          out.expected[i] = static_cast<Word>(scratch[i]);
        break;
      }
      case kStoredActual: {
        scratch.resize(n);
        k.decode_varints(bytes, pos, n, scratch.data());
        out.actual.resize(n);
        for (std::size_t i = 0; i < n; ++i)
          out.actual[i] = static_cast<Word>(scratch[i]);
        break;
      }
      case kStoredTemperature: {
        unpack_bits_checked(bytes, pos, end, n, 1, scratch, k);
        std::size_t f64_pos = pos + (n + 7) / 8;
        out.temperature.reserve(n);
        for (const std::uint64_t present : scratch) {
          if (present != 0 && f64_pos + 8 > end)
            throw DecodeError("temperature column truncated", f64_pos);
          out.temperature.push_back(present != 0
                                        ? get_f64(bytes, f64_pos)
                                        : telemetry::kNoTemperature);
        }
        break;
      }
      case kStoredClass: {
        unpack_bits_checked(bytes, pos, end, n, 2, scratch, k);
        out.fault_class.assign(scratch.begin(), scratch.end());
        break;
      }
      default:
        break;
    }
    pos = end;
  }
  if (pos != segment_end)
    throw DecodeError("trailing bytes inside segment", pos);
}

void decode_segment(std::string_view bytes, std::size_t pos,
                    const SegmentZone& zone, std::uint32_t columns,
                    SegmentColumns& out) {
  decode_segment(bytes, pos, zone, columns, out,
                 kernels::active_store_kernels());
}

void encode_zone(std::string& out, const SegmentZone& zone) {
  put_varint(out, zone.offset);
  put_varint(out, zone.size);
  put_varint(out, zone.rows);
  put_varint(out, zigzag_encode(zone.time_min));
  put_varint(out, zigzag_encode(zone.time_max));
  put_varint(out, zone.node_min);
  put_varint(out, zone.node_max);
  put_varint(out, zone.addr_min);
  put_varint(out, zone.addr_max);
  out.push_back(static_cast<char>(zone.bits_min));
  out.push_back(static_cast<char>(zone.bits_max));
}

SegmentZone decode_zone(std::string_view in, std::size_t& pos) {
  SegmentZone zone;
  zone.offset = get_varint(in, pos);
  zone.size = get_varint(in, pos);
  const std::uint64_t rows = get_varint(in, pos);
  if (rows == 0 || rows > (1ULL << 32))
    throw DecodeError("zone entry row count out of range", pos);
  zone.rows = static_cast<std::uint32_t>(rows);
  zone.time_min = zigzag_decode(get_varint(in, pos));
  zone.time_max = zigzag_decode(get_varint(in, pos));
  zone.node_min = static_cast<std::uint32_t>(get_varint(in, pos));
  zone.node_max = static_cast<std::uint32_t>(get_varint(in, pos));
  zone.addr_min = get_varint(in, pos);
  zone.addr_max = get_varint(in, pos);
  if (pos + 2 > in.size()) throw DecodeError("truncated zone entry", pos);
  zone.bits_min = static_cast<std::uint8_t>(in[pos++]);
  zone.bits_max = static_cast<std::uint8_t>(in[pos++]);
  return zone;
}

namespace {

void encode_grid(std::string& out, const Grid2D& grid) {
  put_varint(out, grid.rows());
  put_varint(out, grid.cols());
  for (std::size_t r = 0; r < grid.rows(); ++r)
    for (std::size_t c = 0; c < grid.cols(); ++c) put_f64(out, grid.at(r, c));
}

Grid2D decode_grid(std::string_view in, std::size_t& pos) {
  const std::uint64_t rows = get_varint(in, pos);
  const std::uint64_t cols = get_varint(in, pos);
  if (rows == 0 || cols == 0 || rows > 4096 || cols > 4096)
    throw DecodeError("grid dimensions out of range", pos);
  Grid2D grid(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) grid.at(r, c) = get_f64(in, pos);
  return grid;
}

}  // namespace

void encode_scan_profile(std::string& out, const StoredScanProfile& profile) {
  put_varint(out, static_cast<std::uint64_t>(profile.monitored_nodes));
  encode_grid(out, profile.hours);
  encode_grid(out, profile.terabyte_hours);
  put_varint(out, profile.daily_terabyte_hours.size());
  for (const double v : profile.daily_terabyte_hours) put_f64(out, v);
  put_f64(out, profile.total_hours);
  put_f64(out, profile.total_terabyte_hours);
}

StoredScanProfile decode_scan_profile(std::string_view in, std::size_t& pos) {
  StoredScanProfile profile;
  profile.monitored_nodes = static_cast<int>(get_varint(in, pos));
  profile.hours = decode_grid(in, pos);
  profile.terabyte_hours = decode_grid(in, pos);
  const std::uint64_t days = get_varint(in, pos);
  if (days > (1ULL << 24))
    throw DecodeError("daily series length out of range", pos);
  profile.daily_terabyte_hours.reserve(static_cast<std::size_t>(days));
  for (std::uint64_t i = 0; i < days; ++i)
    profile.daily_terabyte_hours.push_back(get_f64(in, pos));
  profile.total_hours = get_f64(in, pos);
  profile.total_terabyte_hours = get_f64(in, pos);
  return profile;
}

void encode_extraction_meta(std::string& out, const StoredExtractionMeta& meta) {
  put_varint(out, meta.removed_nodes.size());
  for (const auto& node : meta.removed_nodes)
    put_varint(out, static_cast<std::uint64_t>(cluster::node_index(node)));
  put_varint(out, meta.total_raw_logs);
  put_varint(out, meta.removed_raw_logs);
}

StoredExtractionMeta decode_extraction_meta(std::string_view in,
                                            std::size_t& pos) {
  StoredExtractionMeta meta;
  const std::uint64_t removed = get_varint(in, pos);
  if (removed > static_cast<std::uint64_t>(cluster::kStudyNodeSlots))
    throw DecodeError("removed-node count out of range", pos);
  meta.removed_nodes.reserve(static_cast<std::size_t>(removed));
  for (std::uint64_t i = 0; i < removed; ++i) {
    const std::uint64_t index = get_varint(in, pos);
    if (index >= static_cast<std::uint64_t>(cluster::kStudyNodeSlots))
      throw DecodeError("removed-node index out of range", pos);
    meta.removed_nodes.push_back(
        cluster::node_from_index(static_cast<int>(index)));
  }
  meta.total_raw_logs = get_varint(in, pos);
  meta.removed_raw_logs = get_varint(in, pos);
  return meta;
}

}  // namespace unp::store
