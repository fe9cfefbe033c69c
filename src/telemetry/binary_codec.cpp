#include "telemetry/binary_codec.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/require.hpp"
#include "telemetry/kernels/kernels.hpp"

namespace unp::telemetry {

namespace {

/// The temperature flag byte; throws on a missing or invalid flag.
bool get_temp_flag(std::string_view in, std::size_t& pos) {
  if (pos >= in.size()) throw DecodeError("truncated temperature flag", pos);
  const char flag = in[pos++];
  if (flag != 0 && flag != 1)
    throw DecodeError("bad temperature flag", pos - 1);
  return flag == 1;
}

double get_temp(std::string_view in, std::size_t& pos) {
  return get_temp_flag(in, pos) ? get_f64(in, pos) : kNoTemperature;
}

/// get_temp without the read: the same checks, offsets and errors.
void skip_temp(std::string_view in, std::size_t& pos) {
  if (!get_temp_flag(in, pos)) return;
  if (pos + 8 > in.size()) throw DecodeError("truncated f64", pos);
  pos += 8;
}

/// Delta-encoded timestamp reader per section.
struct TimeDelta {
  TimePoint previous = 0;

  TimePoint get(std::string_view in, std::size_t& pos) {
    previous = add_wrapping(previous, zigzag_decode(get_varint(in, pos)));
    return previous;
  }
};

}  // namespace

void put_varint(std::string& out, std::uint64_t value) {
  char bytes[10];
  out.append(bytes, kernels::encode_varint(value, bytes));
}

void put_f64(std::string& out, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

double get_f64(std::string_view in, std::size_t& pos) {
  if (pos + 8 > in.size()) throw DecodeError("truncated f64", pos);
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                in[pos + static_cast<std::size_t>(i)]))
            << (8 * i);
  }
  pos += 8;
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::uint64_t get_varint(std::string_view in, std::size_t& pos) {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) throw DecodeError("truncated varint", pos);
    if (shift >= 64) throw DecodeError("varint overflow (> 10 bytes)", pos);
    const auto byte = static_cast<unsigned char>(in[pos++]);
    // The 10th group holds only the top bit of a uint64; higher payload bits
    // would be shifted out silently, so reject them as overflow.
    if (shift == 63 && (byte & 0x7E) != 0)
      throw DecodeError("varint overflow (bits beyond 64)", pos - 1);
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

void check_campaign_window(const CampaignWindow& window, std::uint64_t offset) {
  constexpr std::uint64_t kMaxWindowSeconds =
      std::uint64_t{36525} * static_cast<std::uint64_t>(kSecondsPerDay);
  if (window.end < window.start ||
      static_cast<std::uint64_t>(window.end) -
              static_cast<std::uint64_t>(window.start) >
          kMaxWindowSeconds)
    throw DecodeError("implausible campaign window", offset);
}

std::size_t node_log_encoded_bound(const NodeLog& log) noexcept {
  // Section counts: 4 varints.  START: time + bytes varints, temp flag+f64.
  // END: time varint, temp.  ALLOCFAIL: time varint.  RUN: six varints,
  // temp, period, count.
  return 4 * 10 + log.starts().size() * (10 + 10 + 9) +
         log.ends().size() * (10 + 9) + log.alloc_fails().size() * 10 +
         log.error_runs().size() * kErrorRunEncodedBound;
}

namespace {

void put_temp(kernels::VarintWriter& w, double celsius) {
  if (!has_temperature(celsius)) {
    w.byte('\0');
    return;
  }
  w.byte('\1');
  w.f64(celsius);
}

/// The run records of a run section, each time a delta from the one
/// before, the first from `previous`.
void put_error_runs(kernels::VarintWriter& w, std::span<const ErrorRun> runs,
                    TimePoint previous) {
  for (const auto& run : runs) {
    w.varint(zigzag_encode(run.first.time - previous));
    previous = run.first.time;
    w.varint(run.first.virtual_address);
    w.varint(run.first.expected);
    w.varint(run.first.actual);
    put_temp(w, run.first.temperature_c);
    w.varint(run.first.physical_page);
    w.varint(static_cast<std::uint64_t>(run.period_s));
    w.varint(run.count);
  }
}

}  // namespace

std::size_t encode_session_sections_into(const NodeLog& log, std::string& out) {
  kernels::VarintWriter w(out);
  {  // STARTs
    w.varint(log.starts().size());
    TimePoint previous = 0;
    for (const auto& r : log.starts()) {
      w.varint(zigzag_encode(r.time - previous));
      previous = r.time;
      w.varint(r.allocated_bytes);
      put_temp(w, r.temperature_c);
    }
  }
  {  // ENDs
    w.varint(log.ends().size());
    TimePoint previous = 0;
    for (const auto& r : log.ends()) {
      w.varint(zigzag_encode(r.time - previous));
      previous = r.time;
      put_temp(w, r.temperature_c);
    }
  }
  {  // ALLOCFAILs
    w.varint(log.alloc_fails().size());
    TimePoint previous = 0;
    for (const auto& r : log.alloc_fails()) {
      w.varint(zigzag_encode(r.time - previous));
      previous = r.time;
    }
  }
  w.flush();
  return out.size();
}

void encode_error_runs_into(std::span<const ErrorRun> runs, TimePoint previous,
                            std::string& out) {
  out.reserve(out.size() + runs.size() * kErrorRunEncodedBound);
  kernels::VarintWriter w(out);
  put_error_runs(w, runs, previous);
}

std::size_t encode_node_log_into(const NodeLog& log, std::string& out) {
  // Pre-size to the record-count bound so no append below reallocates.
  out.reserve(out.size() + node_log_encoded_bound(log));
  const std::size_t runs_at = encode_session_sections_into(log, out);
  kernels::VarintWriter w(out);
  w.varint(log.error_runs().size());
  put_error_runs(w, log.error_runs(), 0);
  return runs_at;  // w flushes on scope exit
}

std::string encode_node_log(const NodeLog& log) {
  std::string out;
  encode_node_log_into(log, out);
  return out;
}

void decode_session_sections(std::string_view bytes, std::size_t& pos,
                             cluster::NodeId node, NodeLog& log) {
  // Capacity hints, clamped so a corrupt count cannot force a huge
  // allocation: every record costs at least one encoded byte.
  const auto clamp = [&](std::uint64_t n) {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(n, bytes.size() - pos));
  };
  {
    const std::uint64_t n = get_varint(bytes, pos);
    log.reserve_starts(clamp(n));
    TimeDelta td;
    for (std::uint64_t i = 0; i < n; ++i) {
      StartRecord r;
      r.time = td.get(bytes, pos);
      r.node = node;
      r.allocated_bytes = get_varint(bytes, pos);
      r.temperature_c = get_temp(bytes, pos);
      log.add_start(r);
    }
  }
  {
    const std::uint64_t n = get_varint(bytes, pos);
    log.reserve_ends(clamp(n));
    TimeDelta td;
    for (std::uint64_t i = 0; i < n; ++i) {
      EndRecord r;
      r.time = td.get(bytes, pos);
      r.node = node;
      r.temperature_c = get_temp(bytes, pos);
      log.add_end(r);
    }
  }
  {
    const std::uint64_t n = get_varint(bytes, pos);
    log.reserve_alloc_fails(clamp(n));
    TimeDelta td;
    for (std::uint64_t i = 0; i < n; ++i) {
      log.add_alloc_fail({td.get(bytes, pos), node});
    }
  }
}

void decode_error_runs(std::string_view bytes, std::size_t& pos,
                       cluster::NodeId node, NodeLog& log) {
  const std::uint64_t n = get_varint(bytes, pos);
  log.reserve_error_runs(
      static_cast<std::size_t>(std::min<std::uint64_t>(n, bytes.size() - pos)));
  TimeDelta td;
  for (std::uint64_t i = 0; i < n; ++i) {
    ErrorRun run;
    run.first.time = td.get(bytes, pos);
    run.first.node = node;
    run.first.virtual_address = get_varint(bytes, pos);
    run.first.expected = static_cast<Word>(get_varint(bytes, pos));
    run.first.actual = static_cast<Word>(get_varint(bytes, pos));
    run.first.temperature_c = get_temp(bytes, pos);
    run.first.physical_page = get_varint(bytes, pos);
    run.period_s = static_cast<std::int64_t>(get_varint(bytes, pos));
    run.count = get_varint(bytes, pos);
    if (run.count < 1) throw DecodeError("error run with zero count", pos);
    log.add_error_run(run);
  }
}

RunSectionCount count_error_runs(std::string_view bytes, std::size_t& pos) {
  RunSectionCount count;
  count.runs = get_varint(bytes, pos);
  for (std::uint64_t i = 0; i < count.runs; ++i) {
    // time, virtual address, expected, actual
    for (int v = 0; v < 4; ++v) (void)get_varint(bytes, pos);
    skip_temp(bytes, pos);
    (void)get_varint(bytes, pos);  // physical page
    (void)get_varint(bytes, pos);  // period
    const std::uint64_t n = get_varint(bytes, pos);
    if (n < 1) throw DecodeError("error run with zero count", pos);
    count.raw += n;
  }
  return count;
}

NodeLog decode_node_log(std::string_view bytes, std::size_t& pos,
                        cluster::NodeId node) {
  NodeLog log;
  decode_session_sections(bytes, pos, node, log);
  decode_error_runs(bytes, pos, node, log);
  return log;
}

}  // namespace unp::telemetry
