#include "telemetry/binary_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/require.hpp"
#include "telemetry/kernels/kernels.hpp"

namespace unp::telemetry {

namespace {

double get_temp(const std::string& in, std::size_t& pos) {
  if (pos >= in.size()) throw DecodeError("truncated temperature flag", pos);
  const char flag = in[pos++];
  if (flag != 0 && flag != 1)
    throw DecodeError("bad temperature flag", pos - 1);
  return flag == 0 ? kNoTemperature : get_f64(in, pos);
}

/// Delta-encoded timestamp reader per section.
struct TimeDelta {
  TimePoint previous = 0;

  TimePoint get(const std::string& in, std::size_t& pos) {
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

std::size_t node_log_encoded_bound(const NodeLog& log) noexcept {
  // Section counts: 4 varints.  START: time + bytes varints, temp flag+f64.
  // END: time varint, temp.  ALLOCFAIL: time varint.  RUN: six varints,
  // temp, period, count.
  return 4 * 10 + log.starts().size() * (10 + 10 + 9) +
         log.ends().size() * (10 + 9) + log.alloc_fails().size() * 10 +
         log.error_runs().size() * (6 * 10 + 9 + 10);
}

void encode_node_log_into(const NodeLog& log, std::string& out) {
  // Pre-size to the record-count bound so no append below reallocates.
  out.reserve(out.size() + node_log_encoded_bound(log));

  kernels::VarintWriter w(out);
  const auto temp = [&w](double celsius) {
    if (!has_temperature(celsius)) {
      w.byte('\0');
      return;
    }
    w.byte('\1');
    w.f64(celsius);
  };

  {  // STARTs
    w.varint(log.starts().size());
    TimePoint previous = 0;
    for (const auto& r : log.starts()) {
      w.varint(zigzag_encode(r.time - previous));
      previous = r.time;
      w.varint(r.allocated_bytes);
      temp(r.temperature_c);
    }
  }
  {  // ENDs
    w.varint(log.ends().size());
    TimePoint previous = 0;
    for (const auto& r : log.ends()) {
      w.varint(zigzag_encode(r.time - previous));
      previous = r.time;
      temp(r.temperature_c);
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
  {  // ERROR runs
    w.varint(log.error_runs().size());
    TimePoint previous = 0;
    for (const auto& run : log.error_runs()) {
      w.varint(zigzag_encode(run.first.time - previous));
      previous = run.first.time;
      w.varint(run.first.virtual_address);
      w.varint(run.first.expected);
      w.varint(run.first.actual);
      temp(run.first.temperature_c);
      w.varint(run.first.physical_page);
      w.varint(static_cast<std::uint64_t>(run.period_s));
      w.varint(run.count);
    }
  }
  // w flushes on scope exit.
}

std::string encode_node_log(const NodeLog& log) {
  std::string out;
  encode_node_log_into(log, out);
  return out;
}

NodeLog decode_node_log(const std::string& bytes, std::size_t& pos,
                        cluster::NodeId node) {
  NodeLog log;
  // Capacity hint, clamped so a corrupt count cannot force a huge
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
  {
    const std::uint64_t n = get_varint(bytes, pos);
    log.reserve_error_runs(clamp(n));
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
  return log;
}

}  // namespace unp::telemetry
