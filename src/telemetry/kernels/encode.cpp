// The batch forms of the varint encoder and the VarintWriter spill path.
// Both batch loops run encode_varint through a VarintWriter, so every
// varint byte in the tree comes from the one loop in kernels.hpp.
#include "telemetry/kernels/kernels.hpp"

#include <cstring>

namespace unp::telemetry::kernels {

void encode_varints(const std::uint64_t* values, std::size_t count,
                    std::string& out) {
  VarintWriter w(out);
  for (std::size_t i = 0; i < count; ++i) w.varint(values[i]);
}

void encode_zigzag_deltas(const std::uint64_t* values, std::size_t count,
                          std::uint64_t base, std::string& out) {
  VarintWriter w(out);
  std::uint64_t prev = base;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t d = values[i] - prev;
    w.varint((d << 1) ^ (std::uint64_t{0} - (d >> 63)));
    prev = values[i];
  }
}

const EncodeKernels& active_encode_kernels() noexcept {
  static constexpr EncodeKernels kSet{encode_varint, encode_varints,
                                      encode_zigzag_deltas};
  return kSet;
}

void VarintWriter::f64(double value) {
  ensure(8);
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  // LSB-first byte order, matching put_f64/get_f64 on any host endianness.
  for (int i = 0; i < 8; ++i)
    buffer_[used_++] = static_cast<char>((bits >> (8 * i)) & 0xFF);
}

void VarintWriter::flush() {
  if (used_ == 0) return;
  out_->append(buffer_, used_);
  used_ = 0;
}

}  // namespace unp::telemetry::kernels
