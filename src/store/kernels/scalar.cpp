// Scalar store kernels: the portable correctness oracle.
//
// decode_varints is telemetry::get_varint in a loop — deliberately, so the
// DecodeError contract (offset and message per failure mode) is defined in
// exactly one place and every vector path can funnel hard cases here.
// unpack_bits is the store's original bit-cursor loop.  The mask kernels
// are the branch-free scalar forms the autovectorizer already handles well;
// they mostly exist so the vector sets have an oracle to be tested against.
#include "store/kernels/kernel_table.hpp"

#include "telemetry/binary_codec.hpp"

namespace unp::store::kernels {

std::size_t decode_varints_scalar(std::string_view in, std::size_t pos,
                                  std::size_t count, std::uint64_t* out) {
  for (std::size_t i = 0; i < count; ++i)
    out[i] = telemetry::get_varint(in, pos);
  return pos;
}

std::size_t decode_zigzag_deltas_scalar(std::string_view in, std::size_t pos,
                                        std::size_t count, std::uint64_t base,
                                        std::uint64_t* out) {
  std::uint64_t prev = base;
  for (std::size_t i = 0; i < count; ++i) {
    prev += zigzag_delta_u64(telemetry::get_varint(in, pos));
    out[i] = prev;
  }
  return pos;
}

void unpack_bits_scalar(const unsigned char* base, std::size_t count,
                        int width, std::uint64_t* out) {
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    int got = 0;
    while (got < width) {
      const std::size_t byte = bitpos >> 3;
      const int bit = static_cast<int>(bitpos & 7);
      const int take = width - got < 8 - bit ? width - got : 8 - bit;
      const std::uint64_t group =
          (static_cast<std::uint64_t>(base[byte]) >> bit) &
          ((std::uint64_t{1} << take) - 1);
      v |= group << got;
      got += take;
      bitpos += static_cast<std::size_t>(take);
    }
    out[i] = v;
  }
}

namespace {

void mask_range_u32_scalar(const std::uint32_t* v, std::size_t n,
                           std::uint32_t lo, std::uint32_t hi,
                           std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>(lo <= v[i] && v[i] <= hi);
}

void mask_range_i64_scalar(const std::int64_t* v, std::size_t n,
                           std::int64_t lo, std::int64_t hi,
                           std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>(lo <= v[i] && v[i] <= hi);
}

void mask_class_scalar(const std::uint8_t* codes, std::size_t n,
                       std::uint8_t allowed, std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>((allowed >> codes[i]) & 1);
}

}  // namespace

const StoreKernels& kernel_set(
    simd::KernelTag<StoreKernels, Isa::kScalar>) noexcept {
  static constexpr StoreKernels kSet{
      Isa::kScalar,          "scalar",
      decode_varints_scalar, unpack_bits_scalar,
      mask_range_u32_scalar, mask_range_i64_scalar,
      mask_class_scalar,     decode_zigzag_deltas_scalar,
  };
  return kSet;
}

}  // namespace unp::store::kernels
