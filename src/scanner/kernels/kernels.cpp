// Generic drivers built on top of a kernel set: the masked sweep and the
// masked fill.  Retired (masked) words are unmapped from the scan space —
// the drivers decompose the range into unmasked gaps and hand each gap to
// the ISA kernel, so masked words are neither read, written, nor reported,
// and the per-gap ascending reports concatenate into one ascending stream.
// Also the non-temporal store threshold every sweep consults.
#include "scanner/kernels/kernels.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace unp::scanner::kernels {

std::size_t nontemporal_threshold_bytes() noexcept {
  static const std::size_t threshold = [] {
    long llc = -1;
#if defined(_SC_LEVEL3_CACHE_SIZE)
    llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
    // No OS report: assume a mid-size LLC rather than guessing small —
    // non-temporal stores only pay off once the sweep cannot fit anyway.
    if (llc <= 0) return std::size_t{16} << 20;
    return static_cast<std::size_t>(llc);
  }();
  return threshold;
}

void masked_verify_and_write(const Kernels& k, Word* data, std::size_t n,
                             std::uint64_t base_index, Word expected,
                             Word next, bool nontemporal,
                             const IntervalSet& masked,
                             std::vector<Hit>& out) {
  masked.for_each_gap(
      base_index, base_index + n,
      [&](std::uint64_t gap_begin, std::uint64_t gap_end) {
        k.verify_and_write(data + (gap_begin - base_index),
                           static_cast<std::size_t>(gap_end - gap_begin),
                           gap_begin, expected, next, nontemporal, out);
      });
}

void masked_fill(const Kernels& k, Word* data, std::size_t n,
                 std::uint64_t base_index, Word value, bool nontemporal,
                 const IntervalSet& masked) {
  masked.for_each_gap(base_index, base_index + n,
                      [&](std::uint64_t gap_begin, std::uint64_t gap_end) {
                        k.fill(data + (gap_begin - base_index),
                               static_cast<std::size_t>(gap_end - gap_begin),
                               value, nontemporal);
                      });
}

}  // namespace unp::scanner::kernels
