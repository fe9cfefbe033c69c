// Portable scalar kernels: the correctness oracle every vector path is
// cross-checked against, and the fallback on architectures without one.
//
// The sweep is deliberately the plain one-word-at-a-time loop of the
// original tool (unrolled by four so address arithmetic amortises); the
// mismatch branch carries a container side effect, which also keeps the
// autovectorizer honest — this path is the baseline the perf gate measures
// the dispatched kernel against.
#include "scanner/kernels/kernels.hpp"

#include <algorithm>

namespace unp::scanner::kernels {

namespace {

void fill_scalar(Word* data, std::size_t n, Word value, bool /*nontemporal*/) {
  std::fill(data, data + n, value);
}

void verify_scalar(Word* data, std::size_t n, std::uint64_t base_index,
                   Word expected, Word next, bool /*nontemporal*/,
                   std::vector<Hit>& out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Word a0 = data[i + 0];
    const Word a1 = data[i + 1];
    const Word a2 = data[i + 2];
    const Word a3 = data[i + 3];
    if (a0 != expected) out.push_back({base_index + i + 0, a0});
    if (a1 != expected) out.push_back({base_index + i + 1, a1});
    if (a2 != expected) out.push_back({base_index + i + 2, a2});
    if (a3 != expected) out.push_back({base_index + i + 3, a3});
    data[i + 0] = next;
    data[i + 1] = next;
    data[i + 2] = next;
    data[i + 3] = next;
  }
  for (; i < n; ++i) {
    const Word a = data[i];
    if (a != expected) out.push_back({base_index + i, a});
    data[i] = next;
  }
}

}  // namespace

const Kernels& kernel_set(simd::KernelTag<Kernels, Isa::kScalar>) noexcept {
  static const Kernels k{Isa::kScalar, "scalar", &fill_scalar,
                         &verify_scalar};
  return k;
}

}  // namespace unp::scanner::kernels
