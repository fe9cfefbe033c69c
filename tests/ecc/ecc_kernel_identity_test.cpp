// ECC member of the kernel-identity test group (alongside
// scanner_kernel_identity_test): the unp_ecc outcome tallies must be
// bit-identical no matter which store decode kernel ISA materializes the
// fault population and how many threads scan the store.  The chain under
// test is the exact population path of `unp_ecc --population --store`:
// store scan -> flip masks -> mask census -> evaluate_population.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/extraction.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
#include "common/thread_pool.hpp"
#include "ecc/engine.hpp"
#include "ecc/registry.hpp"
#include "store/builder.hpp"
#include "store/handle.hpp"
#include "store/kernels/kernels.hpp"
#include "store/query.hpp"
#include "store/reader.hpp"

namespace unp::ecc {
namespace {

constexpr TimePoint kStart = 1'440'000'000;
constexpr TimePoint kEnd = kStart + 500'000;

/// A population heavy on multi-bit corruptions so every verdict and every
/// multiplicity bucket is exercised, spread across segments so parallel
/// scans actually split the work.
store::StoreReader build_reader() {
  std::vector<analysis::FaultRecord> faults;
  Xoshiro256 rng(4242);
  for (int i = 0; i < 4000; ++i) {
    analysis::FaultRecord f;
    f.first_seen = kStart + static_cast<TimePoint>(i) * 100;
    f.last_seen = f.first_seen + 30;
    f.node = cluster::NodeId{(i / 150) % cluster::kStudyBlades,
                             static_cast<int>(rng.next() % 4)};
    f.raw_logs = 1 + rng.next() % 20;
    f.virtual_address = rng.next() % (1ull << 40);
    f.expected = static_cast<Word>(rng.next());
    Word mask = Word{1} << (rng.next() % 32);
    // Mostly <= 8 flips (cheap verdicts everywhere) with a sparse many-bit
    // tail so the expensive full-decode paths run, but don't dominate.
    const int extra = i % 50 == 0 ? 10 : static_cast<int>(rng.next() % 7);
    for (int b = 0; b < extra; ++b) mask |= Word{1} << (rng.next() % 32);
    f.actual = f.expected ^ mask;
    f.temperature_c = 25.0;
    faults.push_back(f);
  }

  store::StoreBuilder builder(store::StoreBuilder::Config{256});
  builder.set_window(CampaignWindow{kStart, kEnd});
  builder.begin_faults(analysis::FaultStreamContext{{kStart, kEnd}});
  for (const auto& f : faults) builder.on_fault(f);
  builder.end_faults();
  return store::StoreReader(store::StoreHandle::from_bytes(builder.encode()));
}

MaskCensus census_of(const std::vector<analysis::FaultRecord>& faults) {
  std::vector<Word> masks;
  masks.reserve(faults.size());
  for (const auto& f : faults) masks.push_back(f.flip_mask());
  return mask_census(masks);
}

TEST(EccKernelIdentityTest, PopulationTalliesIdenticalAcrossKernelsAndThreads) {
  const store::StoreReader reader = build_reader();

  // Baseline: scalar kernels, sequential scan.
  std::vector<PopulationResult> baseline;
  {
    store::ScanOptions scan;
    scan.kernels = &store::kernels::store_kernels_for(simd::Isa::kScalar);
    const auto faults = reader.materialize(store::Query{}, scan);
    ASSERT_EQ(faults.size(), 4000u);
    const MaskCensus census = census_of(faults);
    for (const std::string& spec : default_code_specs())
      baseline.push_back(evaluate_population(*make_code(spec), census));
  }

  // Cross product of kernel ISA x scan threads: every execution shape must
  // hand the engine the identical mask population.
  for (const simd::Isa isa : simd::supported_isas()) {
    for (const std::size_t scan_threads : {std::size_t{1}, std::size_t{2},
                                           std::size_t{8}}) {
      ThreadPool scan_pool(scan_threads);
      store::ScanOptions scan;
      scan.pool = &scan_pool;
      scan.kernels = &store::kernels::store_kernels_for(isa);
      const MaskCensus census =
          census_of(reader.materialize(store::Query{}, scan));
      for (std::size_t s = 0; s < baseline.size(); ++s) {
        EXPECT_EQ(evaluate_population(*make_code(default_code_specs()[s]),
                                      census),
                  baseline[s])
            << default_code_specs()[s] << " " << simd::to_string(isa)
            << " scan=" << scan_threads;
      }
    }
  }
}

TEST(EccKernelIdentityTest, ExhaustiveTalliesIdenticalAcrossThreads) {
  // The exhaustive driver never touches the store, but it belongs to the
  // same identity promise the CLI makes: one tally, any execution shape.
  const auto code = make_code("hsiao:64/8");
  ThreadPool one(1);
  const ExhaustiveResult baseline = evaluate_exhaustive(*code, 3, one);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    const ExhaustiveResult r = evaluate_exhaustive(*code, 3, pool);
    ASSERT_EQ(r.weights.size(), baseline.weights.size());
    for (std::size_t w = 0; w < r.weights.size(); ++w)
      EXPECT_EQ(r.weights[w], baseline.weights[w]) << threads << " threads";
  }
}

}  // namespace
}  // namespace unp::ecc
