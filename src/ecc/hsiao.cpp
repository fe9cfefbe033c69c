#include "ecc/hsiao.hpp"

#include <bit>
#include <utility>

#include "common/require.hpp"

namespace unp::ecc {

int HsiaoCode::min_check_bits(int data_bits) noexcept {
  for (int k = 4; k <= 20; ++k) {
    const std::uint64_t pool = (std::uint64_t{1} << (k - 1)) - static_cast<std::uint64_t>(k);
    if (pool >= static_cast<std::uint64_t>(data_bits)) return k;
  }
  return 0;
}

HsiaoCode::HsiaoCode(int data_bits, int check_bits, std::string name)
    : name_(std::move(name)) {
  UNP_REQUIRE(data_bits >= 4);
  if (check_bits == 0) check_bits = min_check_bits(data_bits);
  UNP_REQUIRE(check_bits >= 4 && check_bits <= 20);
  data_bits_ = data_bits;
  check_bits_ = check_bits;
  if (name_.empty()) {
    name_ = "hsiao:" + std::to_string(data_bits) + "/" + std::to_string(check_bits);
  }

  // Pinned enumeration: odd weights ascending, values ascending within a
  // weight, unit vectors reserved for the check bits.
  columns_.reserve(static_cast<std::size_t>(data_bits));
  const std::uint32_t limit = std::uint32_t{1} << check_bits;
  for (int w = 3; w <= check_bits && static_cast<int>(columns_.size()) < data_bits;
       w += 2) {
    for (std::uint32_t v = 1;
         v < limit && static_cast<int>(columns_.size()) < data_bits; ++v) {
      if (std::popcount(v) == w) columns_.push_back(v);
    }
  }
  UNP_ENSURE(static_cast<int>(columns_.size()) == data_bits);

  col_index_.assign(static_cast<std::size_t>(limit), -1);
  for (int i = 0; i < data_bits; ++i) {
    col_index_[columns_[static_cast<std::size_t>(i)]] = i;
  }
}

CodeGeometry HsiaoCode::geometry() const noexcept {
  CodeGeometry g;
  g.data_bits = data_bits_;
  g.check_bits = check_bits_;
  g.codeword_bits = data_bits_ + check_bits_;
  g.guaranteed_correct = 1;
  g.guaranteed_detect = 2;
  return g;
}

Verdict HsiaoCode::evaluate(std::span<const int> error_bits) const {
  std::uint32_t syndrome = 0;
  bool data_hit = false;
  for (const int p : error_bits) {
    if (p < data_bits_) {
      syndrome ^= columns_[static_cast<std::size_t>(p)];
      data_hit = true;
    } else {
      syndrome ^= std::uint32_t{1} << (p - data_bits_);
    }
  }
  if (syndrome == 0) {
    // Valid word: clean if truly clean, silent corruption otherwise.
    return data_hit ? Verdict::kSdc
                    : (error_bits.empty() ? Verdict::kCorrect : Verdict::kSdc);
  }
  const int weight = std::popcount(syndrome);
  if (weight % 2 == 0) return Verdict::kDetectOnly;
  if (weight == 1) {
    // Decoder blames the check bit of that unit syndrome; the data word is
    // delivered unchanged, so the application is fine iff no data bit flipped.
    return data_hit ? Verdict::kMiscorrect : Verdict::kCorrect;
  }
  const std::int32_t bit = col_index_[syndrome];
  if (bit < 0) return Verdict::kDetectOnly;
  // Decoder flips data bit `bit`: correct iff the true error was exactly
  // that one data bit (a wider pattern aliasing the column is miscorrected;
  // so is a check-bit pattern made to look like a data column).
  if (error_bits.size() == 1 && error_bits[0] == bit) return Verdict::kCorrect;
  return Verdict::kMiscorrect;
}

}  // namespace unp::ecc
