#include "ecc/bch.hpp"

#include <algorithm>
#include <array>
#include <set>

#include "common/require.hpp"

namespace unp::ecc {
namespace {

/// True when the locator `c` (coefficients low to high, degree 1..16) has
/// deg(c) distinct roots in the field, i.e. c divides x^(2^m) - x.  Only
/// then can the Chien search succeed, so every other locator fails after
/// m squarings mod c instead of a scan over all 2^m - 1 field elements.
bool splits_into_distinct_roots(const GaloisField& field,
                                const std::vector<std::uint32_t>& c) {
  const std::size_t deg = c.size() - 1;
  const std::uint32_t lead_inv = field.inv(c.back());
  using Poly = std::array<std::uint32_t, 32>;
  const auto reduce = [&](Poly& r) {  // r mod c, for deg(r) < 2 deg(c)
    for (std::size_t i = 2 * deg; i-- > deg;) {
      const std::uint32_t q = field.mul(r[i], lead_inv);
      for (std::size_t k = 0; k <= deg; ++k) r[i - deg + k] ^= field.mul(q, c[k]);
    }
  };
  Poly x{};
  x[1] = 1;
  reduce(x);
  Poly r = x;
  for (int i = 0; i < field.m(); ++i) {  // r := r^2 mod c; in GF(2^m)[x]
    Poly square{};                       // squaring is term-by-term
    for (std::size_t k = 0; k < deg; ++k) square[2 * k] = field.mul(r[k], r[k]);
    reduce(square);
    r = square;
  }
  return r == x;
}

}  // namespace

int bch_parity_bits(int m, int correct_bits) {
  const int n = (1 << m) - 1;
  std::set<int> union_of_cosets;
  for (int j = 1; j <= 2 * correct_bits; ++j) {
    int e = j % n;
    for (int k = 0; k < m; ++k) {
      union_of_cosets.insert(e);
      e = (2 * e) % n;
    }
  }
  return static_cast<int>(union_of_cosets.size());
}

BchDecoder::BchDecoder(int m, int shortened_bits, int correct_bits)
    : field_(GaloisField::get(m)),
      shortened_bits_(shortened_bits),
      t_(correct_bits),
      parity_bits_(bch_parity_bits(m, correct_bits)) {
  UNP_REQUIRE(correct_bits >= 1 && correct_bits <= 16 &&
              2 * correct_bits < field_.n());
  UNP_REQUIRE(shortened_bits >= 1 && shortened_bits <= field_.n());
}

void BchDecoder::syndromes(std::span<const int> error_bits,
                           std::vector<std::uint32_t>& out) const {
  out.assign(static_cast<std::size_t>(2 * t_), 0);
  for (const int p : error_bits) {
    for (int j = 1; j <= 2 * t_; ++j) {
      out[static_cast<std::size_t>(j - 1)] ^= field_.alpha_pow(
          static_cast<std::uint64_t>(j) * static_cast<std::uint64_t>(p));
    }
  }
}

bool BchDecoder::is_codeword(std::span<const int> error_bits) const {
  std::vector<std::uint32_t> s;
  syndromes(error_bits, s);
  return std::all_of(s.begin(), s.end(),
                     [](std::uint32_t v) { return v == 0; });
}

BchDecoder::Result BchDecoder::decode(std::span<const int> error_bits) const {
  Result res;
  std::vector<std::uint32_t> s;
  syndromes(error_bits, s);
  if (std::all_of(s.begin(), s.end(),
                  [](std::uint32_t v) { return v == 0; })) {
    res.status = Status::kClean;
    return res;
  }

  // Berlekamp–Massey: the minimal LFSR generating S_1..S_2t.
  std::vector<std::uint32_t> c{1};  // error locator, c[0] = 1
  std::vector<std::uint32_t> b{1};
  int big_l = 0;
  int shift = 1;
  std::uint32_t b_disc = 1;
  for (int i = 0; i < 2 * t_; ++i) {
    std::uint32_t d = s[static_cast<std::size_t>(i)];
    for (int k = 1; k <= big_l; ++k) {
      if (k < static_cast<int>(c.size())) {
        d ^= field_.mul(c[static_cast<std::size_t>(k)],
                        s[static_cast<std::size_t>(i - k)]);
      }
    }
    if (d == 0) {
      ++shift;
      continue;
    }
    const std::uint32_t coef = field_.mul(d, field_.inv(b_disc));
    std::vector<std::uint32_t> next = c;
    if (next.size() < b.size() + static_cast<std::size_t>(shift)) {
      next.resize(b.size() + static_cast<std::size_t>(shift), 0);
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      next[k + static_cast<std::size_t>(shift)] ^= field_.mul(coef, b[k]);
    }
    if (2 * big_l <= i) {
      b = c;
      b_disc = d;
      big_l = i + 1 - big_l;
      shift = 1;
    } else {
      ++shift;
    }
    c = std::move(next);
  }
  while (!c.empty() && c.back() == 0) c.pop_back();
  const int degree = static_cast<int>(c.size()) - 1;
  if (big_l > t_ || degree != big_l ||
      !splits_into_distinct_roots(field_, c)) {
    res.status = Status::kFailed;
    return res;
  }

  // Chien search over the FULL cyclic length: a root mapping to a
  // shortened-away position means the "error" lies in bits known to be
  // zero, which a shortened decoder reports as failure.
  const int n = field_.n();
  for (int p = 0; p < n; ++p) {
    // sigma(alpha^{-p}) == 0 <=> p is an error location.
    const std::uint32_t x =
        field_.alpha_pow(static_cast<std::uint64_t>(n - p % n));
    std::uint32_t acc = 0;
    for (std::size_t k = c.size(); k-- > 0;) {
      acc = field_.mul(acc, x) ^ c[k];
    }
    if (acc == 0) {
      if (p >= shortened_bits_ ||
          static_cast<int>(res.corrected.size()) == big_l) {
        res.status = Status::kFailed;
        return res;
      }
      res.corrected.push_back(p);
    }
  }
  if (static_cast<int>(res.corrected.size()) != big_l) {
    res.status = Status::kFailed;
    return res;
  }

  // Re-encode check: the located set must reproduce the received syndromes.
  std::vector<std::uint32_t> located;
  syndromes(res.corrected, located);
  if (located != s) {
    res.status = Status::kFailed;
    res.corrected.clear();
    return res;
  }
  res.status = Status::kCorrected;
  return res;
}

BchCode::BchCode(int data_bits, int correct_bits) {
  UNP_REQUIRE(data_bits >= 4 && data_bits <= 8192);
  UNP_REQUIRE(correct_bits >= 1 && correct_bits <= 16);
  data_bits_ = data_bits;
  for (int m = 3; m <= 16; ++m) {
    const int n = (1 << m) - 1;
    if (2 * correct_bits >= n) continue;
    const int parity = bch_parity_bits(m, correct_bits);
    if (data_bits + parity <= n) {
      m_ = m;
      decoder_ = std::make_unique<BchDecoder>(m, data_bits + parity,
                                              correct_bits);
      break;
    }
  }
  UNP_REQUIRE(decoder_ != nullptr);
  name_ = "bch:" + std::to_string(data_bits) + "/" +
          std::to_string(correct_bits);
}

CodeGeometry BchCode::geometry() const noexcept {
  CodeGeometry g;
  g.data_bits = data_bits_;
  g.check_bits = decoder_->parity_bits();
  g.codeword_bits = data_bits_ + g.check_bits;
  g.guaranteed_correct = decoder_->t();
  // Beyond t a pattern may alias another codeword's decoding sphere, so
  // nothing wider is guaranteed to be signalled.
  g.guaranteed_detect = decoder_->t();
  return g;
}

Verdict BchCode::evaluate(std::span<const int> error_bits) const {
  if (error_bits.empty()) return Verdict::kCorrect;
  if (static_cast<int>(error_bits.size()) <= decoder_->t()) {
    return Verdict::kCorrect;  // unique decoding: located exactly
  }
  const BchDecoder::Result res = decoder_->decode(error_bits);
  const auto data_touched = [this](std::span<const int> bits) {
    for (const int p : bits) {
      if (p < data_bits_) return true;
    }
    return false;
  };
  switch (res.status) {
    case BchDecoder::Status::kClean:
      return data_touched(error_bits) ? Verdict::kSdc : Verdict::kCorrect;
    case BchDecoder::Status::kFailed:
      return Verdict::kDetectOnly;
    case BchDecoder::Status::kCorrected: {
      // Residual = true pattern XOR the decoder's fix; the application is
      // wrong iff the residual touches a data bit.
      std::vector<int> residual;
      std::set_symmetric_difference(error_bits.begin(), error_bits.end(),
                                    res.corrected.begin(),
                                    res.corrected.end(),
                                    std::back_inserter(residual));
      if (residual.empty()) return Verdict::kCorrect;
      return data_touched(residual) ? Verdict::kMiscorrect : Verdict::kCorrect;
    }
  }
  return Verdict::kDetectOnly;
}

}  // namespace unp::ecc
