// QueryBuilder: validating, fluent construction of store Queries.
//
// unp_query's flag parser and unp_serve's request parser accept the same
// predicate vocabulary; before this builder each front end hand-rolled its
// own bounds checks, and a new front end could silently drift (accept a
// blade the store can't hold, or run a partial scan off a half-parsed
// request).  The builder is the single owner of that validation: every
// setter checks its field eagerly and throws QueryError naming the field,
// so an invalid request fails closed — callers never see a Query object,
// and therefore can never start a scan from rejected input.
//
// Two entry styles, freely mixed:
//   - typed:   builder.blade(12).fault_class("single").build()
//   - stringly: builder.set("blade", "12") — the shape CLI flags and server
//     request lines arrive in; numeric fields parse strictly (whole token,
//     base 10) and re-use the typed path's range checks.
//
// Predicates AND together whatever order they arrive in: bit ranges and
// time bounds intersect, and a blade or SoC that conflicts with one already
// selected (by --blade, --soc or --node) throws QueryError naming both.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/require.hpp"
#include "store/query.hpp"

namespace unp::store {

/// Rejected query input.  `field()` names the offending field ("blade",
/// "min-bits", ...); what() is a full sentence ready for a CLI error line
/// or a server ERR payload.
class QueryError : public ContractViolation {
 public:
  QueryError(std::string field, const std::string& message)
      : ContractViolation(field + ": " + message), field_(std::move(field)) {}

  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

class QueryBuilder {
 public:
  QueryBuilder() = default;

  // --- typed setters (validate eagerly, throw QueryError) -----------------
  QueryBuilder& since(TimePoint t);
  QueryBuilder& until(TimePoint t);
  /// "BB-SS" node name; sets both blade and soc.
  QueryBuilder& node(std::string_view name);
  QueryBuilder& blade(int b);
  QueryBuilder& soc(int s);
  /// single | double | few | many | multi (sets min/max bits).
  QueryBuilder& fault_class(std::string_view name);
  QueryBuilder& min_bits(int n);
  QueryBuilder& max_bits(int n);
  QueryBuilder& projection(std::uint32_t columns);

  /// String-facing setter: `field` is the flag/request key without dashes
  /// prefix ("since", "until", "node", "blade", "soc", "class", "min-bits",
  /// "max-bits").  Numeric values must parse completely.  Throws QueryError
  /// for unknown fields and invalid values alike.
  QueryBuilder& set(std::string_view field, std::string_view value);

  /// Final cross-field validation (min-bits <= max-bits); returns the
  /// validated Query.  Throws QueryError, never returns a partial query.
  [[nodiscard]] Query build() const;

 private:
  Query query_;
  const char* blade_from_ = nullptr;  ///< field that selected the blade
  const char* soc_from_ = nullptr;    ///< field that selected the SoC
};

}  // namespace unp::store
