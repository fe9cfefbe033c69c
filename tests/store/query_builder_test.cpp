// QueryBuilder: the single validation owner for every query front end.
// Invalid input must throw QueryError naming the field and never yield a
// Query object; valid input must round-trip into exactly the predicate the
// hand-built Query would carry.
#include <gtest/gtest.h>

#include <string>

#include "cluster/topology.hpp"
#include "store/query.hpp"
#include "store/query_builder.hpp"

namespace unp::store {
namespace {

TEST(QueryBuilderTest, DefaultBuildIsMatchAll) {
  const Query q = QueryBuilder().build();
  const Query match_all;
  EXPECT_EQ(q.describe(), match_all.describe());
}

TEST(QueryBuilderTest, TypedSettersRoundTrip) {
  const Query q = QueryBuilder()
                      .since(100)
                      .until(200)
                      .blade(7)
                      .soc(3)
                      .min_bits(2)
                      .max_bits(8)
                      .build();
  EXPECT_EQ(q.since, 100);
  EXPECT_EQ(q.until, 200);
  EXPECT_EQ(q.blade, 7);
  EXPECT_EQ(q.soc, 3);
  EXPECT_EQ(q.min_bits, 2);
  EXPECT_EQ(q.max_bits, 8);
}

TEST(QueryBuilderTest, NodeNameSetsBladeAndSoc) {
  const cluster::NodeId id{12, 4};
  const Query q = QueryBuilder().node(cluster::node_name(id)).build();
  EXPECT_EQ(q.blade, 12);
  EXPECT_EQ(q.soc, 4);
}

TEST(QueryBuilderTest, FaultClassNamesMapToBitRanges) {
  struct Case {
    const char* name;
    int min;
    int max;
  };
  for (const Case c : {Case{"single", 1, 1}, Case{"double", 2, 2},
                       Case{"few", 3, 8}, Case{"many", 9, 32},
                       Case{"multi", 2, 32}}) {
    const Query q = QueryBuilder().fault_class(c.name).build();
    EXPECT_EQ(q.min_bits, c.min) << c.name;
    EXPECT_EQ(q.max_bits, c.max) << c.name;
  }
  EXPECT_THROW((void)QueryBuilder().fault_class("quintuple"), QueryError);
}

/// Apply (field, value) pairs in order through set(), the request path.
QueryBuilder with(
    std::initializer_list<std::pair<const char*, const char*>> fields) {
  QueryBuilder builder;
  for (const auto& [field, value] : fields) builder.set(field, value);
  return builder;
}

TEST(QueryBuilderTest, PredicatesIntersectInEitherOrder) {
  const Query few = QueryBuilder().fault_class("few").min_bits(2).build();
  EXPECT_EQ(std::pair(few.min_bits, few.max_bits), std::pair(3, 8));
  EXPECT_EQ(with({{"min-bits", "2"}, {"class", "few"}}).build().describe(),
            few.describe());
  const Query two = with({{"class", "double"}, {"max-bits", "8"}}).build();
  EXPECT_EQ(std::pair(two.min_bits, two.max_bits), std::pair(2, 2));

  const Query t = QueryBuilder().since(100).since(50).until(900).until(1000).build();
  EXPECT_EQ(t.since, 100);
  EXPECT_EQ(t.until, 900);
  EXPECT_EQ(with({{"until", "900"}, {"since", "50"}, {"until", "1000"},
                  {"since", "100"}}).build().describe(),
            t.describe());
  EXPECT_THROW((void)QueryBuilder().fault_class("single").fault_class("many").build(),
               QueryError);
}

TEST(QueryBuilderTest, ConflictingNodeCoordinatesThrowInEitherOrder) {
  const auto expect_conflict = [](auto make, const char* other) {
    try {
      make();
      FAIL() << "conflicting location predicates must throw";
    } catch (const QueryError& e) {  // the message names both fields
      EXPECT_NE(std::string(e.what()).find("node"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(other), std::string::npos);
    }
  };
  expect_conflict([] { (void)QueryBuilder().blade(3).node("58-02"); }, "blade");
  expect_conflict([] { (void)QueryBuilder().node("58-02").blade(3); }, "blade");
  expect_conflict([] { (void)with({{"blade", "3"}, {"node", "58-02"}}); }, "blade");
  expect_conflict([] { (void)with({{"node", "58-02"}, {"soc", "1"}}); }, "soc");
  const Query q = with({{"node", "58-02"}, {"blade", "58"}, {"soc", "2"}}).build();
  EXPECT_EQ(std::pair(*q.blade, *q.soc), std::pair(58, 2));
}

TEST(QueryBuilderTest, OutOfRangeFieldsThrowNamingTheField) {
  try {
    (void)QueryBuilder().blade(cluster::kStudyBlades);
    FAIL() << "blade past the topology must throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "blade");
  }
  try {
    (void)QueryBuilder().soc(cluster::kSocsPerBlade);
    FAIL() << "soc past the topology must throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "soc");
  }
  EXPECT_THROW((void)QueryBuilder().blade(-1), QueryError);
  EXPECT_THROW((void)QueryBuilder().min_bits(0), QueryError);
  EXPECT_THROW((void)QueryBuilder().max_bits(33), QueryError);
}

TEST(QueryBuilderTest, CrossFieldValidationHappensAtBuild) {
  QueryBuilder builder;
  builder.min_bits(9).max_bits(3);  // individually valid, jointly absurd
  EXPECT_THROW((void)builder.build(), QueryError);
}

TEST(QueryBuilderTest, StringlySettersMatchTypedSetters) {
  const Query typed = QueryBuilder()
                          .since(1'440'000'000)
                          .until(1'440'100'000)
                          .blade(30)
                          .min_bits(2)
                          .max_bits(8)
                          .build();
  const Query stringly = QueryBuilder()
                             .set("since", "1440000000")
                             .set("until", "1440100000")
                             .set("blade", "30")
                             .set("min-bits", "2")
                             .set("max-bits", "8")
                             .build();
  EXPECT_EQ(stringly.describe(), typed.describe());

  const Query by_class = QueryBuilder().set("class", "multi").build();
  EXPECT_EQ(by_class.min_bits, 2);
  EXPECT_EQ(by_class.max_bits, 32);
}

TEST(QueryBuilderTest, StringlyParsingIsStrict) {
  // Whole-token base-10 only: trailing junk, empty, and overflow all fail.
  EXPECT_THROW((void)QueryBuilder().set("blade", "12x"), QueryError);
  EXPECT_THROW((void)QueryBuilder().set("blade", ""), QueryError);
  EXPECT_THROW((void)QueryBuilder().set("blade", "0x12"), QueryError);
  EXPECT_THROW((void)QueryBuilder().set("since", "not-a-time"), QueryError);
  EXPECT_THROW((void)QueryBuilder().set("min-bits", "999999999999999999999"),
               QueryError);
}

TEST(QueryBuilderTest, UnknownFieldThrowsNamingIt) {
  try {
    (void)QueryBuilder().set("rack", "3");
    FAIL() << "unknown field must throw";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.field(), "rack");
  }
}

TEST(QueryBuilderTest, MalformedNodeNamesThrow) {
  EXPECT_THROW((void)QueryBuilder().node(""), QueryError);
  EXPECT_THROW((void)QueryBuilder().node("7"), QueryError);
  EXPECT_THROW((void)QueryBuilder().node("ab-cd"), QueryError);
  EXPECT_THROW((void)QueryBuilder().node("99-99"), QueryError);
}

TEST(QueryBuilderTest, QueryErrorIsAContractViolationWithASentence) {
  try {
    (void)QueryBuilder().set("blade", "9999");
    FAIL();
  } catch (const ContractViolation& e) {  // catchable at the CLI top level
    EXPECT_NE(std::string(e.what()).find("blade"), std::string::npos);
  }
}

}  // namespace
}  // namespace unp::store
