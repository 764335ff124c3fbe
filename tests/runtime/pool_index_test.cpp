#include "runtime/pool_index.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "market/generator.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::runtime {
namespace {

using core::testing::Section5Market;

TEST(PoolIndexTest, ValidationMirrorsScanMarket) {
  const Section5Market m;
  EXPECT_FALSE(PoolCycleIndex::build(m.graph, {}).ok());
  EXPECT_FALSE(PoolCycleIndex::build(m.graph, {1}).ok());
  EXPECT_TRUE(PoolCycleIndex::build(m.graph, {2, 3}).ok());
}

TEST(PoolIndexTest, TriangleUniverseAndFanout) {
  const Section5Market m;
  const auto index = PoolCycleIndex::build(m.graph, {3}).value();
  // Both orientations of the single triangle.
  ASSERT_EQ(index.cycles().size(), 2u);
  EXPECT_EQ(index.pool_count(), 3u);
  // Every pool is traversed by both orientations.
  for (const PoolId pool : {m.xy, m.yz, m.zx}) {
    EXPECT_EQ(index.cycles_of(pool).size(), 2u);
  }
  EXPECT_EQ(index.max_fanout(), 2u);
  EXPECT_DOUBLE_EQ(index.mean_fanout(), 2.0);
}

TEST(PoolIndexTest, RotationKeysMatchCycles) {
  const Section5Market m;
  const auto index = PoolCycleIndex::build(m.graph, {3}).value();
  ASSERT_EQ(index.rotation_keys().size(), index.cycles().size());
  for (std::size_t i = 0; i < index.cycles().size(); ++i) {
    EXPECT_EQ(index.rotation_keys()[i], index.cycles()[i].rotation_key());
  }
  // Distinct cycles have distinct keys (the ranking tie-break relies on
  // this).
  const std::set<std::string> keys(index.rotation_keys().begin(),
                                   index.rotation_keys().end());
  EXPECT_EQ(keys.size(), index.cycles().size());
}

/// The numbers of a rotation key ("token/pool;token/pool;..."), in order.
std::vector<std::uint64_t> key_numbers(const std::string& key) {
  std::vector<std::uint64_t> numbers;
  std::uint64_t value = 0;
  for (const char c : key) {
    if (c == '/' || c == ';') {
      numbers.push_back(value);
      value = 0;
    } else {
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
  }
  return numbers;
}

TEST(PoolIndexTest, KeyOrdinalsOrderCyclesLikeRotationKeys) {
  market::GeneratorConfig gen;
  gen.token_count = 14;
  gen.pool_count = 30;
  const auto snapshot = market::generate_snapshot(gen);
  const auto index = PoolCycleIndex::build(snapshot.graph, {2, 3, 4}).value();
  const auto& keys = index.rotation_keys();
  const auto& ordinals = index.key_ordinals();
  ASSERT_EQ(ordinals.size(), keys.size());

  // Every pair of cycles compares the same way by ordinal as by key,
  // including pairs whose keys order differently as strings than as
  // numbers ("10/..." sorts before "9/...").
  std::size_t string_not_numeric = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = 0; j < keys.size(); ++j) {
      ASSERT_EQ(ordinals[i] < ordinals[j], keys[i] < keys[j])
          << keys[i] << " vs " << keys[j];
      if (keys[i] < keys[j] && key_numbers(keys[j]) < key_numbers(keys[i])) {
        ++string_not_numeric;
      }
    }
  }
  EXPECT_GT(string_not_numeric, 0u);
  // Ordinals are a permutation of 0..N-1.
  const std::set<std::uint32_t> distinct(ordinals.begin(), ordinals.end());
  EXPECT_EQ(distinct.size(), keys.size());
  EXPECT_EQ(*distinct.rbegin() + 1, keys.size());
}

TEST(PoolIndexTest, InvertedIndexIsExactOnGeneratedMarket) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  const auto snapshot = market::generate_snapshot(gen);
  const auto index = PoolCycleIndex::build(snapshot.graph, {2, 3}).value();

  // Forward check: every cycle is listed under each of its pools.
  for (std::uint32_t i = 0; i < index.cycles().size(); ++i) {
    for (const PoolId pool : index.cycles()[i].pools()) {
      const auto& list = index.cycles_of(pool);
      EXPECT_TRUE(std::binary_search(list.begin(), list.end(), i))
          << "cycle " << i << " missing under pool " << pool.value();
    }
  }

  // Backward check: total fan-out equals the sum of cycle lengths
  // (each cycle traverses `length` distinct pools).
  std::size_t total_fanout = 0;
  for (std::size_t p = 0; p < index.pool_count(); ++p) {
    total_fanout +=
        index.cycles_of(PoolId{static_cast<PoolId::underlying_type>(p)})
            .size();
  }
  std::size_t total_length = 0;
  for (const auto& cycle : index.cycles()) total_length += cycle.length();
  EXPECT_EQ(total_fanout, total_length);
}

TEST(PoolIndexTest, UniverseMatchesScanMarketEnumerationOrder) {
  market::GeneratorConfig gen;
  gen.token_count = 12;
  gen.pool_count = 24;
  const auto snapshot = market::generate_snapshot(gen);
  const auto index = PoolCycleIndex::build(snapshot.graph, {3, 4}).value();

  std::vector<graph::Cycle> expected;
  for (const std::size_t length : {3u, 4u}) {
    auto cycles =
        graph::enumerate_fixed_length_cycles(snapshot.graph, length);
    expected.insert(expected.end(), cycles.begin(), cycles.end());
  }
  ASSERT_EQ(index.cycles().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(index.cycles()[i].rotation_key(), expected[i].rotation_key());
  }
}

}  // namespace
}  // namespace arb::runtime
