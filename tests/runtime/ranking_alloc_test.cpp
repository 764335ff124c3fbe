// Pins the allocation-free polling contract of
// IncrementalScanner::collect_into: once a caller's vector has held the
// ranked set, polling it again — whether nothing changed or a reprice
// left the set equal — performs no heap allocation, at one shard and at
// several (the K-way merge path).
//
// Allocations are counted by testkit/heap_count.hpp, per thread, so
// only the polling thread's own allocations are observed.

#include <gtest/gtest.h>

#include <vector>

#include "market/generator.hpp"
#include "runtime/incremental_scanner.hpp"
#include "testkit/heap_count.hpp"

namespace arb::runtime {
namespace {

using testkit::heap_allocations_during;

class RankingAllocationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RankingAllocationTest, RepeatedCollectIntoAllocatesNothing) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);
  core::ScannerConfig config;
  config.loop_lengths = {3};
  auto scanner =
      IncrementalScanner::create(snapshot, config, nullptr, GetParam())
          .value();
  ASSERT_EQ(scanner.shard_count(), GetParam());

  std::vector<core::Opportunity> polled;
  scanner.collect_into(polled);  // sizes the caller's vector
  ASSERT_FALSE(polled.empty());
  const std::vector<core::Opportunity> first = polled;

  // Unchanged ranked set: nothing to merge, only the copy-assign.
  EXPECT_EQ(
      heap_allocations_during([&] { scanner.collect_into(polled); }), 0u);

  // Rewrite the top loop's pools with their current reserves: their
  // cycles are repriced to the same values, so the ranked set is equal
  // but every ranking step (drop, sort, merge, K-way merge) runs.
  std::vector<PoolUpdateEvent> rewrite;
  for (const PoolId pool : first.front().cycle.pools()) {
    const auto& state = scanner.snapshot().graph.pool(pool);
    rewrite.push_back({pool, state.reserve0(), state.reserve1(), 0});
  }
  const ApplyReport report = scanner.apply(rewrite).value();
  ASSERT_GT(report.repriced, 0u);
  EXPECT_EQ(
      heap_allocations_during([&] { scanner.collect_into(polled); }), 0u);

  ASSERT_EQ(polled.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(polled[i].cycle.rotation_key(), first[i].cycle.rotation_key());
    EXPECT_EQ(polled[i].net_profit_usd, first[i].net_profit_usd);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RankingAllocationTest,
                         ::testing::Values(std::size_t{1}, std::size_t{3}));

}  // namespace
}  // namespace arb::runtime
