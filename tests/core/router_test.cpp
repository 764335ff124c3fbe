// Whole-graph router: deterministic path enumeration, method dispatch
// (direct / water-filling / flow solve), query validation, and the
// exact-output inversion built on the concave continuation.

#include "core/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/loop_nlp.hpp"
#include "core/routing.hpp"
#include "market/generator.hpp"

namespace arb::core {
namespace {

struct RouterMarket {
  graph::TokenGraph graph;
  TokenId a, b, c, d, isolated;
  PoolId direct1, direct2, leg_ac, leg_cb, stable_ad, conc_db;

  RouterMarket() {
    a = graph.add_token("A");
    b = graph.add_token("B");
    c = graph.add_token("C");
    d = graph.add_token("D");
    isolated = graph.add_token("LONELY");
    direct1 = graph.add_pool(a, b, 1'000.0, 2'000.0);
    direct2 = graph.add_pool(a, b, 400.0, 900.0);
    leg_ac = graph.add_pool(a, c, 800.0, 800.0);
    leg_cb = graph.add_pool(c, b, 700.0, 1'500.0);
    stable_ad = graph.add_stable_pool(a, d, 5'000.0, 5'000.0, 200.0);
    conc_db = graph.add_concentrated_pool(d, b, /*liquidity=*/4'000.0,
                                          /*price=*/2.0, /*p_lo=*/0.5,
                                          /*p_hi=*/8.0);
  }
};

TEST(EnumeratePathsTest, FindsAllSimplePathsRankedByRate) {
  RouterMarket m;
  const auto paths = enumerate_paths(m.graph, m.a, m.b, 2, 8);
  ASSERT_EQ(paths.size(), 4u);
  // Best zero-size rate first: direct2 (900/400 = 2.25 pre-fee) beats
  // direct1 (2.0), the C leg and the stable+concentrated route.
  EXPECT_EQ(paths[0], std::vector<PoolId>{m.direct2});
  // Every path is simple, starts at A, ends at B.
  for (const auto& path : paths) {
    TokenId cur = m.a;
    for (PoolId id : path) cur = m.graph.pool(id).other(cur);
    EXPECT_EQ(cur, m.b);
  }
}

TEST(EnumeratePathsTest, RespectsHopAndWidthBounds) {
  RouterMarket m;
  EXPECT_EQ(enumerate_paths(m.graph, m.a, m.b, 1, 8).size(), 2u);
  EXPECT_EQ(enumerate_paths(m.graph, m.a, m.b, 2, 3).size(), 3u);
  EXPECT_TRUE(enumerate_paths(m.graph, m.a, m.b, 0, 8).empty());
  EXPECT_TRUE(enumerate_paths(m.graph, m.a, m.isolated, 3, 8).empty());
}

TEST(EnumeratePathsTest, IsDeterministic) {
  RouterMarket m;
  const auto first = enumerate_paths(m.graph, m.a, m.b, 3, 8);
  const auto second = enumerate_paths(m.graph, m.a, m.b, 3, 8);
  EXPECT_EQ(first, second);
}

TEST(EnumeratePathsTest, InputPredicateAgreesWithKernelCap) {
  // Enumeration prunes with edge_accepts_input instead of building each
  // edge's kernel; the two must agree on every directed edge of a mixed
  // market, including positions pinned exactly at a range boundary.
  market::GeneratorConfig gen;
  gen.seed = 1411;
  gen.token_count = 20;
  gen.pool_count = 80;
  gen.stable_fraction = 0.2;
  gen.concentrated_fraction = 0.3;
  market::MarketSnapshot market = market::generate_snapshot(gen);
  graph::TokenGraph& graph = market.graph;

  // Pin every other concentrated position, alternating the side sold: a
  // swap a hair past the in-range cap clamps the price onto the edge.
  std::size_t concentrated = 0;
  std::size_t pinned = 0;
  for (std::uint32_t i = 0; i < graph.pool_count(); ++i) {
    const PoolId id{i};
    if (graph.pool(id).kind() != amm::PoolKind::kConcentrated) continue;
    if (concentrated++ % 2 == 1) continue;
    amm::ConcentratedPool& pool = graph.mutable_pool(id).concentrated();
    const TokenId in = pinned % 2 == 0 ? pool.token0() : pool.token1();
    const double cap =
        make_edge_kernel(graph.pool(id), in, pool.other(in)).input_cap;
    ASSERT_TRUE(pool.apply_swap(in, cap * (1.0 + 1e-13)).ok());
    ++pinned;
  }
  ASSERT_GT(pinned, 1u);

  std::size_t rejected = 0;
  for (const amm::AnyPool& pool : graph.pools()) {
    for (const TokenId in : {pool.token0(), pool.token1()}) {
      const bool accepts = edge_accepts_input(pool, in);
      EXPECT_EQ(accepts,
                make_edge_kernel(pool, in, pool.other(in)).input_cap > 0.0)
          << pool.to_string() << " selling " << in.value();
      rejected += !accepts;
    }
  }
  // A pinned position admits input only toward the opposite edge.
  EXPECT_EQ(rejected, pinned);
}

TEST(RouteTest, SinglePathGoesDirect) {
  RouterMarket m;
  RouteQuery query;
  query.token_in = m.c;
  query.token_out = m.b;
  query.amount_in = 10.0;
  query.max_hops = 1;
  auto result = route(m.graph, query);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->method, RouteMethod::kDirect);
  ASSERT_EQ(result->paths.size(), 1u);
  const double expected =
      m.graph.pool(m.leg_cb).quote(m.c, 10.0).amount_out;
  EXPECT_DOUBLE_EQ(result->amount_out, expected);
}

TEST(RouteTest, ParallelCpmmPathsUseWaterFilling) {
  RouterMarket m;
  RouteQuery query;
  query.token_in = m.a;
  query.token_out = m.b;
  query.amount_in = 150.0;
  query.max_hops = 2;
  query.max_paths = 3;  // direct1, direct2, the C leg — all CPMM
  auto result = route(m.graph, query);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->method, RouteMethod::kWaterFilling);

  auto split = optimal_route_split(
      m.graph, m.a, m.b,
      {{m.direct2}, {m.direct1}, {m.leg_ac, m.leg_cb}}, 150.0);
  ASSERT_TRUE(split.ok());
  EXPECT_NEAR(result->amount_out, split->total_output,
              1e-9 * split->total_output);
  double spent = 0.0;
  for (const RoutedPath& path : result->paths) spent += path.input;
  EXPECT_NEAR(spent, 150.0, 1e-9 * 150.0);
}

TEST(RouteTest, MixedVenuesUseFlowSolver) {
  RouterMarket m;
  RouteQuery query;
  query.token_in = m.a;
  query.token_out = m.b;
  query.amount_in = 200.0;
  query.max_hops = 2;
  auto result = route(m.graph, query);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->method, RouteMethod::kFlowSolve);
  EXPECT_GT(result->amount_out, 0.0);
  EXPECT_GE(result->duality_gap, 0.0);

  // Must beat the best unsplit route.
  const auto paths = enumerate_paths(m.graph, m.a, m.b, 2, 8);
  auto single = best_single_path_output(m.graph, m.a, m.b, paths, 200.0);
  ASSERT_TRUE(single.ok());
  EXPECT_GE(result->amount_out, *single * (1.0 - 1e-6));
}

TEST(RouteTest, RejectsMalformedQueries) {
  RouterMarket m;
  RouteQuery query;
  query.token_in = m.a;
  query.token_out = m.a;
  query.amount_in = 1.0;
  EXPECT_FALSE(route(m.graph, query).ok());
  query.token_out = TokenId{99};
  EXPECT_FALSE(route(m.graph, query).ok());
  query.token_out = m.b;
  query.amount_in = -1.0;
  EXPECT_FALSE(route(m.graph, query).ok());
  query.amount_in = 1.0;
  query.token_out = m.isolated;
  auto result = route(m.graph, query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
}

TEST(RouteTest, ZeroAmountRoutesToZero) {
  RouterMarket m;
  RouteQuery query;
  query.token_in = m.a;
  query.token_out = m.b;
  query.amount_in = 0.0;
  auto result = route(m.graph, query);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_DOUBLE_EQ(result->amount_out, 0.0);
}

// ---- Exact-output inversion --------------------------------------------

TEST(RequiredInputTest, InvertsForwardChain) {
  RouterMarket m;
  const std::vector<PoolId> path{m.leg_ac, m.leg_cb};
  const double input = 37.0;
  double amount = input;
  TokenId cur = m.a;
  for (PoolId id : path) {
    amount = m.graph.pool(id).quote(cur, amount).amount_out;
    cur = m.graph.pool(id).other(cur);
  }
  auto required = required_input_for_output(m.graph, m.a, path, amount);
  ASSERT_TRUE(required.ok()) << required.error().message;
  EXPECT_NEAR(*required, input, 1e-9 * input);
}

TEST(RequiredInputTest, InvertsMixedVenueChain) {
  RouterMarket m;
  const std::vector<PoolId> path{m.stable_ad, m.conc_db};
  const double input = 250.0;
  double amount = input;
  TokenId cur = m.a;
  for (PoolId id : path) {
    amount = m.graph.pool(id).quote(cur, amount).amount_out;
    cur = m.graph.pool(id).other(cur);
  }
  auto required = required_input_for_output(m.graph, m.a, path, amount);
  ASSERT_TRUE(required.ok()) << required.error().message;
  // Stable inversion goes through the cached-D curve's Newton solve.
  EXPECT_NEAR(*required, input, 1e-6 * input);
}

TEST(RequiredInputTest, ReportsCapacityExceeded) {
  RouterMarket m;
  // leg_cb holds 1500 B; asking for more cannot be served.
  auto required =
      required_input_for_output(m.graph, m.c, {m.leg_cb}, 1'600.0);
  ASSERT_FALSE(required.ok());
  EXPECT_EQ(required.error().code, ErrorCode::kCapacityExceeded);
}

TEST(RequiredInputTest, ValidatesThePath) {
  RouterMarket m;
  EXPECT_FALSE(required_input_for_output(m.graph, m.a, {}, 1.0).ok());
  EXPECT_FALSE(
      required_input_for_output(m.graph, m.a, {m.leg_cb}, 1.0).ok());
  EXPECT_FALSE(
      required_input_for_output(m.graph, m.a, {PoolId{99}}, 1.0).ok());
  EXPECT_FALSE(
      required_input_for_output(m.graph, m.a, {m.direct1}, -1.0).ok());
  auto zero = required_input_for_output(m.graph, m.a, {m.direct1}, 0.0);
  ASSERT_TRUE(zero.ok());
  EXPECT_DOUBLE_EQ(*zero, 0.0);
}

}  // namespace
}  // namespace arb::core
