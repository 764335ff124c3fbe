#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "market/generator.hpp"

namespace perfbench {

using namespace arb;
using namespace std::chrono_literals;

namespace {

constexpr std::size_t kTokens = 300;
constexpr std::size_t kPools = 2000;
// One fixed market per venue mix (the generator's default seed, the
// paper's snapshot date). Markets drawn per run seed vary the route cost
// by a third and the convex set-up time by a quarter from seed to seed,
// more than any bound can absorb; the run seed varies the dynamics.
constexpr std::uint64_t kMarketSeed = 20230901;

// Sub-seed streams of one run seed.
constexpr std::uint64_t kBlockStream = 2;
constexpr std::uint64_t kQueryStream = 3;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ull;

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {.name = "dense-maxmax",
       .strategy = core::StrategyKind::kMaxMax,
       .pools_per_block = 200},
      {.name = "sparse-convex-mixed",
       .stable_fraction = 0.2,
       .concentrated_fraction = 0.2,
       .strategy = core::StrategyKind::kConvexOptimization,
       .convex_warm_start = true,
       .pools_per_block = 4},
      {.name = "route-live",
       .stable_fraction = 0.2,
       .concentrated_fraction = 0.2,
       .strategy = core::StrategyKind::kMaxMax,
       .pools_per_block = 16,
       .block_period = 10000us,
       .query_think = 20000us},
  };
  return kAll;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

market::MarketSnapshot make_market(const WorkloadSpec& w) {
  market::GeneratorConfig config;
  config.seed = kMarketSeed;
  config.token_count = kTokens;
  config.pool_count = kPools;
  config.stable_fraction = w.stable_fraction;
  config.concentrated_fraction = w.concentrated_fraction;
  return market::generate_snapshot(config).filtered(market::PoolFilter{});
}

core::ScannerConfig scanner_config(const WorkloadSpec& w) {
  core::ScannerConfig config;
  config.loop_lengths = {3};
  config.strategy = w.strategy;
  config.convex_warm_start = w.convex_warm_start;
  return config;
}

runtime::ServiceConfig service_config(const WorkloadSpec& w) {
  runtime::ServiceConfig config;
  config.scanner = scanner_config(w);
  config.worker_threads = 2;
  return config;
}

BlockSource::BlockSource(const market::MarketSnapshot& market,
                         const WorkloadSpec& w, std::uint64_t seed) {
  runtime::ReplayUpdateStream stream(
      market, runtime::ReplayStreamConfig{
                  .seed = derive_seed(seed, kBlockStream),
                  .blocks = 0,
                  .pools_per_block = w.pools_per_block});
  window_.resize(std::max<std::size_t>(1, kWindowEvents / w.pools_per_block));
  for (Block& block : window_) {
    for (std::size_t i = 0; i < w.pools_per_block; ++i) {
      auto event = stream.next();
      if (!event) throw std::runtime_error("replay stream ended");
      block.push_back(*event);
    }
  }
}

void BlockSource::next(Block& out) {
  out = window_[next_];
  next_ = (next_ + 1) % window_.size();
  for (runtime::PoolUpdateEvent& event : out) event.sequence = sequence_++;
}

double depth_usd(const market::MarketSnapshot& market,
                 const core::RouteQuery& query) {
  const auto paths =
      core::enumerate_paths(market.graph, query.token_in, query.token_out,
                            query.max_hops, query.max_paths);
  if (paths.empty()) throw std::runtime_error("query has no candidate path");
  double depth = std::numeric_limits<double>::infinity();
  for (PoolId id : paths.front()) {
    const amm::AnyPool& pool = market.graph.pool(id);
    depth = std::min(
        depth, pool.reserve0() * market.prices.price_unchecked(pool.token0()) +
                   pool.reserve1() *
                       market.prices.price_unchecked(pool.token1()));
  }
  return depth;
}

void size_query(const market::MarketSnapshot& market, double share,
                core::RouteQuery& query) {
  query.amount_in = share * depth_usd(market, query) /
                    market.prices.price_unchecked(query.token_in);
}

std::vector<core::RouteQuery> make_queries(const market::MarketSnapshot& market,
                                           std::uint64_t seed,
                                           std::size_t count) {
  Rng rng(derive_seed(seed, kQueryStream));
  const auto tokens = static_cast<std::int64_t>(market.graph.token_count());
  std::vector<core::RouteQuery> queries;
  queries.reserve(count);
  while (queries.size() < count) {
    core::RouteQuery query;
    query.token_in = TokenId(static_cast<TokenId::underlying_type>(
        rng.uniform_int(0, tokens - 1)));
    query.token_out = TokenId(static_cast<TokenId::underlying_type>(
        rng.uniform_int(0, tokens - 1)));
    const double share = std::exp(
        rng.uniform(std::log(kMinDepthShare), std::log(kMaxDepthShare)));
    if (query.token_in == query.token_out) continue;
    if (core::enumerate_paths(market.graph, query.token_in, query.token_out,
                              query.max_hops, query.max_paths)
            .size() < 2) {
      continue;
    }
    size_query(market, share, query);
    queries.push_back(query);
  }
  return queries;
}

std::uint64_t digest(const std::vector<Block>& blocks) {
  std::uint64_t h = kDigestBasis;
  for (const Block& block : blocks) {
    for (const runtime::PoolUpdateEvent& e : block) {
      h = mix(h, static_cast<std::uint64_t>(e.pool.value()));
      h = mix(h, e.reserve0);
      h = mix(h, e.reserve1);
      h = mix(h, e.liquidity);
      h = mix(h, e.price);
      h = mix(h, e.sequence);
    }
  }
  return h;
}

std::uint64_t digest(const std::vector<core::RouteQuery>& queries) {
  std::uint64_t h = kDigestBasis;
  for (const core::RouteQuery& q : queries) {
    h = mix(h, static_cast<std::uint64_t>(q.token_in.value()));
    h = mix(h, static_cast<std::uint64_t>(q.token_out.value()));
    h = mix(h, q.amount_in);
  }
  return h;
}

std::uint64_t digest(const market::MarketSnapshot& market) {
  std::uint64_t h = kDigestBasis;
  h = mix(h, static_cast<std::uint64_t>(market.graph.token_count()));
  for (const amm::AnyPool& pool : market.graph.pools()) {
    h = mix(h, static_cast<std::uint64_t>(pool.kind()));
    h = mix(h, static_cast<std::uint64_t>(pool.token0().value()));
    h = mix(h, static_cast<std::uint64_t>(pool.token1().value()));
    h = mix(h, pool.reserve0());
    h = mix(h, pool.reserve1());
  }
  return h;
}

}  // namespace perfbench
