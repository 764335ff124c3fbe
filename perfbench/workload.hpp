#pragma once

// The benchmark's workloads and the inputs generated for them: a fixed
// market per venue mix, and from the run seed the replay block stream and
// the route-query sequence. The program under test receives only these
// generated inputs.

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/router.hpp"
#include "core/scanner.hpp"
#include "market/snapshot.hpp"
#include "runtime/event.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/service.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string_view name;
  /// Generator venue mix (both zero = all-CPMM market).
  double stable_fraction = 0.0;
  double concentrated_fraction = 0.0;
  arb::core::StrategyKind strategy = arb::core::StrategyKind::kMaxMax;
  bool convex_warm_start = false;
  /// Pools updated per replay block.
  std::size_t pools_per_block = 0;
  /// Open-loop publisher period, with route queries running beside it.
  /// Zero means a closed loop (publish a block, wait for its ranked set,
  /// publish the next), with route queries run between rounds of blocks
  /// on the settled market.
  std::chrono::microseconds block_period{0};
  /// Live queries: the client's pause between a reply and its next query.
  /// Without one, a single back-to-back client re-takes the scanner lock
  /// before the service's consumer wakes and starves block processing.
  std::chrono::microseconds query_think{0};

  [[nodiscard]] bool live() const { return block_period.count() > 0; }
};

/// Every workload the program runs. BENCHMARK.json registers
/// sparse-convex-mixed and route-live; dense-maxmax (MaxMax solver and
/// reprice lanes busy) runs on request, unregistered because its
/// multi-threaded block tail moved past any allowed bound between runs on
/// a shared host.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Independent sub-seed `stream` of the run seed (splitmix64 finalizer),
/// so blocks and queries vary independently with the seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// 300 tokens / 2000 pools from the synthetic generator with a fixed
/// seed, after the paper's pool filter.
[[nodiscard]] arb::market::MarketSnapshot make_market(const WorkloadSpec& w);

/// Length-3 loops, the workload's strategy; everything else default.
[[nodiscard]] arb::core::ScannerConfig scanner_config(const WorkloadSpec& w);

/// scanner_config plus worker_threads = 2. Shards and pipeline depth stay
/// at the service's defaults.
[[nodiscard]] arb::runtime::ServiceConfig service_config(
    const WorkloadSpec& w);

using Block = std::vector<arb::runtime::PoolUpdateEvent>;

/// A window of kWindowEvents events from the seeded replay stream, cut
/// into blocks of pools_per_block events and replayed in a loop with
/// fresh sequence numbers. Events carry absolute state, so the loop is a
/// valid stream, and it bounds the market's random walk (about 25 shocks
/// per pool, ~5% in log price): without it a faster build would process
/// more blocks, drift further and price a different market.
class BlockSource {
 public:
  static constexpr std::size_t kWindowEvents = 50'000;

  BlockSource(const arb::market::MarketSnapshot& market,
              const WorkloadSpec& w, std::uint64_t seed);

  /// Replaces `out` with the next block.
  void next(Block& out);

 private:
  std::vector<Block> window_;
  std::size_t next_ = 0;
  std::uint64_t sequence_ = 0;
};

/// Route sizes as a share of the query's depth (below), log-uniform.
/// Selling a share s of a balanced CPMM pool's TVL costs about 2s in
/// price impact, so the range spans unsplit impacts of ~0.1% (below the
/// 0.3% fee: splitting barely pays) to ~10% (splitting across paths is
/// most of the gain).
inline constexpr double kMinDepthShare = 0.0005;
inline constexpr double kMaxDepthShare = 0.05;

/// USD TVL of the shallowest pool on the query's best candidate path
/// (the first enumerate_paths result), at the market's CEX prices.
[[nodiscard]] double depth_usd(const arb::market::MarketSnapshot& market,
                               const arb::core::RouteQuery& query);

/// Sets the query's amount_in to `share` of its depth_usd, in units of
/// the input token.
void size_query(const arb::market::MarketSnapshot& market, double share,
                arb::core::RouteQuery& query);

/// `count` default-shaped route queries (3 hops, 8 paths) between seeded
/// token pairs that have at least two candidate paths, each sized at a
/// seeded share of its depth in [kMinDepthShare, kMaxDepthShare].
[[nodiscard]] std::vector<arb::core::RouteQuery> make_queries(
    const arb::market::MarketSnapshot& market, std::uint64_t seed,
    std::size_t count);

/// Order-sensitive digest of generated inputs (the seeding self-test).
[[nodiscard]] std::uint64_t digest(const std::vector<Block>& blocks);
[[nodiscard]] std::uint64_t digest(
    const std::vector<arb::core::RouteQuery>& queries);
[[nodiscard]] std::uint64_t digest(const arb::market::MarketSnapshot& market);

}  // namespace perfbench
