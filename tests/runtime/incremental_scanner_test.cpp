#include "runtime/incremental_scanner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/scanner.hpp"
#include "market/generator.hpp"
#include "sim/replay.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::runtime {
namespace {

using core::testing::Section5Market;

/// Draws one pool-update event by shocking the reference graph's current
/// reserves (so consecutive shocks compound), applies it to the
/// reference, and returns it for the incremental scanner.
PoolUpdateEvent random_event(graph::TokenGraph& reference, Rng& rng,
                             double sigma, std::uint64_t sequence) {
  const auto pool_value = static_cast<PoolId::underlying_type>(rng.uniform_int(
      0, static_cast<std::int64_t>(reference.pool_count()) - 1));
  const PoolId id{pool_value};
  const auto [r0, r1] =
      sim::shocked_reserves(reference.pool(id), rng.normal(0.0, sigma));
  EXPECT_TRUE(reference.set_pool_reserves(id, r0, r1).ok());
  PoolUpdateEvent event;
  event.pool = id;
  event.reserve0 = r0;
  event.reserve1 = r1;
  event.sequence = sequence;
  return event;
}

/// Asserts the incremental scanner's ranked set is element-for-element
/// bit-identical to a from-scratch scan_market: same cycles in the same
/// order with exactly equal profits.
void expect_identical(const std::vector<core::Opportunity>& full,
                      const std::vector<core::Opportunity>& incremental) {
  ASSERT_EQ(full.size(), incremental.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].cycle.rotation_key(), incremental[i].cycle.rotation_key())
        << "rank " << i;
    // EXPECT_EQ on doubles is exact: both sides must run the same
    // arithmetic on the same reserves.
    EXPECT_EQ(full[i].net_profit_usd, incremental[i].net_profit_usd);
    EXPECT_EQ(full[i].outcome.monetized_usd,
              incremental[i].outcome.monetized_usd);
    EXPECT_EQ(full[i].outcome.input, incremental[i].outcome.input);
    EXPECT_EQ(full[i].outcome.output, incremental[i].outcome.output);
    EXPECT_EQ(full[i].plan.steps.size(), incremental[i].plan.steps.size());
    EXPECT_EQ(full[i].diagnostics.price_product,
              incremental[i].diagnostics.price_product);
  }
}

/// How run_differential drives the scanner besides the random batches.
struct DifferentialOptions {
  WorkerPool* workers = nullptr;
  std::size_t shards = 1;
  /// Observe only after every n-th batch (n redrawn in 1..4 after each
  /// observation), so several epochs' dirt accumulates before a ranking.
  bool sparse_observation = false;
  /// Between batches, quarantine a random pool or release a quarantined
  /// one (its resync event rides in the next batch); the reference is
  /// scan_market with the quarantined pools' loops filtered out.
  bool quarantine = false;
};

/// Runs `total_events` random updates in random-sized batches against
/// both scanners and compares at every observation, through collect_into
/// into one reused vector.
void run_differential(const market::MarketSnapshot& snapshot,
                      const core::ScannerConfig& config,
                      std::size_t total_events, std::uint64_t seed,
                      const DifferentialOptions& options = {}) {
  auto scanner = IncrementalScanner::create(snapshot, config, options.workers,
                                            options.shards)
                     .value();
  market::MarketSnapshot reference = snapshot;

  // Initial state must already agree.
  expect_identical(
      core::scan_market(reference.graph, reference.prices, config).value(),
      scanner.collect());

  Rng rng(seed);
  std::uint64_t sequence = 0;
  std::size_t emitted = 0;
  std::vector<char> quarantined(reference.graph.pool_count(), 0);
  std::vector<PoolUpdateEvent> resyncs;
  std::vector<core::Opportunity> observed;
  const auto draw_gap = [&] {
    return options.sparse_observation
               ? static_cast<std::size_t>(rng.uniform_int(1, 4))
               : std::size_t{1};
  };
  std::size_t until_observation = draw_gap();
  while (emitted < total_events) {
    if (options.quarantine && rng.uniform_int(0, 2) == 0) {
      const PoolId pool{static_cast<PoolId::underlying_type>(rng.uniform_int(
          0, static_cast<std::int64_t>(quarantined.size()) - 1))};
      char& flag = quarantined[pool.value()];
      flag = flag != 0 ? 0 : 1;
      scanner.set_quarantined(pool, flag != 0);
      if (flag == 0) {
        // Release: the resync event re-prices the pool's loops.
        const auto& state = reference.graph.pool(pool);
        resyncs.push_back(
            {pool, state.reserve0(), state.reserve1(), sequence++});
      }
    }
    const std::size_t batch_size = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 8)),
        total_events - emitted);
    std::vector<PoolUpdateEvent> batch;
    batch.reserve(batch_size + resyncs.size());
    batch.insert(batch.end(), resyncs.begin(), resyncs.end());
    resyncs.clear();
    for (std::size_t i = 0; i < batch_size; ++i) {
      batch.push_back(random_event(reference.graph, rng, 0.02, sequence++));
    }
    emitted += batch_size;

    const ApplyReport report = scanner.apply(batch).value();
    EXPECT_EQ(report.events, batch.size());
    EXPECT_LE(report.unique_pools, batch.size());

    if (--until_observation != 0 && emitted < total_events) continue;
    until_observation = draw_gap();
    auto expected =
        core::scan_market(reference.graph, reference.prices, config).value();
    std::erase_if(expected, [&quarantined](const core::Opportunity& op) {
      return std::any_of(op.cycle.pools().begin(), op.cycle.pools().end(),
                         [&quarantined](PoolId pool) {
                           return quarantined[pool.value()] != 0;
                         });
    });
    scanner.collect_into(observed);
    expect_identical(expected, observed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged after " << emitted << " events";
    }
  }
}

market::MarketSnapshot test_snapshot() {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  return market::generate_snapshot(gen);
}

TEST(IncrementalScannerTest, DifferentialThousandEventsMaxMax) {
  core::ScannerConfig config;
  config.loop_lengths = {3};
  run_differential(test_snapshot(), config, 1000, /*seed=*/11);
}

TEST(IncrementalScannerTest, DifferentialMultiLengthWithGasAndThreshold) {
  core::ScannerConfig config;
  config.loop_lengths = {2, 3};
  config.gas = core::GasModel{};
  config.min_net_profit_usd = 1.0;
  run_differential(test_snapshot(), config, 300, /*seed=*/12);
}

TEST(IncrementalScannerTest, DifferentialConvexStrategy) {
  core::ScannerConfig config;
  config.loop_lengths = {3};
  config.strategy = core::StrategyKind::kConvexOptimization;
  run_differential(test_snapshot(), config, 60, /*seed=*/13);
}

TEST(IncrementalScannerTest, DifferentialWithWorkerPool) {
  WorkerPool workers(
      WorkerPool::Config{.threads = 3, .queue_capacity = 1024});
  core::ScannerConfig config;
  config.loop_lengths = {3};
  run_differential(test_snapshot(), config, 300, /*seed=*/14,
                   {.workers = &workers});
}

// Several epochs between two observations: a cycle repriced in more than
// one of them must be merged into the kept order exactly once, with its
// latest slot.
TEST(IncrementalScannerTest, DifferentialSparseObservation) {
  core::ScannerConfig config;
  config.loop_lengths = {2, 3};
  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    run_differential(test_snapshot(), config, 600, /*seed=*/15,
                     {.shards = shards, .sparse_observation = true});
  }
}

// Quarantine entries and releases between observations: a cycle dirtied
// and then emptied by quarantine before the next ranking must leave the
// kept order, and a released one must come back with its resync.
TEST(IncrementalScannerTest, DifferentialQuarantineSchedule) {
  core::ScannerConfig config;
  config.loop_lengths = {3};
  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    run_differential(test_snapshot(), config, 600, /*seed=*/16,
                     {.shards = shards,
                      .sparse_observation = true,
                      .quarantine = true});
  }
}

TEST(IncrementalScannerTest, CoalescesDuplicatePoolsInBatch) {
  const Section5Market m;
  market::MarketSnapshot snapshot;
  snapshot.graph = m.graph;
  snapshot.prices = m.prices;
  core::ScannerConfig config;
  config.loop_lengths = {3};
  auto scanner = IncrementalScanner::create(snapshot, config, nullptr).value();

  // Three updates, two to the same pool: only the last one per pool may
  // count, and the intermediate (absurd) state must never be observed.
  std::vector<PoolUpdateEvent> batch;
  batch.push_back({m.xy, 1.0, 1e9, 0});  // superseded
  batch.push_back({m.yz, 310.0, 205.0, 1});
  batch.push_back({m.xy, 105.0, 195.0, 2});
  const ApplyReport report = scanner.apply(batch).value();
  EXPECT_EQ(report.events, 3u);
  EXPECT_EQ(report.unique_pools, 2u);
  EXPECT_GT(report.repriced, 0u);

  market::MarketSnapshot reference = snapshot;
  ASSERT_TRUE(reference.graph.set_pool_reserves(m.yz, 310.0, 205.0).ok());
  ASSERT_TRUE(reference.graph.set_pool_reserves(m.xy, 105.0, 195.0).ok());
  expect_identical(
      core::scan_market(reference.graph, reference.prices, config).value(),
      scanner.collect());
}

TEST(IncrementalScannerTest, UntouchedPoolsAreNotRepriced) {
  const Section5Market m;
  market::MarketSnapshot snapshot;
  snapshot.graph = m.graph;
  snapshot.prices = m.prices;
  core::ScannerConfig config;
  config.loop_lengths = {3};
  auto scanner = IncrementalScanner::create(snapshot, config, nullptr).value();

  // The triangle has 2 universe cycles, both through every pool; a
  // single-pool update dirties exactly those 2.
  std::vector<PoolUpdateEvent> batch;
  batch.push_back({m.xy, 101.0, 199.0, 0});
  const ApplyReport report = scanner.apply(batch).value();
  EXPECT_EQ(report.repriced, 2u);
}

/// Drives the staged epoch API at pipeline depth 2 — begin_epoch(N+1)
/// while epoch N's reprice is still in flight — against the serial
/// apply() on a twin scanner, with identical random batches. The ranked
/// sets must stay bit-identical after every harvest: the frozen-front /
/// back-buffer protocol may never leak a half-written epoch into a lane.
TEST(IncrementalScannerTest, StagedPipelineMatchesSerialApply) {
  const market::MarketSnapshot snapshot = test_snapshot();
  core::ScannerConfig config;
  config.loop_lengths = {3};
  config.strategy = core::StrategyKind::kConvexOptimization;
  config.convex_warm_start = true;
  WorkerPool workers(WorkerPool::Config{.threads = 2, .queue_capacity = 1024});

  auto serial = IncrementalScanner::create(snapshot, config, nullptr).value();
  auto staged =
      IncrementalScanner::create(snapshot, config, &workers, 4).value();

  Rng rng(21);
  market::MarketSnapshot reference = snapshot;
  std::uint64_t sequence = 0;
  std::vector<std::vector<PoolUpdateEvent>> batches;
  for (int b = 0; b < 40; ++b) {
    std::vector<PoolUpdateEvent> batch;
    const auto batch_size = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t i = 0; i < batch_size; ++i) {
      batch.push_back(random_event(reference.graph, rng, 0.02, sequence++));
    }
    batches.push_back(std::move(batch));
  }

  bool inflight = false;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    // Stage batch b while batch b-1's lanes are (potentially) running.
    ASSERT_TRUE(staged.begin_epoch(batches[b]).ok());
    if (inflight) {
      ASSERT_TRUE(staged.wait_reprice().ok());
      // Barrier crossed for b-1: both engines agree on its epoch.
      ASSERT_TRUE(serial.apply(batches[b - 1]).ok());
      expect_identical(serial.collect(), staged.collect());
    }
    staged.commit_epoch();
    staged.launch_reprice();
    EXPECT_TRUE(staged.reprice_in_flight());
    inflight = true;
  }
  ASSERT_TRUE(staged.wait_reprice().ok());
  ASSERT_TRUE(serial.apply(batches.back()).ok());
  expect_identical(serial.collect(), staged.collect());
}

TEST(IncrementalScannerTest, BeginEpochFailureRollsBackWholeBatch) {
  const Section5Market m;
  market::MarketSnapshot snapshot;
  snapshot.graph = m.graph;
  snapshot.prices = m.prices;
  core::ScannerConfig config;
  config.loop_lengths = {3};
  auto scanner = IncrementalScanner::create(snapshot, config, nullptr).value();
  const auto before = scanner.collect();

  // First event valid, second not: nothing of the batch may survive —
  // neither in the market buffers nor as dirty state.
  std::vector<PoolUpdateEvent> batch;
  batch.push_back({m.xy, 123.0, 456.0, 0});
  batch.push_back({m.yz, -5.0, 5.0, 1});
  EXPECT_FALSE(scanner.begin_epoch(batch).ok());
  EXPECT_EQ(scanner.snapshot().graph.pool(m.xy).reserve0(),
            snapshot.graph.pool(m.xy).reserve0());

  // The scanner keeps working: an empty apply leaves the ranked set
  // exactly as it was.
  const ApplyReport report =
      scanner.apply(std::vector<PoolUpdateEvent>{}).value();
  EXPECT_EQ(report.repriced, 0u);
  expect_identical(before, scanner.collect());
}

TEST(IncrementalScannerTest, RejectsBadEvents) {
  const Section5Market m;
  market::MarketSnapshot snapshot;
  snapshot.graph = m.graph;
  snapshot.prices = m.prices;
  core::ScannerConfig config;
  config.loop_lengths = {3};
  auto scanner = IncrementalScanner::create(snapshot, config, nullptr).value();

  std::vector<PoolUpdateEvent> unknown;
  unknown.push_back({PoolId{99}, 1.0, 1.0, 0});
  EXPECT_FALSE(scanner.apply(unknown).ok());

  std::vector<PoolUpdateEvent> negative;
  negative.push_back({m.xy, -1.0, 5.0, 0});
  EXPECT_FALSE(scanner.apply(negative).ok());
}

TEST(IncrementalScannerTest, CreateValidatesConfig) {
  const auto snapshot = test_snapshot();
  core::ScannerConfig empty;
  empty.loop_lengths = {};
  EXPECT_FALSE(IncrementalScanner::create(snapshot, empty).ok());
  core::ScannerConfig bad;
  bad.loop_lengths = {1};
  EXPECT_FALSE(IncrementalScanner::create(snapshot, bad).ok());
}

}  // namespace
}  // namespace arb::runtime
