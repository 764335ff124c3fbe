// The repository benchmark's measuring program. One invocation runs one
// workload for a fixed time and prints, as its last line, a JSON object
// with the end-to-end metrics (--trace 0) or the per-layer split
// (--trace 1). Every run ends with the correctness gate (gate.hpp); a
// mismatch makes the run exit 1.
//
//   arbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file.json>]
//   arbbench --self-test --seed <n>
//   arbbench --size-sweep --seed <n>
//
// The system is driven only through public calls of runtime/service,
// runtime/routing_service, runtime/incremental_scanner,
// runtime/validation and core/router.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "gate.hpp"
#include "runtime/incremental_scanner.hpp"
#include "runtime/routing_service.hpp"
#include "runtime/service.hpp"
#include "runtime/validation.hpp"
#include "runtime/worker_pool.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace arb;

// Share of --seconds spent on blocks. Scanner workloads spend the rest on
// route queries against the settled market, in kRounds alternating
// rounds; their traced run splits the block share between the service
// and the serial replay.
constexpr double kBlockShare = 0.7;
constexpr double kWarmupShare = 0.05;  // untimed, at the start
constexpr int kRounds = 10;
// Service starts per run (setup_s): the service's own start, then after
// each of the kRounds rounds spare starts, at least one and more until
// kSetupSeconds / kRounds have passed. Spread over the run, the median
// follows the host's speed over the run, as the other metrics do, not
// over one second of it.
constexpr double kSetupSeconds = 1.0;
// IncrementalScanner::create calls per traced run (median reported).
constexpr std::size_t kCreateReps = 3;
constexpr std::size_t kQueryCount = 4096;
// Live routes are checked against the best single path once the
// publisher has stopped, on this many queries.
constexpr std::size_t kSettledRouteChecks = 64;
// Traced self times must account for all but this share of the traced
// end-to-end time.
constexpr double kMaxUnattributed = 0.05;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool self_test = false;
  bool size_sweep = false;
};

/// arb::percentile, 0 for an empty sample.
double quantile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : arb::percentile(v, q);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/// Operations attempted and failed, for op_fail_frac: refused publishes,
/// validator rejects, non-ok routes and a non-ok service status.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One run's outcome: metrics by name and the first gate failure.
struct Report {
  std::map<std::string, std::pair<double, const char*>> metrics;
  GateError gate;
  Ops ops;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void fail(const GateError& error) {
    if (gate.empty() && !error.empty()) gate = error;
  }
};

struct BlockRun {
  std::vector<double> latency_us;
  std::vector<double> late_us;  ///< open loop: publish time minus due time
  std::uint64_t events = 0;
  /// Every block the service received, warm-up included (traced run).
  std::vector<Block> recorded;
  std::size_t warmup_blocks = 0;
};

struct RouteRun {
  std::vector<double> latency_us;
  /// Routes off their budget (spends_budget): the router's path split,
  /// not a failed operation — the query was answered.
  std::uint64_t unbalanced = 0;
  std::vector<double> lock_wait_us;
  std::uint64_t paths = 0;
  std::uint64_t flow = 0;
  std::uint64_t flow_iterations = 0;
};

using ServicePtr = std::unique_ptr<runtime::ScannerService>;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "arbbench: %s\n", message.c_str());
  std::exit(2);
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// One timed ScannerService::start.
ServicePtr timed_start(const market::MarketSnapshot& market,
                       const WorkloadSpec& w, std::vector<double>& setup_s) {
  const auto t0 = Clock::now();
  auto started = runtime::ScannerService::start(market, service_config(w));
  const auto t1 = Clock::now();
  if (!started) die("service start failed: " + started.error().to_string());
  setup_s.push_back(std::chrono::duration<double>(t1 - t0).count());
  return std::move(started).value();
}

/// Spare starts between rounds, each stopped before the next.
void setup_window(const market::MarketSnapshot& market, const WorkloadSpec& w,
                  std::vector<double>& setup_s) {
  const auto until = after(Clock::now(), kSetupSeconds / kRounds);
  do {
    timed_start(market, w, setup_s);
  } while (Clock::now() < until);
}

void publish_block(runtime::ScannerService& service, const Block& block,
                   Ops& ops) {
  for (const runtime::PoolUpdateEvent& event : block) {
    ++ops.attempted;
    if (!service.publish(event)) ++ops.failed;
  }
}

/// Closed loop: publish a block, wait for the service to settle, read
/// the ranked set; repeat until the deadline. Blocks before
/// `measure_from` warm up and are not timed.
void closed_loop(runtime::ScannerService& service, BlockSource& source,
                 Clock::time_point measure_from, Clock::time_point deadline,
                 bool record, BlockRun& run, Ops& ops,
                 std::vector<core::Opportunity>& ranked) {
  Block block;
  while (Clock::now() < deadline) {
    source.next(block);
    const auto t0 = Clock::now();
    publish_block(service, block, ops);
    service.drain();
    service.opportunities_into(ranked);
    const auto t1 = Clock::now();
    if (record) run.recorded.push_back(block);
    if (t0 < measure_from) {
      ++run.warmup_blocks;
      continue;
    }
    run.latency_us.push_back(micros(t1 - t0));
    run.events += block.size();
  }
}

/// Open loop: one block per period, each timed from its due time to its
/// ranked set. A block whose predecessor ran over is published late, and
/// the wait counts in its latency.
void open_loop(runtime::ScannerService& service, BlockSource& source,
               std::chrono::microseconds period, Clock::time_point start,
               Clock::time_point measure_from, Clock::time_point deadline,
               bool record, BlockRun& run, Ops& ops) {
  Block block;
  std::vector<core::Opportunity> ranked;
  Clock::time_point due = start;
  while (due < deadline && Clock::now() < deadline) {
    source.next(block);
    std::this_thread::sleep_until(due);
    const auto t0 = Clock::now();
    publish_block(service, block, ops);
    service.drain();
    service.opportunities_into(ranked);
    const auto t1 = Clock::now();
    if (record) run.recorded.push_back(block);
    if (due < measure_from) {
      ++run.warmup_blocks;
    } else {
      run.latency_us.push_back(micros(t1 - due));
      run.late_us.push_back(micros(t0 - due));
      run.events += block.size();
    }
    due += period;
  }
}

/// Untraced query: the public RoutingService call, timed end to end.
/// Returns the route, or nullopt (counted as failed) on a non-ok answer.
std::optional<core::RouteResult> routed_query(runtime::RoutingService& routing,
                                              const core::RouteQuery& query,
                                              RouteRun* run, Ops& ops) {
  ++ops.attempted;
  const auto t0 = Clock::now();
  auto result = routing.best_execution(query);
  const auto t1 = Clock::now();
  if (!result) {
    ++ops.failed;
    return std::nullopt;
  }
  if (run != nullptr) {
    run->latency_us.push_back(micros(t1 - t0));
    if (!spends_budget(query, *result)) ++run->unbalanced;
  }
  return std::move(result).value();
}

/// Traced query: the RoutingService read path spelled out — the scanner
/// lock via ScannerService::with_snapshot, then core::route — with the
/// lock wait and a standalone enumerate_paths timed as spans. The route
/// is checked against the best single path on the snapshot it used.
void traced_query(runtime::ScannerService& service, core::RouterContext& ctx,
                  const core::RouteQuery& query, std::uint64_t id,
                  Tracer& tracer, RouteRun* run, Ops& ops, Report& report) {
  ++ops.attempted;
  const std::uint32_t root = tracer.open("query", id);
  const auto t_call = Clock::now();
  service.with_snapshot([&](const market::MarketSnapshot& snapshot) {
    const auto t_enter = Clock::now();
    tracer.record("route.lock_wait", id, root, t_call, t_enter);
    const std::uint32_t enumerate = tracer.open("route.enumerate", id, root);
    const auto paths = core::enumerate_paths(
        snapshot.graph, query.token_in, query.token_out, query.max_hops,
        query.max_paths);
    if (paths.empty()) report.fail("query has no candidate path");
    tracer.close(enumerate);
    const std::uint32_t solve = tracer.open("route.route", id, root);
    auto result = core::route(snapshot.graph, query, ctx);
    tracer.close(solve);
    tracer.close(root);
    if (!result) {
      ++ops.failed;
      return;
    }
    report.fail(check_route_on(snapshot.graph, query, *result));
    if (run == nullptr) return;
    if (!spends_budget(query, *result)) ++run->unbalanced;
    run->lock_wait_us.push_back(micros(t_enter - t_call));
    run->paths += result->paths.size();
    if (result->method == core::RouteMethod::kFlowSolve) {
      ++run->flow;
      run->flow_iterations += static_cast<std::uint64_t>(result->iterations);
    }
  });
}

/// Closed-loop route queries (1 client, pausing `think` after each
/// reply) until the deadline. The query sequence cycles through the
/// seeded list; `next` carries the position across calls.
template <typename QueryFn>
void query_loop(const std::vector<core::RouteQuery>& queries, std::size_t& next,
                std::chrono::microseconds think, Clock::time_point measure_from,
                Clock::time_point deadline, QueryFn&& query_fn) {
  while (Clock::now() < deadline) {
    const bool measured = Clock::now() >= measure_from;
    query_fn(queries[next % queries.size()], next, measured);
    ++next;
    if (think.count() > 0) std::this_thread::sleep_for(think);
  }
}

/// Ranked set of a settled service against core::scan_market on the
/// service's own committed market.
GateError check_service_ranked(runtime::ScannerService& service,
                               const WorkloadSpec& w) {
  market::MarketSnapshot committed = service.with_snapshot(
      [](const market::MarketSnapshot& s) { return s; });
  std::vector<core::Opportunity> ranked;
  service.opportunities_into(ranked);
  return check_ranked(ranked, committed, scanner_config(w));
}

void account_service(runtime::ScannerService& service, Ops& ops) {
  ops.failed += service.metrics().events_rejected_total();
  ++ops.attempted;
  if (!service.status().ok()) ++ops.failed;
}

/// One round of route-live: the open-loop publisher on its own thread and
/// `query_fn(query, index, measured)` running the live queries beside it.
template <typename QueryFn>
void live_round(runtime::ScannerService& service, const WorkloadSpec& w,
                BlockSource& source, Clock::time_point measure_from,
                double seconds, bool record, BlockRun& blocks, Ops& ops,
                const std::vector<core::RouteQuery>& queries,
                std::size_t& next_query, QueryFn&& query_fn) {
  const auto start = Clock::now();
  const auto deadline = after(start, seconds);
  Ops publisher_ops;
  std::exception_ptr publisher_error;
  std::thread publisher([&] {
    try {
      open_loop(service, source, w.block_period, start, measure_from,
                deadline, record, blocks, publisher_ops);
    } catch (...) {
      publisher_error = std::current_exception();
    }
  });
  try {
    query_loop(queries, next_query, w.query_think, measure_from, deadline,
               query_fn);
  } catch (...) {
    publisher.join();
    throw;
  }
  publisher.join();
  if (publisher_error) std::rethrow_exception(publisher_error);
  ops.attempted += publisher_ops.attempted;
  ops.failed += publisher_ops.failed;
}

/// The timed part of a run, in kRounds rounds so that every metric
/// samples the whole run: the host's speed drifts over seconds. A scanner
/// workload's round is closed-loop blocks, then queries on the settled
/// market; a route-live round is the open-loop publisher with the live
/// queries beside it. `between_rounds()` runs after each round, with the
/// service idle. The first kWarmupShare of the time is untimed.
template <typename QueryFn, typename BetweenRounds>
void measure(runtime::ScannerService& service, const WorkloadSpec& w,
             const market::MarketSnapshot& market, std::uint64_t seed,
             double block_seconds, double route_seconds, bool record,
             BlockRun& blocks, Ops& ops,
             const std::vector<core::RouteQuery>& queries, QueryFn&& query_fn,
             BetweenRounds&& between_rounds) {
  BlockSource source(market, w, seed);
  const auto measure_from =
      after(Clock::now(), (block_seconds + route_seconds) * kWarmupShare);
  std::size_t next_query = 0;
  std::vector<core::Opportunity> ranked;
  for (int round = 0; round < kRounds; ++round) {
    if (w.live()) {
      live_round(service, w, source, measure_from, block_seconds / kRounds,
                 record, blocks, ops, queries, next_query, query_fn);
      service.drain();
    } else {
      closed_loop(service, source, measure_from,
                  after(Clock::now(), block_seconds / kRounds), record, blocks,
                  ops, ranked);
      query_loop(queries, next_query, std::chrono::microseconds{0},
                 measure_from, after(Clock::now(), route_seconds / kRounds),
                 query_fn);
    }
    between_rounds();
  }
}

// ---------------------------------------------------------------- untraced

Report run_untraced(const WorkloadSpec& w, const Options& opt) {
  Report report;
  const market::MarketSnapshot market = make_market(w);
  const auto queries = make_queries(market, opt.seed, kQueryCount);

  std::vector<double> setup_s;
  ServicePtr service = timed_start(market, w, setup_s);
  runtime::RoutingService routing(*service);

  const double block_seconds =
      w.live() ? opt.seconds : opt.seconds * kBlockShare;
  const double route_seconds = opt.seconds - block_seconds;
  BlockRun blocks;
  RouteRun routes;
  // Live routes are checked once the market settles (kSettledRouteChecks);
  // settled ones are checked on the spot.
  const auto query = [&](const core::RouteQuery& q, std::size_t,
                         bool measured) {
    auto result =
        routed_query(routing, q, measured ? &routes : nullptr, report.ops);
    if (!result) return;
    if (w.live()) {
      report.fail(check_route(*result));
      return;
    }
    report.fail(service->with_snapshot([&](const market::MarketSnapshot& s) {
      return check_route_on(s.graph, q, *result);
    }));
  };
  measure(*service, w, market, opt.seed, block_seconds, route_seconds, false,
          blocks, report.ops, queries, query,
          [&] { setup_window(market, w, setup_s); });
  service->drain();
  if (w.live()) {
    for (std::size_t i = 0; i < kSettledRouteChecks; ++i) {
      auto result = routed_query(routing, queries[i], nullptr, report.ops);
      if (!result) continue;
      report.fail(service->with_snapshot([&](const market::MarketSnapshot& s) {
        return check_route_on(s.graph, queries[i], *result);
      }));
    }
  }
  report.fail(check_service_ranked(*service, w));
  account_service(*service, report.ops);
  service.reset();

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.set("setup_s", quantile(setup_s, 0.5), "s");
  report.set("block_p50_us", quantile(blocks.latency_us, 0.50), "us");
  // Tails are reported at p90: on a shared host a vCPU preempted for a few
  // milliseconds lands in about 1% of the multi-threaded blocks, and block
  // p99 moved by up to 2.5x between runs of the same code; route p99 rests
  // on ~16 samples a run. Both p99s go to the log line.
  report.set("block_p90_us", quantile(blocks.latency_us, 0.90), "us");
  // Per second of block-to-ranked-set time: the closed loop's throughput,
  // and on the open loop the rate the service works at while a block is
  // outstanding (its wall-clock rate is the fixed offered rate).
  report.set("events_per_s",
             static_cast<double>(blocks.events) /
                 (sum(blocks.latency_us) * 1e-6),
             "1/s");
  report.set("route_p50_us", quantile(routes.latency_us, 0.50), "us");
  report.set("route_p90_us", quantile(routes.latency_us, 0.90), "us");
  report.set("routes_per_s",
             static_cast<double>(routes.latency_us.size()) /
                 (sum(routes.latency_us) * 1e-6),
             "1/s");
  report.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");
  std::printf("# %s seed=%llu: %zu blocks (p99 %.0f us), %zu routes (p99 "
              "%.0f us, off budget %.3f), op_fail_frac=%g, publisher late "
              "p99 %.0f us\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(opt.seed),
              blocks.latency_us.size(), quantile(blocks.latency_us, 0.99),
              routes.latency_us.size(), quantile(routes.latency_us, 0.99),
              static_cast<double>(routes.unbalanced) /
                  std::max<double>(1.0, static_cast<double>(
                                            routes.latency_us.size())),
              static_cast<double>(report.ops.failed) /
                  static_cast<double>(report.ops.attempted),
              quantile(blocks.late_us, 0.99));
  return report;
}

// ------------------------------------------------------------------ traced

/// Sums of the per-epoch scanner reports over the traced blocks.
struct ScannerTotals {
  std::size_t blocks = 0;
  std::uint64_t events = 0;
  std::uint64_t rejects = 0;
  std::uint64_t repriced = 0;
  std::uint64_t repriced_mixed = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  std::uint64_t warm_invalidations = 0;
  std::uint64_t solver_iterations = 0;
  std::uint64_t mixed_generic = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t ranked = 0;
};

/// One block through the scanner's stages, serially, each stage a span
/// under the block's root span.
void serial_block(runtime::IncrementalScanner& scanner,
                  runtime::EventValidator& validator, const Block& block,
                  std::uint64_t id, Tracer& tracer, Block& accepted,
                  std::vector<core::Opportunity>& ranked, ScannerTotals& sums) {
  struct Transition {
    PoolId pool;
    bool entered;
  };
  std::vector<Transition> transitions;
  const std::uint32_t root = tracer.open("block", id);

  std::uint32_t span = tracer.open("validate", id, root);
  accepted.clear();
  for (const runtime::PoolUpdateEvent& event : block) {
    const runtime::EventVerdict verdict = validator.check(event);
    if (verdict.entered_quarantine) transitions.push_back({event.pool, true});
    if (verdict.released_quarantine) transitions.push_back({event.pool, false});
    if (verdict.accepted) {
      accepted.push_back(event);
    } else {
      ++sums.rejects;
    }
  }
  tracer.close(span);

  span = tracer.open("epoch.write", id, root);
  const Status written = scanner.begin_epoch(accepted);
  tracer.close(span);
  if (!written.ok()) die("begin_epoch failed: " + written.error().to_string());

  span = tracer.open("epoch.commit", id, root);
  for (const Transition& t : transitions) {
    scanner.set_quarantined(t.pool, t.entered);
  }
  scanner.commit_epoch();
  tracer.close(span);

  span = tracer.open("reprice", id, root);
  scanner.launch_reprice();
  auto applied = scanner.wait_reprice();
  tracer.close(span);
  if (!applied) die("reprice failed: " + applied.error().to_string());

  span = tracer.open("rank", id, root);
  scanner.collect_into(ranked);
  tracer.close(span);
  tracer.close(root);

  ++sums.blocks;
  sums.events += block.size();
  sums.repriced += applied->repriced;
  sums.repriced_mixed += applied->repriced_mixed;
  sums.warm_hits += applied->warm_hits;
  sums.warm_misses += applied->warm_misses;
  sums.warm_invalidations += applied->warm_invalidations;
  sums.solver_iterations += applied->solver_iterations;
  sums.mixed_generic += applied->repriced_mixed_generic;
  sums.fallbacks += applied->solver_fallbacks;
  sums.ranked += ranked.size();
}

/// Replays the service's blocks serially, one batch per block, through
/// a fresh scanner on the same initial market (warm-up blocks untraced).
void serial_replay(const market::MarketSnapshot& market, const WorkloadSpec& w,
                   const BlockRun& blocks, Tracer& tracer, Report& report) {
  runtime::WorkerPool workers(runtime::WorkerPool::Config{.threads = 2});
  std::vector<double> create_s;
  std::optional<runtime::IncrementalScanner> scanner;
  for (std::size_t i = 0; i < kCreateReps; ++i) {
    scanner.reset();
    const auto t0 = Clock::now();
    auto created =
        runtime::IncrementalScanner::create(market, scanner_config(w), &workers);
    const auto t1 = Clock::now();
    if (!created) die("scanner create failed: " + created.error().to_string());
    create_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    scanner.emplace(std::move(created).value());
  }
  runtime::EventValidator validator(market.graph);

  Tracer scratch;
  ScannerTotals sums;
  ScannerTotals warmup_sums;
  Block accepted;
  std::vector<core::Opportunity> ranked;
  for (std::size_t b = 0; b < blocks.recorded.size(); ++b) {
    const bool warm = b < blocks.warmup_blocks;
    serial_block(*scanner, validator, blocks.recorded[b], b,
                 warm ? scratch : tracer, accepted, ranked,
                 warm ? warmup_sums : sums);
  }
  report.fail(check_ranked(ranked, scanner->snapshot(), scanner_config(w)));

  const auto totals = tracer.totals();
  const auto per_block = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || sums.blocks == 0
               ? 0.0
               : it->second.self_us / static_cast<double>(sums.blocks);
  };
  const double n = std::max<double>(1.0, static_cast<double>(sums.blocks));
  const auto solves = static_cast<double>(sums.warm_hits + sums.warm_misses);
  report.set("setup.scanner_create_s", quantile(create_s, 0.5), "s");
  report.set("setup.cycles",
             static_cast<double>(scanner->index().cycles().size()), "count");
  report.set("validate.us", per_block("validate"), "us");
  report.set("validate.rejects", static_cast<double>(sums.rejects), "count");
  report.set("epoch.write_us", per_block("epoch.write"), "us");
  report.set("epoch.commit_us", per_block("epoch.commit"), "us");
  report.set("reprice.us", per_block("reprice"), "us");
  report.set("reprice.cycles", static_cast<double>(sums.repriced) / n, "count");
  report.set("reprice.us_per_cycle",
             sums.repriced == 0 ? 0.0
                                : per_block("reprice") * n /
                                      static_cast<double>(sums.repriced),
             "us");
  report.set("reprice.mixed_cycles",
             static_cast<double>(sums.repriced_mixed) / n, "count");
  report.set("solve.warm_hit_frac",
             solves == 0 ? 0.0 : static_cast<double>(sums.warm_hits) / solves,
             "ratio");
  report.set("solve.newton_iters",
             solves == 0 ? 0.0
                         : static_cast<double>(sums.solver_iterations) / solves,
             "iters");
  report.set("solve.warm_invalidations",
             static_cast<double>(sums.warm_invalidations), "count");
  report.set("solve.mixed_generic", static_cast<double>(sums.mixed_generic),
             "count");
  report.set("solve.fallbacks", static_cast<double>(sums.fallbacks), "count");
  report.set("rank.us", per_block("rank"), "us");
  report.set("rank.size", static_cast<double>(sums.ranked) / n, "count");
  report.ops.attempted += sums.events;
  report.ops.failed += sums.rejects;
}

Report run_traced(const WorkloadSpec& w, const Options& opt) {
  Report report;
  Tracer tracer;
  const market::MarketSnapshot market = make_market(w);
  const auto queries = make_queries(market, opt.seed, kQueryCount);

  auto started = runtime::ScannerService::start(market, service_config(w));
  if (!started) die("service start failed: " + started.error().to_string());
  ServicePtr service = std::move(started).value();
  core::RouterContext ctx;

  // Service phase: the blocks as the untraced run sends them, recorded for
  // the serial replay, which takes about as long again; queries traced.
  const double block_seconds = w.live()
                                   ? opt.seconds * kBlockShare
                                   : opt.seconds * kBlockShare / 2.0;
  const double route_seconds =
      w.live() ? 0.0 : opt.seconds * (1.0 - kBlockShare);
  BlockRun blocks;
  RouteRun routes;
  Tracer warmup_tracer;
  const auto run_query = [&](const core::RouteQuery& q, std::size_t i,
                         bool measured) {
    traced_query(*service, ctx, q, i, measured ? tracer : warmup_tracer,
                 measured ? &routes : nullptr, report.ops, report);
  };
  const runtime::MetricsSnapshot before = service->metrics();
  measure(*service, w, market, opt.seed, block_seconds, route_seconds, true,
          blocks, report.ops, queries, run_query, [] {});
  service->drain();
  const runtime::MetricsSnapshot after_blocks = service->metrics();
  report.fail(check_service_ranked(*service, w));
  account_service(*service, report.ops);
  service.reset();

  serial_replay(market, w, blocks, tracer, report);

  const auto totals = tracer.totals();
  const auto total_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  const Tracer::Totals block = total_of("block");
  const Tracer::Totals query = total_of("query");
  const double traced_block_us =
      block.count == 0 ? 0.0 : block.total_us / static_cast<double>(block.count);
  const double nq = std::max<double>(1.0, static_cast<double>(query.count));
  const double enumerate_us = total_of("route.enumerate").total_us / nq;

  // Ingress counters cover every block the service received, warm-up
  // included.
  const auto ingested = static_cast<double>(after_blocks.events_ingested -
                                            before.events_ingested);
  report.set("ingress.batches_per_block",
             static_cast<double>(after_blocks.batches - before.batches) /
                 static_cast<double>(blocks.recorded.size()),
             "count");
  report.set("ingress.coalesced_frac",
             static_cast<double>(after_blocks.events_coalesced -
                                 before.events_coalesced) /
                 ingested,
             "ratio");
  report.set("ingress.overhead_us", mean(blocks.latency_us) - traced_block_us,
             "us");
  report.set("route.enumerate_us", enumerate_us, "us");
  report.set("route.solve_us", total_of("route.route").total_us / nq - enumerate_us,
             "us");
  report.set("route.paths", static_cast<double>(routes.paths) / nq, "count");
  report.set("route.unbalanced_frac", static_cast<double>(routes.unbalanced) / nq,
             "ratio");
  report.set("route.flow_frac", static_cast<double>(routes.flow) / nq, "ratio");
  report.set("route.flow_iters",
             routes.flow == 0 ? 0.0
                              : static_cast<double>(routes.flow_iterations) /
                                    static_cast<double>(routes.flow),
             "iters");
  report.set("route.lock_wait_p50_us", quantile(routes.lock_wait_us, 0.50), "us");
  report.set("route.lock_wait_p99_us", quantile(routes.lock_wait_us, 0.99), "us");
  report.set("trace.block_us", traced_block_us, "us");
  report.set("trace.query_us", query.total_us / nq, "us");
  const double block_residual =
      block.total_us == 0.0 ? 0.0 : block.self_us / block.total_us;
  const double query_residual =
      query.total_us == 0.0 ? 0.0 : query.self_us / query.total_us;
  report.set("trace.unattributed_frac", std::max(block_residual, query_residual),
             "ratio");
  if (block_residual > kMaxUnattributed || query_residual > kMaxUnattributed) {
    report.fail("layer self times leave " +
                std::to_string(std::max(block_residual, query_residual)) +
                " of the traced time unattributed");
  }

  if (!opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out)) {
    die("cannot write " + opt.trace_out);
  }
  std::printf("# %s seed=%llu traced: %zu blocks, %zu queries\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(opt.seed), block.count,
              query.count);
  return report;
}

// --------------------------------------------------------------- self-test

int self_test(std::uint64_t seed) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const auto first_blocks = [](const market::MarketSnapshot& m,
                               const WorkloadSpec& w, std::uint64_t s) {
    BlockSource source(m, w, s);
    std::vector<Block> out(20);
    for (Block& b : out) source.next(b);
    return out;
  };

  for (const WorkloadSpec& w : workloads()) {
    const std::string name(w.name);
    const auto m1 = make_market(w);
    const auto m2 = make_market(w);
    expect(digest(m1) == digest(m2), name + ": the market is fixed");
    expect(digest(first_blocks(m1, w, seed)) == digest(first_blocks(m2, w, seed)),
           name + ": same seed, same blocks");
    expect(digest(first_blocks(m1, w, seed)) !=
               digest(first_blocks(m1, w, seed + 1)),
           name + ": new seed, new blocks");
    expect(digest(make_queries(m1, seed, 32)) == digest(make_queries(m2, seed, 32)),
           name + ": same seed, same queries");
    expect(digest(make_queries(m1, seed, 32)) !=
               digest(make_queries(m1, seed + 1, 32)),
           name + ": new seed, new queries");
  }

  // The ranked-set gate accepts the reference itself and refuses every
  // perturbation of it.
  for (const WorkloadSpec& w : workloads()) {
    if (w.live()) continue;
    const std::string name(w.name);
    const auto market = make_market(w);
    const auto config = scanner_config(w);
    const auto reference =
        core::scan_market(market.graph, market.prices, config).value();
    expect(reference.size() >= 2, name + ": reference has entries");
    if (reference.size() < 2) continue;
    expect(check_ranked(reference, market, config).empty(),
           name + ": gate accepts the reference");
    const bool exact = w.strategy != core::StrategyKind::kConvexOptimization;
    auto nudged = reference;
    double& net = nudged[reference.size() / 2].net_profit_usd;
    net = exact ? std::nextafter(net, 1e300) : net * (1.0 + 1e-4);
    expect(!compare_ranked(nudged, reference, w.strategy).empty(),
           name + ": gate refuses a nudged profit");
    auto swapped = reference;
    std::swap(swapped.front(), swapped.back());
    expect(!compare_ranked(swapped, reference, w.strategy).empty(),
           name + ": gate refuses a reordered ranking");
    auto dropped = reference;
    dropped.erase(dropped.begin());
    expect(!compare_ranked(dropped, reference, w.strategy).empty(),
           name + ": gate refuses a missing entry");
    if (!exact) {
      auto within = reference;
      within[reference.size() / 2].net_profit_usd *= 1.0 + 1e-8;
      expect(compare_ranked(within, reference, w.strategy).empty(),
             name + ": gate accepts a profit within the warm==cold tolerance");
    }
    if (exact) {
      auto shifted = reference;
      shifted.front().outcome.input =
          std::nextafter(shifted.front().outcome.input, 0.0);
      expect(!compare_ranked(shifted, reference, w.strategy).empty(),
             name + ": gate refuses a perturbed trade size");
    }
  }

  // The route gate accepts a real route and refuses a perturbed one.
  {
    const WorkloadSpec& w = *find_workload("route-live");
    const auto market = make_market(w);
    const auto query = make_queries(market, seed, 1).front();
    const auto route = core::route(market.graph, query).value();
    expect(check_route_on(market.graph, query, route).empty(),
           "route: gate accepts a real route");
    auto balanced = route;
    for (core::RoutedPath& path : balanced.paths) path.input = 0.0;
    balanced.paths.front().input = query.amount_in;
    expect(spends_budget(query, balanced),
           "route: a route spending its budget is balanced");
    auto overspent = balanced;
    overspent.paths.front().input *= 1.001;
    expect(!spends_budget(query, overspent),
           "route: a route off its budget is flagged unbalanced");
    auto short_changed = route;
    short_changed.amount_out *= 0.5;
    expect(!check_route_on(market.graph, query, short_changed).empty(),
           "route: gate refuses a route below the best single path");
    auto broken = route;
    broken.amount_out = std::nan("");
    expect(!check_route(broken).empty(),
           "route: gate refuses a non-finite output");
  }
  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

// -------------------------------------------------------------- size sweep

/// How the router's cost and behaviour depend on the query size: the
/// same seeded token pairs on route-live's market, sized at fixed shares
/// of their depth across and beyond [kMinDepthShare, kMaxDepthShare].
/// Prints one row per share; not a measured run.
int size_sweep(std::uint64_t seed) {
  constexpr std::size_t kPairs = 128;
  constexpr double kShares[] = {1e-4, 5e-4, 2e-3, 1e-2, 5e-2, 2e-1};
  constexpr std::size_t kRows = std::size(kShares);
  struct Row {
    std::vector<double> usd, latency_us;
    std::size_t flow = 0, unbalanced = 0;
    double iterations = 0.0;
  };
  const WorkloadSpec& w = *find_workload("route-live");
  const auto market = make_market(w);
  const auto queries = make_queries(market, seed, kPairs);
  const auto usd = [&](const core::RouteQuery& q) {
    return q.amount_in * market.prices.price_unchecked(q.token_in);
  };
  std::vector<double> seeded_usd;
  for (const core::RouteQuery& q : queries) seeded_usd.push_back(usd(q));

  // Each pair is routed at every share in turn, so the host's speed
  // drift spreads evenly over the rows.
  core::RouterContext ctx;
  std::vector<Row> rows(kRows);
  int failures = 0;
  for (core::RouteQuery q : queries) {
    for (std::size_t r = 0; r < kRows; ++r) {
      size_query(market, kShares[r], q);
      const auto t0 = Clock::now();
      auto result = core::route(market.graph, q, ctx);
      const auto t1 = Clock::now();
      if (!result || !check_route_on(market.graph, q, *result).empty()) {
        ++failures;
        continue;
      }
      Row& row = rows[r];
      row.usd.push_back(usd(q));
      row.latency_us.push_back(micros(t1 - t0));
      if (!spends_budget(q, *result)) ++row.unbalanced;
      if (result->method == core::RouteMethod::kFlowSolve) {
        ++row.flow;
        row.iterations += result->iterations;
      }
    }
  }
  std::printf("seeded sizes: USD notional p10 %.0f, p50 %.0f, p90 %.0f\n",
              quantile(seeded_usd, 0.1), quantile(seeded_usd, 0.5),
              quantile(seeded_usd, 0.9));
  std::printf("%8s %10s %11s %11s %10s %11s %11s\n", "share", "USD p50",
              "route p50", "route p90", "flow frac", "flow iters",
              "unbalanced");
  const auto n = static_cast<double>(queries.size());
  for (std::size_t r = 0; r < kRows; ++r) {
    const Row& row = rows[r];
    std::printf("%8.4f %10.0f %11.0f %11.0f %10.2f %11.1f %11.2f\n",
                kShares[r], quantile(row.usd, 0.5),
                quantile(row.latency_us, 0.5), quantile(row.latency_us, 0.9),
                static_cast<double>(row.flow) / n,
                row.flow == 0 ? 0.0
                              : row.iterations / static_cast<double>(row.flow),
                static_cast<double>(row.unbalanced) / n);
  }
  std::printf("size sweep: %d route(s) failed or below the best single path\n",
              failures);
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- main

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + std::string(arg));
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else if (arg == "--size-sweep") {
      opt.size_sweep = true;
    } else {
      die("unknown argument " + std::string(arg));
    }
  }
  return opt;
}

void print_result(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.gate.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.ops.attempted),
              static_cast<unsigned long long>(report.ops.failed));
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.first, metric.second);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  if (opt.self_test) return self_test(opt.seed);
  if (opt.size_sweep) return size_sweep(opt.seed);
  const WorkloadSpec* w = find_workload(opt.workload);
  if (w == nullptr) die("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) die("--seconds must be positive");
  const Report report = opt.trace ? run_traced(*w, opt) : run_untraced(*w, opt);
  if (!report.gate.empty()) {
    std::fprintf(stderr, "arbbench: correctness gate failed: %s\n",
                 report.gate.c_str());
  }
  print_result(report);
  std::fflush(stdout);
  return report.gate.empty() ? 0 : 1;
}
