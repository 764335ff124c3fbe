#include "runtime/incremental_scanner.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace arb::runtime {

IncrementalScanner::IncrementalScanner(market::MarketSnapshot snapshot,
                                       core::ScannerConfig config,
                                       PoolCycleIndex index, ShardPlan plan,
                                       WorkerPool* workers)
    : market_(std::move(snapshot)),
      config_(std::move(config)),
      index_(std::move(index)),
      plan_(std::move(plan)),
      workers_(workers) {
  const graph::TokenGraph& graph = market_.front().graph;
  const market::MarketView& view = market_.front_view();
  pool_quarantined_.resize(graph.pool_count(), 0);
  coalesce_winner_.assign(graph.pool_count(), 0);
  ranked_.reserve(index_.cycles().size());
  merge_head_.resize(plan_.shard_count());
  shards_.resize(plan_.shard_count());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const std::vector<std::uint32_t>& universe = plan_.cycles_of(s);
    shard.slots.resize(universe.size());
    shard.warm.resize(universe.size());
    shard.mixed.resize(universe.size());
    shard.quarantine_count.assign(universe.size(), 0);
    shard.dirty_flag.assign(universe.size(), 0);
    shard.ranked.reserve(universe.size());
    shard.rank_scratch.reserve(universe.size());
    shard.rank_dirty.reserve(universe.size());
    shard.rank_dirty_flag.assign(universe.size(), 0);
    shard.rank_key.resize(universe.size());
    // Flattened gate tables: pool ids and price sides of every hop, in
    // cycle order, with prefix offsets. Immutable — pool/token topology
    // never changes after build.
    shard.gate_offset.resize(universe.size() + 1);
    shard.gate_offset[0] = 0;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const graph::Cycle& cycle = index_.cycles()[universe[i]];
      shard.rank_key[i] = index_.key_ordinals()[universe[i]];
      shard.mixed[i] = cycle.all_cpmm(graph) ? 0 : 1;
      const std::size_t hops = cycle.length();
      for (std::size_t k = 0; k < hops; ++k) {
        const PoolId pool = cycle.pools()[k];
        shard.gate_pool.push_back(pool.value());
        shard.gate_side.push_back(
            cycle.tokens()[k] == view.token0(pool) ? 0 : 1);
      }
      shard.gate_offset[i + 1] =
          static_cast<std::uint32_t>(shard.gate_pool.size());
    }
  }
}

Result<IncrementalScanner> IncrementalScanner::create(
    market::MarketSnapshot snapshot, core::ScannerConfig config,
    WorkerPool* workers, std::size_t shards) {
  auto index = PoolCycleIndex::build(snapshot.graph, config.loop_lengths);
  if (!index) return index.error();
  auto plan = ShardPlan::build(*index, shards);
  if (!plan) return plan.error();
  IncrementalScanner scanner(std::move(snapshot), std::move(config),
                             *std::move(index), *std::move(plan), workers);
  // Initial full pricing: every cycle is dirty, one synchronous round
  // (which also marks every cycle rank-dirty, so the first observation
  // builds the ranking through the ordinary merge path).
  for (Shard& shard : scanner.shards_) {
    shard.dirty.resize(shard.slots.size());
    std::iota(shard.dirty.begin(), shard.dirty.end(), 0u);
  }
  scanner.launch_reprice();
  // Stats of the initial full pricing are discarded.
  if (auto initial = scanner.wait_reprice(); !initial) {
    return initial.error();
  }
  return scanner;
}

Result<ApplyReport> IncrementalScanner::apply(
    const std::vector<PoolUpdateEvent>& batch) {
  if (Status staged = begin_epoch(batch); !staged.ok()) {
    return staged.error();
  }
  commit_epoch();
  launch_reprice();
  return wait_reprice();
}

Status IncrementalScanner::begin_epoch(
    const std::vector<PoolUpdateEvent>& batch) {
  ARB_REQUIRE(!staged_, "begin_epoch with an epoch already staged");
  staging_report_ = ApplyReport{};
  staging_report_.events = batch.size();

  // Last-wins coalescing: events carry absolute reserves, so applying
  // only each pool's final event is equivalent to applying all of them
  // in order. The id check happens here, before anything mutates, so an
  // unknown pool fails the batch with both buffers untouched.
  const std::size_t pools = pool_quarantined_.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PoolId pool = batch[i].pool;
    if (pool.value() >= pools) {
      return make_error(ErrorCode::kNotFound,
                        "update for unknown " + to_string(pool));
    }
    coalesce_winner_[pool.value()] = static_cast<std::uint32_t>(i);
  }

  // Catch the back buffer up to the committed front, then write the
  // batch winners into it. The front buffer — which in-flight lanes may
  // still be pricing against — is never touched.
  market_.begin_writes();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PoolUpdateEvent& event = batch[i];
    if (coalesce_winner_[event.pool.value()] != i) continue;  // superseded
    ++staging_report_.unique_pools;
    if (Status written = market_.write(event); !written.ok()) {
      rollback_epoch();
      return written;
    }
    // Route the update to every shard whose cycles traverse the pool.
    for (const std::uint32_t s : plan_.shards_of_pool(event.pool)) {
      Shard& shard = shards_[s];
      for (const std::uint32_t local : plan_.sub_index(s, event.pool)) {
        if (!shard.dirty_flag[local]) {
          shard.dirty_flag[local] = 1;
          shard.pending_dirty.push_back(local);
        }
      }
    }
  }
  staged_ = true;
  return Status::success();
}

void IncrementalScanner::rollback_epoch() {
  market_.rollback();
  for (Shard& shard : shards_) {
    for (const std::uint32_t local : shard.pending_dirty) {
      shard.dirty_flag[local] = 0;
    }
    shard.pending_dirty.clear();
  }
  staging_report_ = ApplyReport{};
  staged_ = false;
}

void IncrementalScanner::commit_epoch() {
  ARB_REQUIRE(staged_, "commit_epoch without a staged epoch");
  ARB_REQUIRE(!in_flight_, "commit_epoch with a reprice in flight");
  market_.commit();
  for (Shard& shard : shards_) {
    // The previous wait_reprice() left the active list empty; promote
    // the pending set and clear its routing flags.
    shard.dirty.swap(shard.pending_dirty);
    for (const std::uint32_t local : shard.dirty) shard.dirty_flag[local] = 0;
    std::sort(shard.dirty.begin(), shard.dirty.end());
  }
  inflight_report_ = std::move(staging_report_);
  staging_report_ = ApplyReport{};
  staged_ = false;
}

void IncrementalScanner::price_range(std::size_t s, std::size_t begin,
                                     std::size_t end, std::size_t lane) {
  Shard& shard = shards_[s];
  const std::vector<std::uint32_t>& universe = plan_.cycles_of(s);
  core::ConvexContext& ctx = shard.contexts[lane];
  LaneStats& stats = shard.lane_stats[lane];
  std::vector<std::uint32_t>& survivors = shard.lane_survivors[lane];
  survivors.clear();
  const bool convex =
      config_.strategy == core::StrategyKind::kConvexOptimization;
  const market::MarketView& view = market_.front_view();
  const double* rel0 = view.rel_price0_data();
  const double* rel1 = view.rel_price1_data();

  // Pass A — the SoA gate: one contiguous sweep over the lane's dirty
  // cycles, computing each loop's price product straight from the dense
  // view's cached price arrays (identical factors in identical order to
  // view.price_product, hence bit-identical). Only the profitable
  // orientation (product > 1) survives into the solver ladder — the
  // filter_arbitrage gate of scan_market. One clock pair for the whole
  // sweep instead of two per gated cycle.
  std::size_t gated_cpmm = 0;
  std::size_t gated_mixed = 0;
  const auto gate_t0 = std::chrono::steady_clock::now();
  for (std::size_t position = begin; position < end; ++position) {
    const std::uint32_t local = shard.dirty[position];
    if (shard.quarantine_count[local] != 0) {
      // Excluded while any of its pools is quarantined: keep the slot
      // empty (and no warm start) so the ranked set matches scan_market
      // on the surviving pool set. Not accounted as repriced.
      shard.slots[local].reset();
      if (shard.warm[local].valid) {
        shard.warm[local].valid = false;
        ++stats.warm_invalidations;
      }
      continue;
    }
    double product = 1.0;
    for (std::uint32_t k = shard.gate_offset[local];
         k < shard.gate_offset[local + 1]; ++k) {
      const std::uint32_t pool = shard.gate_pool[k];
      product *= shard.gate_side[k] ? rel1[pool] : rel0[pool];
    }
    if (!(product > 1.0)) {
      // Profitless orientation: empty the slot but KEEP the warm start —
      // the next profitable visit resumes from the cached iterate (the
      // interior projection guards against genuine staleness).
      shard.slots[local].reset();
      ++(shard.mixed[local] != 0 ? gated_mixed : gated_cpmm);
      continue;
    }
    survivors.push_back(static_cast<std::uint32_t>(position));
  }
  if (gated_cpmm + gated_mixed > 0) {
    const double gate_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - gate_t0)
                               .count();
    const double share =
        gate_us / static_cast<double>(gated_cpmm + gated_mixed);
    stats.cpmm_us += share * static_cast<double>(gated_cpmm);
    stats.mixed_us += share * static_cast<double>(gated_mixed);
    stats.repriced_cpmm += gated_cpmm;
    stats.repriced_mixed += gated_mixed;
  }

  // Pass B — the per-cycle solver ladder over the gate's survivors,
  // unchanged: warm start / closed form / barrier / generic fallback.
  for (const std::uint32_t position : survivors) {
    const std::uint32_t local = shard.dirty[position];
    const graph::Cycle& cycle = index_.cycles()[universe[local]];
    std::optional<core::Opportunity>& out = shard.slots[local];
    const bool mixed = shard.mixed[local] != 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto account = [&] {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      (mixed ? stats.mixed_us : stats.cpmm_us) += us;
      ++(mixed ? stats.repriced_mixed : stats.repriced_cpmm);
    };
    optim::WarmStart& warm = shard.warm[local];
    const bool was_valid = warm.valid;
    ctx.warm = &warm;
    auto priced = core::evaluate_opportunity(
        market_.front().graph, market_.front().prices, cycle, config_, ctx);
    ctx.warm = nullptr;
    if (was_valid && !warm.valid) ++stats.warm_invalidations;
    if (!priced) {
      shard.lane_statuses[position] = priced.error();
      out.reset();
      account();
      continue;
    }
    if (convex) {
      stats.solver_iterations += static_cast<std::uint64_t>(
          std::max(0, ctx.report.total_newton_iterations));
      if (ctx.used_fallback) ++stats.solver_fallbacks;
      // Closed-form and generic-routed solves are neither warm hit nor
      // miss; mixed loops that took the barrier fast path count like
      // CPMM ones.
      if (config_.convex_warm_start && !ctx.used_closed_form &&
          !ctx.used_generic) {
        ++(ctx.warm_hit ? stats.warm_hits : stats.warm_misses);
      }
      if (mixed) {
        ++(ctx.used_generic ? stats.repriced_mixed_generic
                            : stats.repriced_mixed_fast);
      }
    }
    out = *std::move(priced);
    account();
  }
}

void IncrementalScanner::launch_reprice() {
  ARB_REQUIRE(!in_flight_, "launch_reprice with a reprice in flight");
  inflight_report_.shard_repriced.assign(shards_.size(), 0);

  // Lane sizing: chunk every shard's dirty list so the whole round
  // yields ~4 tasks per pool thread. Oversubscribing lets the pool's
  // queue balance load dynamically — without it each dirty shard runs as
  // one task and the harvest stalls on the slowest shard (per-batch
  // dirty sets are not as balanced as the static plan). Chunking is
  // performance-only: each cycle's solve is independent and warm state
  // is per-cycle, so the results never depend on the lane split.
  const std::size_t threads = workers_ ? workers_->thread_count() : 0;
  std::size_t total_dirty = 0;
  for (const Shard& shard : shards_) total_dirty += shard.dirty.size();
  const std::size_t chunk =
      threads == 0
          ? std::max<std::size_t>(1, total_dirty)
          : std::max<std::size_t>(1, total_dirty / (threads * 4));
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    if (shard.dirty.empty()) {
      // No lanes this round — drop the previous round's stats so the
      // harvest aggregation sees nothing from this shard.
      shard.lane_stats.clear();
      continue;
    }
    const std::size_t len = shard.dirty.size();
    const std::size_t lanes =
        workers_ == nullptr ? 1 : (len + chunk - 1) / chunk;
    if (shard.contexts.size() < lanes) shard.contexts.resize(lanes);
    if (shard.lane_survivors.size() < lanes) shard.lane_survivors.resize(lanes);
    shard.lane_stats.assign(lanes, LaneStats{});
    shard.lane_statuses.assign(len, Status());
    for (const std::uint32_t local : shard.dirty) {
      mark_rank_dirty(shard, local);
    }
    if (workers_ == nullptr) {
      price_range(s, 0, len, 0);
      continue;
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t lane_begin = lane * len / lanes;
      const std::size_t lane_end = (lane + 1) * len / lanes;
      if (lane_begin == lane_end) continue;
      lane_tasks_.push_back([this, s, lane_begin, lane_end, lane] {
        price_range(s, lane_begin, lane_end, lane);
      });
    }
  }
  if (!lane_tasks_.empty()) {
    if (!workers_->submit_many(lane_tasks_, group_.get())) {
      // Pool shutting down or the round cannot fit: run inline so the
      // invariant (slots match committed reserves) still holds.
      for (const std::function<void()>& task : lane_tasks_) task();
      lane_tasks_.clear();
    }
  }
  in_flight_ = true;
}

Result<ApplyReport> IncrementalScanner::wait_reprice() {
  ARB_REQUIRE(in_flight_, "wait_reprice without a launched reprice");
  group_->wait();
  in_flight_ = false;

  ApplyReport report = std::move(inflight_report_);
  inflight_report_ = ApplyReport{};
  Status first_error = Status::success();
  for (Shard& shard : shards_) {
    shard.dirty.clear();  // routing flags were cleared at promotion
    for (const Status& status : shard.lane_statuses) {
      if (!status.ok() && first_error.ok()) first_error = status;
    }
    shard.lane_statuses.clear();
  }
  if (!first_error.ok()) return first_error.error();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const LaneStats& stats : shards_[s].lane_stats) {
      report.warm_hits += stats.warm_hits;
      report.warm_misses += stats.warm_misses;
      report.warm_invalidations += stats.warm_invalidations;
      report.solver_iterations += stats.solver_iterations;
      report.repriced_cpmm += stats.repriced_cpmm;
      report.repriced_mixed += stats.repriced_mixed;
      report.repriced_mixed_fast += stats.repriced_mixed_fast;
      report.repriced_mixed_generic += stats.repriced_mixed_generic;
      report.reprice_cpmm_us += stats.cpmm_us;
      report.reprice_mixed_us += stats.mixed_us;
      report.solver_fallbacks += stats.solver_fallbacks;
      report.shard_repriced[s] += stats.repriced_cpmm + stats.repriced_mixed;
    }
  }
  // Cycles skipped because they traverse a quarantined pool are not
  // counted as repriced, so the total stays the sum of the per-kind
  // splits (the parity the metrics tests pin down).
  report.repriced = report.repriced_cpmm + report.repriced_mixed;
  report.warm_invalidations += pending_warm_invalidations_;
  pending_warm_invalidations_ = 0;
  // The ranking is NOT rebuilt here: launch_reprice() marked the
  // repriced cycles rank-dirty, and the next collect()/ranked() call
  // merges them into the kept order.
  return report;
}

void IncrementalScanner::set_quarantined(PoolId pool, bool quarantined) {
  ARB_REQUIRE(pool.value() < pool_quarantined_.size(),
              "unknown " + to_string(pool));
  ARB_REQUIRE(!in_flight_, "set_quarantined with a reprice in flight");
  char& flag = pool_quarantined_[pool.value()];
  if (static_cast<bool>(flag) == quarantined) return;
  flag = quarantined ? 1 : 0;
  for (const std::uint32_t cycle : index_.cycles_of(pool)) {
    Shard& shard = shards_[plan_.shard_of(cycle)];
    const std::uint32_t local = plan_.local_of(cycle);
    if (quarantined) {
      if (++shard.quarantine_count[local] == 1) {
        shard.slots[local].reset();
        if (shard.warm[local].valid) {
          shard.warm[local].valid = false;
          ++pending_warm_invalidations_;
        }
        mark_rank_dirty(shard, local);
      }
    } else {
      ARB_REQUIRE(shard.quarantine_count[local] > 0,
                  "quarantine count underflow");
      --shard.quarantine_count[local];
    }
  }
}

bool IncrementalScanner::pool_quarantined(PoolId pool) const {
  ARB_REQUIRE(pool.value() < pool_quarantined_.size(),
              "unknown " + to_string(pool));
  return pool_quarantined_[pool.value()] != 0;
}

void IncrementalScanner::mark_rank_dirty(Shard& shard, std::uint32_t local) {
  if (shard.rank_dirty_flag[local]) return;
  shard.rank_dirty_flag[local] = 1;
  shard.rank_dirty.push_back(local);
}

bool IncrementalScanner::ranks_before(const Shard& sa, std::uint32_t a,
                                      const Shard& sb, std::uint32_t b) {
  const double pa = sa.slots[a]->net_profit_usd;
  const double pb = sb.slots[b]->net_profit_usd;
  if (pa != pb) return pa > pb;
  return sa.rank_key[a] < sb.rank_key[b];
}

void IncrementalScanner::rebuild_ranking() {
  ARB_REQUIRE(!in_flight_, "ranking observed with a reprice in flight");
  // Per shard, only the slots that changed since the last observation
  // move: they leave the kept order, the ones still present are sorted
  // among themselves, and the two sorted runs merge. ranks_before is a
  // strict total order, so the result is bit-identical to re-sorting
  // every present slot.
  bool changed = false;
  for (Shard& shard : shards_) {
    if (shard.rank_dirty.empty()) continue;
    changed = true;
    const auto before = [&shard](std::uint32_t a, std::uint32_t b) {
      return ranks_before(shard, a, shard, b);
    };
    std::erase_if(shard.ranked, [&shard](std::uint32_t local) {
      return shard.rank_dirty_flag[local] != 0;
    });
    for (const std::uint32_t local : shard.rank_dirty) {
      shard.rank_dirty_flag[local] = 0;
    }
    std::erase_if(shard.rank_dirty, [&shard](std::uint32_t local) {
      return !shard.slots[local].has_value();
    });
    std::sort(shard.rank_dirty.begin(), shard.rank_dirty.end(), before);
    shard.rank_scratch.resize(shard.ranked.size() + shard.rank_dirty.size());
    std::merge(shard.ranked.begin(), shard.ranked.end(),
               shard.rank_dirty.begin(), shard.rank_dirty.end(),
               shard.rank_scratch.begin(), before);
    shard.ranked.swap(shard.rank_scratch);
    shard.rank_dirty.clear();
  }
  if (!changed) return;

  // K-way merge under the same strict total order, which reproduces the
  // K=1 global sort exactly.
  ranked_.clear();
  if (shards_.size() == 1) {
    const Shard& shard = shards_[0];
    for (const std::uint32_t local : shard.ranked) {
      ranked_.push_back(&*shard.slots[local]);
    }
    return;
  }
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.ranked.size();
  std::fill(merge_head_.begin(), merge_head_.end(), 0);
  while (ranked_.size() < total) {
    std::size_t best = shards_.size();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& shard = shards_[s];
      if (merge_head_[s] >= shard.ranked.size()) continue;
      if (best == shards_.size()) {
        best = s;
        continue;
      }
      if (ranks_before(shard, shard.ranked[merge_head_[s]], shards_[best],
                       shards_[best].ranked[merge_head_[best]])) {
        best = s;
      }
    }
    const Shard& winner = shards_[best];
    ranked_.push_back(&*winner.slots[winner.ranked[merge_head_[best]]]);
    ++merge_head_[best];
  }
}

void IncrementalScanner::collect_into(std::vector<core::Opportunity>& out) {
  rebuild_ranking();
  // Copy-assign over the caller's existing elements so their inner
  // vectors keep their capacity; only the size difference is erased or
  // appended.
  const std::size_t n = ranked_.size();
  if (out.size() > n) {
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(n), out.end());
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = *ranked_[i];
  out.reserve(n);
  for (std::size_t i = out.size(); i < n; ++i) out.push_back(*ranked_[i]);
}

std::vector<core::Opportunity> IncrementalScanner::collect() {
  std::vector<core::Opportunity> out;
  collect_into(out);
  return out;
}

}  // namespace arb::runtime
