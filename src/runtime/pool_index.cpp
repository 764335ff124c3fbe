#include "runtime/pool_index.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "graph/cycle_enumeration.hpp"

namespace arb::runtime {

Result<PoolCycleIndex> PoolCycleIndex::build(
    const graph::TokenGraph& graph,
    const std::vector<std::size_t>& loop_lengths) {
  if (loop_lengths.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "scanner needs at least one loop length");
  }
  PoolCycleIndex index;
  for (const std::size_t length : loop_lengths) {
    if (length < 2) {
      return make_error(ErrorCode::kInvalidArgument,
                        "loop length must be at least 2");
    }
    auto cycles = graph::enumerate_fixed_length_cycles(graph, length);
    index.cycles_.insert(index.cycles_.end(),
                         std::make_move_iterator(cycles.begin()),
                         std::make_move_iterator(cycles.end()));
  }
  index.rotation_keys_.reserve(index.cycles_.size());
  index.by_pool_.resize(graph.pool_count());
  for (std::size_t i = 0; i < index.cycles_.size(); ++i) {
    const graph::Cycle& cycle = index.cycles_[i];
    index.rotation_keys_.push_back(cycle.rotation_key());
    for (const PoolId pool : cycle.pools()) {
      index.by_pool_[pool.value()].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::vector<std::uint32_t> by_key(index.cycles_.size());
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::sort(by_key.begin(), by_key.end(),
            [&keys = index.rotation_keys_](std::uint32_t a, std::uint32_t b) {
              return keys[a] < keys[b];
            });
  index.key_ordinals_.resize(by_key.size());
  for (std::uint32_t rank = 0; rank < by_key.size(); ++rank) {
    index.key_ordinals_[by_key[rank]] = rank;
  }
  // Universe order already makes per-pool lists ascending; keep the
  // invariant explicit for callers that merge dirty sets.
  for (auto& list : index.by_pool_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return index;
}

const std::vector<std::uint32_t>& PoolCycleIndex::cycles_of(
    PoolId pool) const {
  ARB_REQUIRE(pool.value() < by_pool_.size(), "unknown pool");
  return by_pool_[pool.value()];
}

std::size_t PoolCycleIndex::max_fanout() const {
  std::size_t best = 0;
  for (const auto& list : by_pool_) best = std::max(best, list.size());
  return best;
}

double PoolCycleIndex::mean_fanout() const {
  if (by_pool_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& list : by_pool_) total += list.size();
  return static_cast<double>(total) / static_cast<double>(by_pool_.size());
}

}  // namespace arb::runtime
