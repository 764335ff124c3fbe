#pragma once

/// \file pool_index.hpp
/// Persistent inverted index PoolId → enumerated cycles traversing it.
///
/// Cycle topology depends only on the token graph's shape (which pools
/// exist and what they connect), never on reserves, so the universe of
/// candidate loops is enumerated once and a reserve update dirties
/// exactly the cycles listed under its pool. This is what makes the
/// incremental scanner's work proportional to the *affected* loop count
/// instead of the market size.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"

namespace arb::runtime {

class PoolCycleIndex {
 public:
  /// Enumerates all fixed-length cycles for every requested length (the
  /// same enumeration order core::scan_market uses) and inverts the
  /// cycle→pool incidence. Fails on an empty length list or lengths < 2,
  /// mirroring scan_market's config validation.
  [[nodiscard]] static Result<PoolCycleIndex> build(
      const graph::TokenGraph& graph,
      const std::vector<std::size_t>& loop_lengths);

  /// The enumerated universe, in scan_market enumeration order. Both
  /// orientations of each loop are present; profitability is a property
  /// of reserves and is decided at re-price time.
  [[nodiscard]] const std::vector<graph::Cycle>& cycles() const {
    return cycles_;
  }

  /// Canonical rotation key per universe cycle (precomputed once; keys
  /// never change because topology never changes).
  [[nodiscard]] const std::vector<std::string>& rotation_keys() const {
    return rotation_keys_;
  }

  /// Rank of each universe cycle's rotation key in ascending string
  /// order (a permutation of 0..N-1): comparing two ordinals orders the
  /// cycles exactly as comparing their rotation_keys() does, without
  /// touching the strings.
  [[nodiscard]] const std::vector<std::uint32_t>& key_ordinals() const {
    return key_ordinals_;
  }

  /// Indices into cycles() of every cycle traversing `pool`, ascending.
  [[nodiscard]] const std::vector<std::uint32_t>& cycles_of(PoolId pool) const;

  [[nodiscard]] std::size_t pool_count() const { return by_pool_.size(); }

  /// Largest per-pool fan-out (worst-case dirty set of a single update).
  [[nodiscard]] std::size_t max_fanout() const;

  /// Mean per-pool fan-out.
  [[nodiscard]] double mean_fanout() const;

 private:
  std::vector<graph::Cycle> cycles_;
  std::vector<std::string> rotation_keys_;
  std::vector<std::uint32_t> key_ordinals_;
  std::vector<std::vector<std::uint32_t>> by_pool_;
};

}  // namespace arb::runtime
