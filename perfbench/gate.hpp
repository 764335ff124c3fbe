#pragma once

// The benchmark's correctness gate. A run's outputs are checked against
// independent references: the live ranked set against a from-scratch
// core::scan_market of the same committed market, and every route
// against its own budget and the best unsplit path.

#include <string>
#include <vector>

#include "core/router.hpp"
#include "core/scanner.hpp"
#include "market/snapshot.hpp"

namespace perfbench {

/// Empty when the check passed, otherwise the first mismatch.
using GateError = std::string;

/// Relative agreement bar for convex ranked sets: a warm-started solve
/// may differ from the cold one by |a − b| ≤ 1e-6·max(|a|, |b|, 1).
inline constexpr double kConvexTolerance = 1e-6;

/// Compares a ranked set with the reference ranking. MaxMax (and every
/// non-convex strategy) must match element for element, bit for bit:
/// cycle, start token, input, output and profits. Convex must hold the
/// same cycles, each profit within kConvexTolerance, in a ranking that
/// never inverts two entries by more than the tolerance; an entry whose
/// profit is itself within the tolerance of zero may sit on one side
/// only, since the zero-profit threshold decides it.
[[nodiscard]] GateError compare_ranked(
    const std::vector<arb::core::Opportunity>& got,
    const std::vector<arb::core::Opportunity>& want,
    arb::core::StrategyKind strategy);

/// compare_ranked against core::scan_market on `market` with `config`.
[[nodiscard]] GateError check_ranked(
    const std::vector<arb::core::Opportunity>& got,
    const arb::market::MarketSnapshot& market,
    const arb::core::ScannerConfig& config);

/// A route must fund no path with a negative or non-finite amount and
/// return a finite, positive amount_out.
[[nodiscard]] GateError check_route(const arb::core::RouteResult& result);

/// Σ path inputs = amount_in, up to 1e-9 relative for the floating-point
/// sum. The router breaks this on about half of the flow-solved queries
/// whose candidate paths share pools: its path attribution leaves part
/// of the solved flow on no path, while amount_out is the whole flow's.
/// The query is still answered, so such a route is not a failed
/// operation; the benchmark reports the share of measured routes off
/// their budget as route.unbalanced_frac (traced runs) and in each
/// untraced run's log line.
[[nodiscard]] bool spends_budget(const arb::core::RouteQuery& query,
                                 const arb::core::RouteResult& result);

/// check_route, plus amount_out ≥ the best single candidate path's output
/// for the whole budget on `graph` (the market the route was solved on).
[[nodiscard]] GateError check_route_on(const arb::graph::TokenGraph& graph,
                                       const arb::core::RouteQuery& query,
                                       const arb::core::RouteResult& result);

}  // namespace perfbench
