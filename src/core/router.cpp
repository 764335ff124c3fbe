#include "core/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "amm/any_pool.hpp"
#include "common/error.hpp"
#include "core/loop_nlp.hpp"
#include "core/routing.hpp"

namespace arb::core {
namespace {

/// Enumeration backstop on dense graphs: DFS stops collecting once this
/// many candidate paths exist (ranking then picks the best max_paths).
constexpr std::size_t kMaxEnumerated = 512;

struct Candidate {
  std::vector<PoolId> pools;
  double zero_rate = 1.0;
};

void enumerate_dfs(const graph::TokenGraph& graph, TokenId cur,
                   TokenId token_out, std::size_t max_hops,
                   std::vector<std::uint8_t>& on_path,
                   std::vector<PoolId>& stack, double rate,
                   std::vector<Candidate>& out) {
  if (out.size() >= kMaxEnumerated) return;
  for (PoolId id : graph.pools_of(cur)) {
    const amm::AnyPool& pool = graph.pool(id);
    const TokenId next = pool.other(cur);
    if (on_path[next.value()]) continue;
    // A tick-pinned concentrated position cannot accept input in this
    // direction (zero receivable reserve of `next`); skip the edge so
    // downstream solves never see an empty cap interior.
    if (!edge_accepts_input(pool, cur)) continue;
    const double hop_rate = rate * pool.relative_price_of(cur);
    stack.push_back(id);
    if (next == token_out) {
      out.push_back(Candidate{stack, hop_rate});
      if (out.size() >= kMaxEnumerated) {
        stack.pop_back();
        return;
      }
    } else if (stack.size() < max_hops) {
      on_path[next.value()] = 1;
      enumerate_dfs(graph, next, token_out, max_hops, on_path, stack,
                    hop_rate, out);
      on_path[next.value()] = 0;
    }
    stack.pop_back();
  }
}

}  // namespace

std::vector<std::vector<PoolId>> enumerate_paths(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    std::size_t max_hops, std::size_t max_paths) {
  std::vector<Candidate> candidates;
  if (max_hops == 0 || max_paths == 0) return {};
  std::vector<std::uint8_t> on_path(graph.token_count(), 0);
  std::vector<PoolId> stack;
  on_path[token_in.value()] = 1;
  enumerate_dfs(graph, token_in, token_out, max_hops, on_path, stack, 1.0,
                candidates);

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.zero_rate != b.zero_rate) {
                       return a.zero_rate > b.zero_rate;
                     }
                     return std::lexicographical_compare(
                         a.pools.begin(), a.pools.end(), b.pools.begin(),
                         b.pools.end(),
                         [](PoolId x, PoolId y) {
                           return x.value() < y.value();
                         });
                   });
  if (candidates.size() > max_paths) candidates.resize(max_paths);

  std::vector<std::vector<PoolId>> paths;
  paths.reserve(candidates.size());
  for (Candidate& c : candidates) paths.push_back(std::move(c.pools));
  return paths;
}

Result<RouteResult> route(const graph::TokenGraph& graph,
                          const RouteQuery& query, RouterContext& ctx) {
  if (!query.token_in.valid() ||
      query.token_in.value() >= graph.token_count() ||
      !query.token_out.valid() ||
      query.token_out.value() >= graph.token_count()) {
    return make_error(ErrorCode::kInvalidArgument, "unknown route token");
  }
  if (query.token_in == query.token_out) {
    return make_error(ErrorCode::kInvalidArgument,
                      "route endpoints must differ");
  }
  if (!(std::isfinite(query.amount_in) && query.amount_in >= 0.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "route amount must be finite and nonnegative");
  }

  const std::vector<std::vector<PoolId>> paths = enumerate_paths(
      graph, query.token_in, query.token_out, query.max_hops,
      query.max_paths);
  if (paths.empty()) {
    return make_error(ErrorCode::kNotFound,
                      "no path between the route endpoints");
  }

  RouteResult result;
  result.paths.reserve(paths.size());
  for (const std::vector<PoolId>& path : paths) {
    result.paths.push_back(RoutedPath{path, 0.0, 0.0});
  }

  if (paths.size() == 1) {
    double amount = query.amount_in;
    TokenId cur = query.token_in;
    for (PoolId id : paths.front()) {
      const amm::AnyPool& pool = graph.pool(id);
      amount = pool.quote(cur, amount).amount_out;
      cur = pool.other(cur);
    }
    result.paths.front().input = query.amount_in;
    result.paths.front().output = amount;
    result.amount_out = amount;
    result.method = RouteMethod::kDirect;
    return result;
  }

  auto split = optimal_route_split(graph, query.token_in, query.token_out,
                                   paths, query.amount_in, ctx.flow);
  if (!split) return split.error();
  for (std::size_t p = 0; p < paths.size(); ++p) {
    result.paths[p].input = split->inputs[p];
    result.paths[p].output = split->outputs[p];
  }
  result.amount_out = split->total_output;
  result.method = split->used_flow_solver ? RouteMethod::kFlowSolve
                                          : RouteMethod::kWaterFilling;
  result.iterations = split->iterations;
  result.duality_gap = split->duality_gap;
  return result;
}

Result<RouteResult> route(const graph::TokenGraph& graph,
                          const RouteQuery& query) {
  RouterContext ctx;
  return route(graph, query, ctx);
}

Result<double> required_input_for_output(const graph::TokenGraph& graph,
                                         TokenId token_in,
                                         const std::vector<PoolId>& path,
                                         double amount_out) {
  if (path.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty path");
  }
  if (!(std::isfinite(amount_out) && amount_out >= 0.0)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "requested output must be finite and nonnegative");
  }
  // Validate continuity and record each hop's output token — the reverse
  // walk enters every pool from that side.
  std::vector<TokenId> hop_out;
  hop_out.reserve(path.size());
  TokenId cur = token_in;
  for (PoolId id : path) {
    if (!id.valid() || id.value() >= graph.pool_count()) {
      return make_error(ErrorCode::kInvalidArgument, "unknown pool in path");
    }
    const amm::AnyPool& pool = graph.pool(id);
    if (!pool.contains(cur)) {
      return make_error(ErrorCode::kInvalidArgument, "discontinuous path");
    }
    cur = pool.other(cur);
    hop_out.push_back(cur);
  }
  if (amount_out == 0.0) return 0.0;

  // Walk the path backward through the concave continuation: for each
  // forward hop F, the reverse-direction signed swap satisfies
  // F̃_rev(−out) = −F⁻¹(out), so carrying amount = −(required amount at
  // this point) composes the inversions hop by hop.
  double amount = -amount_out;
  for (std::size_t k = path.size(); k-- > 0;) {
    const amm::SwapFn inverse =
        amm::signed_swap_fn(graph.pool(path[k]), hop_out[k]);
    amount = inverse(amount);
    if (amount == -std::numeric_limits<double>::infinity()) {
      return make_error(ErrorCode::kCapacityExceeded,
                        "path cannot deliver the requested output");
    }
  }
  return -amount;
}

}  // namespace arb::core
