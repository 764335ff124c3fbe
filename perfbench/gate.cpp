#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/routing.hpp"

namespace perfbench {

using namespace arb;

namespace {

constexpr double kBudgetTolerance = 1e-9;

double tolerance(double a, double b) {
  return kConvexTolerance * std::max({std::abs(a), std::abs(b), 1.0});
}

template <typename... Args>
std::string describe(const Args&... args) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << args);
  return out.str();
}

bool same_outcome(const core::Opportunity& a, const core::Opportunity& b) {
  if (a.cycle.tokens() != b.cycle.tokens() ||
      a.cycle.pools() != b.cycle.pools() ||
      a.net_profit_usd != b.net_profit_usd ||
      a.outcome.monetized_usd != b.outcome.monetized_usd ||
      a.outcome.start_token != b.outcome.start_token ||
      a.outcome.input != b.outcome.input ||
      a.outcome.output != b.outcome.output ||
      a.outcome.profits.size() != b.outcome.profits.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcome.profits.size(); ++i) {
    if (a.outcome.profits[i].token != b.outcome.profits[i].token ||
        a.outcome.profits[i].amount != b.outcome.profits[i].amount) {
      return false;
    }
  }
  return true;
}

GateError compare_exact(const std::vector<core::Opportunity>& got,
                        const std::vector<core::Opportunity>& want) {
  if (got.size() != want.size()) {
    return describe("ranked set has ", got.size(), " entries, reference ",
                    want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_outcome(got[i], want[i])) {
      return describe("rank ", i, " differs: ", got[i].cycle.rotation_key(),
                      " net ", got[i].net_profit_usd, " vs reference ",
                      want[i].cycle.rotation_key(), " net ",
                      want[i].net_profit_usd);
    }
  }
  return {};
}

GateError compare_tolerant(const std::vector<core::Opportunity>& got,
                           const std::vector<core::Opportunity>& want) {
  std::unordered_map<std::string, double> reference;
  for (const core::Opportunity& o : want) {
    reference.emplace(o.cycle.rotation_key(), o.net_profit_usd);
  }
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double net = got[i].net_profit_usd;
    if (!std::isfinite(net)) return describe("rank ", i, " profit not finite");
    if (i + 1 < got.size() && got[i + 1].net_profit_usd - net >
                                  tolerance(net, got[i + 1].net_profit_usd)) {
      return describe("ranks ", i, " and ", i + 1, " are inverted: ", net,
                      " < ", got[i + 1].net_profit_usd);
    }
    const std::string key = got[i].cycle.rotation_key();
    seen.insert(key);
    const auto it = reference.find(key);
    if (it == reference.end()) {
      if (std::abs(net) > tolerance(net, 0.0)) {
        return describe("rank ", i, " (", key, ", net ", net,
                        ") is absent from the reference");
      }
      continue;
    }
    if (std::abs(net - it->second) > tolerance(net, it->second)) {
      return describe("rank ", i, " (", key, ") net ", net, " vs reference ",
                      it->second);
    }
  }
  for (const auto& [key, net] : reference) {
    if (!seen.contains(key) && std::abs(net) > tolerance(net, 0.0)) {
      return describe("reference entry ", key, " (net ", net, ") is missing");
    }
  }
  return {};
}

}  // namespace

GateError compare_ranked(const std::vector<core::Opportunity>& got,
                         const std::vector<core::Opportunity>& want,
                         core::StrategyKind strategy) {
  return strategy == core::StrategyKind::kConvexOptimization
             ? compare_tolerant(got, want)
             : compare_exact(got, want);
}

GateError check_ranked(const std::vector<core::Opportunity>& got,
                       const market::MarketSnapshot& market,
                       const core::ScannerConfig& config) {
  auto reference = core::scan_market(market.graph, market.prices, config);
  if (!reference) {
    return "reference scan failed: " + reference.error().to_string();
  }
  return compare_ranked(got, *reference, config.strategy);
}

GateError check_route(const core::RouteResult& result) {
  if (result.paths.empty()) return "route has no paths";
  for (const core::RoutedPath& path : result.paths) {
    if (!std::isfinite(path.input) || path.input < 0.0) {
      return describe("path input ", path.input, " is negative or not finite");
    }
  }
  if (!std::isfinite(result.amount_out) || result.amount_out <= 0.0) {
    return describe("amount_out ", result.amount_out,
                    " is not finite and positive");
  }
  return {};
}

bool spends_budget(const core::RouteQuery& query,
                   const core::RouteResult& result) {
  double spent = 0.0;
  for (const core::RoutedPath& path : result.paths) spent += path.input;
  return std::abs(spent - query.amount_in) <=
         kBudgetTolerance * query.amount_in;
}

GateError check_route_on(const graph::TokenGraph& graph,
                         const core::RouteQuery& query,
                         const core::RouteResult& result) {
  if (GateError error = check_route(result); !error.empty()) {
    return error;
  }
  std::vector<std::vector<PoolId>> candidates;
  candidates.reserve(result.paths.size());
  for (const core::RoutedPath& path : result.paths) {
    candidates.push_back(path.pools);
  }
  auto single = core::best_single_path_output(graph, query.token_in,
                                              query.token_out, candidates,
                                              query.amount_in);
  if (!single) return "best single path failed: " + single.error().to_string();
  if (result.amount_out < *single * (1.0 - kBudgetTolerance)) {
    return describe("route returns ", result.amount_out,
                    " below the best single path's ", *single);
  }
  return {};
}

}  // namespace perfbench
