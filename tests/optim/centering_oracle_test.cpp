// Bit-identity oracle for the structured centering assembly.
//
// FlowProblem and ReducedLoopProblem override
// NlpProblem::centering_gradient_into / centering_hessian_into with
// assemblies that touch only their nonzeros. Their contract
// (optim/problem.hpp) is that every entry equals the generic
// per-constraint loop's bit for bit, ±0 aside. This suite evaluates the
// override and the base implementation (called non-virtually, as the
// reference) at strictly feasible points of seeded random instances and
// several barrier weights t, and compares every entry with ==.
//
// Flow instances come from generated mixed markets: for_swap path sets
// (overlapping paths share edges) and from_cycle loops, so CPMM, stable
// and concentrated (capped) edges all appear. Reduced loops are
// synthetic, 2–5 hops of random venue kinds.
//
// ARB_LONG_TESTS=1 multiplies the instance counts by 5.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/flow_nlp.hpp"
#include "core/loop_nlp.hpp"
#include "core/router.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"
#include "optim/workspace.hpp"
#include "testkit/trials.hpp"

namespace arb {
namespace {

using testkit::trial_multiplier;

/// Spans the barrier path: early centering steps through near-final ones.
constexpr double kBarrierWeights[] = {1e-2, 1.0, 3.7e3, 1e8};

/// Counts entries where the override and the reference differ (== treats
/// +0 and −0 as equal; a NaN never matches) and describes the first.
class EntryDiff {
 public:
  /// Entry (row, col) of the t-weighted gradient (col unused) or Hessian.
  void compare(double got, double want, double t, const char* what,
               std::size_t row, std::size_t col = 0) {
    if (got == want) return;
    if (count_++ == 0) {
      std::ostringstream out;
      out << "t=" << t << ' ' << what << '(' << row << ',' << col
          << "): " << std::hexfloat << got << " vs " << want;
      first_ = out.str();
    }
  }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] const std::string& first() const { return first_; }

 private:
  std::size_t count_ = 0;
  std::string first_;
};

/// Compares both centering assemblies of `problem` against the
/// NlpProblem defaults at the strictly feasible point x, for every t.
void expect_matches_reference(const optim::NlpProblem& problem,
                              const math::Vector& x) {
  ASSERT_TRUE(problem.strictly_feasible(x));
  optim::SolveWorkspace ws;
  optim::SolveWorkspace reference_ws;
  math::Vector grad;
  math::Vector reference_grad;
  math::Matrix hess;
  math::Matrix reference_hess;
  EntryDiff diff;
  for (const double t : kBarrierWeights) {
    problem.centering_gradient_into(x, t, grad, ws);
    problem.optim::NlpProblem::centering_gradient_into(x, t, reference_grad,
                                                        reference_ws);
    problem.centering_hessian_into(x, t, hess, ws);
    problem.optim::NlpProblem::centering_hessian_into(x, t, reference_hess,
                                                       reference_ws);
    ASSERT_EQ(grad.size(), reference_grad.size());
    for (std::size_t i = 0; i < grad.size(); ++i) {
      diff.compare(grad[i], reference_grad[i], t, "grad", i);
    }
    ASSERT_EQ(hess.rows(), reference_hess.rows());
    ASSERT_EQ(hess.cols(), reference_hess.cols());
    for (std::size_t r = 0; r < hess.rows(); ++r) {
      for (std::size_t c = 0; c < hess.cols(); ++c) {
        diff.compare(hess(r, c), reference_hess(r, c), t, "hess", r, c);
      }
    }
  }
  EXPECT_EQ(diff.count(), 0u) << "first: " << diff.first();
}

/// Up to three strictly feasible points of a flow instance: marginal
/// flow pushed along each support chain from `seeds`, passing `keep` of
/// each hop's marginal output to the next hop, at the largest halving of
/// the seeds that is strictly feasible and at 1/8 and 1/64 of it.
std::vector<math::Vector> flow_interior_points(
    const core::FlowProblem& problem, const std::vector<double>& seeds,
    double keep) {
  const core::FlowInstance& inst = problem.instance();
  std::vector<math::Vector> points;
  double scale = 1.0;
  for (int attempt = 0; attempt < 200 && points.size() < 3; ++attempt) {
    math::Vector d(inst.edges.size(), 0.0);
    for (std::size_t c = 0; c < inst.support.size(); ++c) {
      double a = seeds[c] * scale;
      for (const std::size_t e : inst.support[c]) {
        const double before = inst.edges[e].swap(d[e]);
        d[e] += a;
        a = (inst.edges[e].swap(d[e]) - before) * keep;
      }
    }
    if (problem.strictly_feasible(d)) {
      points.push_back(d);
      scale /= 8.0;
    } else {
      scale /= 2.0;
    }
  }
  return points;
}

/// Edge-kind coverage over every flow instance compared.
struct FlowCoverage {
  std::size_t instances = 0;
  std::size_t overlapping = 0;  ///< for_swap sets with a shared edge
  std::size_t cpmm = 0;
  std::size_t stable = 0;
  std::size_t capped = 0;  ///< concentrated edges (finite input cap)
};

void compare_flow_instance(const core::FlowInstance& instance,
                           const std::vector<double>& seeds, double keep,
                           FlowCoverage& coverage) {
  const core::FlowProblem problem(instance);
  const std::vector<math::Vector> points =
      flow_interior_points(problem, seeds, keep);
  ASSERT_FALSE(points.empty()) << "no interior point";
  for (const math::Vector& x : points) expect_matches_reference(problem, x);
  ++coverage.instances;
  for (const core::LoopHopData& edge : instance.edges) {
    coverage.cpmm += edge.kind == core::HopKind::kCpmm;
    coverage.stable += edge.kind == core::HopKind::kStable;
    coverage.capped += std::isfinite(edge.input_cap);
  }
}

market::MarketSnapshot mixed_market(std::uint64_t seed) {
  market::GeneratorConfig gen;
  gen.seed = seed;
  gen.token_count = 20;
  gen.pool_count = 80;
  gen.stable_fraction = 0.2;
  gen.concentrated_fraction = 0.3;
  gen.pool_price_noise_sigma = 0.02;  // more profitable cycles
  return market::generate_snapshot(gen);
}

class CenteringOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CenteringOracleTest, FlowProblemMatchesGenericAssembly) {
  const market::MarketSnapshot market = mixed_market(GetParam());
  const graph::TokenGraph& graph = market.graph;
  Rng rng(GetParam());
  FlowCoverage coverage;

  // Routing instances: up to six best paths of at most three hops.
  const int swaps = 8 * trial_multiplier();
  for (int attempt = 0, made = 0; made < swaps && attempt < 50 * swaps;
       ++attempt) {
    const TokenId token_in{static_cast<std::uint32_t>(
        rng.index(graph.token_count()))};
    const TokenId token_out{static_cast<std::uint32_t>(
        rng.index(graph.token_count()))};
    if (token_in == token_out) continue;
    const auto paths = core::enumerate_paths(graph, token_in, token_out, 3, 6);
    if (paths.size() < 2) continue;
    const double budget =
        0.01 * graph.pool(paths.front().front()).reserve_of(token_in);
    auto instance =
        core::FlowInstance::for_swap(graph, token_in, token_out, paths, budget);
    ASSERT_TRUE(instance.ok()) << instance.error().message;
    std::size_t hops = 0;
    for (const auto& path : paths) hops += path.size();
    coverage.overlapping += instance->edges.size() < hops;

    std::vector<double> seeds(paths.size());
    for (double& seed : seeds) {
      seed = budget / (2.0 * static_cast<double>(paths.size())) *
             rng.uniform(0.2, 1.0);
    }
    SCOPED_TRACE(::testing::Message() << "swap " << made);
    compare_flow_instance(*instance, seeds, 0.5, coverage);
    ++made;
  }

  // Arbitrage instances: profitable loops of length 3 and 4. The start
  // must close each loop at a profit, so almost all output is passed on.
  const std::size_t loops = 6 * static_cast<std::size_t>(trial_multiplier());
  for (const std::size_t length : {std::size_t{3}, std::size_t{4}}) {
    std::vector<graph::Cycle> cycles =
        graph::enumerate_fixed_length_cycles(graph, length);
    rng.shuffle(cycles);
    std::size_t made = 0;
    for (const graph::Cycle& cycle : cycles) {
      if (made == loops) break;
      if (!(cycle.price_product(graph) > 1.0 + 1e-4)) continue;
      auto instance =
          core::FlowInstance::from_cycle(graph, market.prices, cycle);
      ASSERT_TRUE(instance.ok()) << instance.error().message;
      SCOPED_TRACE(::testing::Message()
                   << "loop of " << length << " #" << made);
      compare_flow_instance(*instance, {rng.uniform(0.5, 2.0)}, 1.0 - 1e-6,
                            coverage);
      ++made;
    }
    EXPECT_GT(made, 0u) << "no profitable loop of length " << length;
  }

  EXPECT_GT(coverage.overlapping, 0u) << "no path set shared an edge";
  EXPECT_GT(coverage.cpmm, 0u);
  EXPECT_GT(coverage.stable, 0u);
  EXPECT_GT(coverage.capped, 0u);
}

/// A loop of n hops T0 → T1 → … → T0 of random venue kinds; the last
/// hop is CPMM, priced so the loop's zero-size rate product is 1.3
/// (strict interior exists).
std::vector<core::LoopHopData> random_loop(Rng& rng, std::size_t n) {
  graph::TokenGraph graph;
  std::vector<TokenId> tokens;
  for (std::size_t i = 0; i < n; ++i) {
    std::string symbol = "T";
    symbol += std::to_string(i);
    tokens.push_back(graph.add_token(symbol));
  }
  constexpr double kFee = 0.003;
  std::vector<core::LoopHopData> hops;
  double rate = 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    const TokenId in = tokens[k];
    const TokenId out = tokens[(k + 1) % n];
    const double depth = rng.log_normal(std::log(1e4), 1.0);
    const bool last = k + 1 == n;
    PoolId id;
    switch (last ? 0 : rng.index(3)) {
      case 0: {
        const double target = last ? 1.3 / (rate * (1.0 - kFee))
                                   : rng.uniform(0.5, 2.0);
        id = graph.add_pool(in, out, depth, depth * target, kFee);
        break;
      }
      case 1:
        id = graph.add_stable_pool(in, out, depth,
                                   depth * rng.uniform(0.9, 1.1),
                                   rng.uniform(10.0, 2000.0));
        break;
      default: {
        const double price = rng.uniform(0.5, 2.0);
        const double width = rng.uniform(1.2, 3.0);
        id = rng.bernoulli(0.5)
                 ? graph.add_concentrated_pool(in, out, depth, price,
                                               price / width, price * width)
                 : graph.add_concentrated_pool(out, in, depth, price,
                                               price / width, price * width);
        break;
      }
    }
    rate *= graph.pool(id).relative_price_of(in);
    core::LoopHopData hop = core::make_edge_kernel(graph.pool(id), in, out);
    hop.price_in = rng.uniform(0.5, 2.0);
    hop.price_out = rng.uniform(0.5, 2.0);
    hops.push_back(hop);
  }
  return hops;
}

TEST_P(CenteringOracleTest, ReducedLoopProblemMatchesGenericAssembly) {
  Rng rng(GetParam());
  std::size_t capped = 0;
  for (std::size_t n = 2; n <= 5; ++n) {
    for (int trial = 0; trial < 6 * trial_multiplier(); ++trial) {
      const core::ReducedLoopProblem problem(random_loop(rng, n));
      const std::vector<core::LoopHopData>& hops = problem.hops();
      for (const core::LoopHopData& hop : hops) {
        capped += std::isfinite(hop.input_cap);
      }
      SCOPED_TRACE(::testing::Message() << "n=" << n << " trial " << trial);

      // d_{k+1} = keep_k · F_k(d_k) from d_0 = scale: interior once the
      // scale is small enough for the 1.3 rate to beat the retention.
      std::size_t points = 0;
      double scale = 1.0;
      for (int attempt = 0; attempt < 200 && points < 3; ++attempt) {
        math::Vector d(n, 0.0);
        d[0] = scale;
        for (std::size_t k = 0; k + 1 < n; ++k) {
          d[k + 1] = rng.uniform(0.97, 0.995) * hops[k].swap(d[k]);
        }
        if (problem.strictly_feasible(d)) {
          expect_matches_reference(problem, d);
          ++points;
          scale /= 8.0;
        } else {
          scale /= 2.0;
        }
      }
      EXPECT_GT(points, 0u) << "no interior point";
    }
  }
  EXPECT_GT(capped, 0u) << "no concentrated hop drawn";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CenteringOracleTest,
                         ::testing::Values(std::uint64_t{1401},
                                           std::uint64_t{1402},
                                           std::uint64_t{1403}));

}  // namespace
}  // namespace arb
