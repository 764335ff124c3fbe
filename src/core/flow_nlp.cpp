#include "core/flow_nlp.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "amm/any_pool.hpp"
#include "amm/path.hpp"
#include "common/error.hpp"

namespace arb::core {
namespace {

/// Whisker of output retained at each hop of a constructed interior
/// start, keeping every surplus constraint strictly slack (same constant
/// as reduced_interior_start).
constexpr double kRetention = 1e-9;

/// Normalization basis of an edge at its endpoints: the physical reserve
/// the kernel's curvature lives on (stable kernels evaluate in raw units
/// through unit_in/out; everything else on the stored reserves).
double edge_basis_from(const LoopHopData& e) {
  return e.kind == HopKind::kStable ? e.stable_x0 : e.reserve_in;
}
double edge_basis_to(const LoopHopData& e) {
  return e.kind == HopKind::kStable ? e.stable_y0 : e.reserve_out;
}

/// Möbius-proxy composition of a support chain (exact for CPMM edges,
/// osculating proxy otherwise — sign of the marginal product at 0 is
/// exact either way).
amm::MobiusCoefficients chain_mobius(const FlowInstance& inst,
                                     const std::vector<std::size_t>& chain) {
  amm::MobiusCoefficients m = amm::MobiusCoefficients::identity();
  for (std::size_t e : chain) {
    const LoopHopData& hop = inst.edges[e];
    m = m.then_hop(hop.reserve_in, hop.reserve_out, hop.gamma);
  }
  return m;
}

[[nodiscard]] bool chain_is_cycle(const FlowInstance& inst,
                                  const std::vector<std::size_t>& chain) {
  return !chain.empty() &&
         inst.edge_from[chain.front()] == inst.edge_to[chain.back()];
}

struct NormalizedFlow {
  FlowInstance instance;          ///< units folded into edges/weights/budget
  std::vector<double> node_unit;  ///< raw tokens per normalized unit
  double scale = 1.0;             ///< objective units per normalized unit
};

/// Flow generalization of LoopNormalization: per-node unit from the
/// largest incident reserve basis, objective scale from the best
/// Möbius-proxy estimate over the support chains. Makes the barrier's
/// absolute tolerances scale-invariant.
NormalizedFlow normalize_flow(const FlowInstance& inst) {
  NormalizedFlow nf{inst, {}, 1.0};
  const std::size_t num_nodes = inst.node_tokens.size();
  nf.node_unit.assign(num_nodes, 0.0);
  for (std::size_t e = 0; e < inst.edges.size(); ++e) {
    nf.node_unit[inst.edge_from[e]] =
        std::max(nf.node_unit[inst.edge_from[e]], edge_basis_from(inst.edges[e]));
    nf.node_unit[inst.edge_to[e]] =
        std::max(nf.node_unit[inst.edge_to[e]], edge_basis_to(inst.edges[e]));
  }
  for (double& u : nf.node_unit) {
    if (!(u > 0.0) || !std::isfinite(u)) u = 1.0;
  }

  FlowInstance& n = nf.instance;
  for (std::size_t e = 0; e < n.edges.size(); ++e) {
    LoopHopData& hop = n.edges[e];
    const double u_in = nf.node_unit[n.edge_from[e]];
    const double u_out = nf.node_unit[n.edge_to[e]];
    hop.reserve_in /= u_in;
    hop.reserve_out /= u_out;
    hop.unit_in = u_in;
    hop.unit_out = u_out;
    hop.input_cap /= u_in;  // +inf stays +inf
  }
  if (n.source != FlowInstance::kNoNode) n.budget /= nf.node_unit[n.source];

  // Objective scale: for each support chain, the Möbius-proxy estimate
  // of the objective it can contribute (cycle: profit at the proxy
  // optimum, monetized at the head node's weight; path: proxy output of
  // the full budget, monetized at the tail).
  double est = 0.0;
  for (const auto& chain : n.support) {
    if (chain.empty()) continue;
    const amm::MobiusCoefficients m = chain_mobius(n, chain);
    const std::size_t head = n.edge_from[chain.front()];
    const std::size_t tail = n.edge_to[chain.back()];
    if (chain_is_cycle(n, chain)) {
      const double a = m.optimal_input();
      if (a > 0.0) {
        const double w = inst.node_weight[head] * nf.node_unit[head];
        est = std::max(est, w * (m.evaluate(a) - a));
      }
    } else if (n.budget > 0.0) {
      const double w = inst.node_weight[tail] * nf.node_unit[tail];
      est = std::max(est, w * m.evaluate(n.budget));
    }
  }
  if (!(est > 0.0) || !std::isfinite(est)) {
    for (std::size_t v = 0; v < num_nodes; ++v) {
      est = std::max(est, inst.node_weight[v] * nf.node_unit[v]);
    }
  }
  if (!(est > 0.0) || !std::isfinite(est)) est = 1.0;
  nf.scale = est;
  for (std::size_t v = 0; v < num_nodes; ++v) {
    n.node_weight[v] = inst.node_weight[v] * nf.node_unit[v] / nf.scale;
  }
  return nf;
}

/// Strictly feasible start for a normalized instance: marginal flows fed
/// along each support chain with per-hop retention, scale halved until
/// the whole point clears every constraint strictly.
Result<math::Vector> flow_interior_start(const FlowProblem& problem,
                                         const std::vector<double>& seeds,
                                         double margin) {
  const FlowInstance& inst = problem.instance();
  const std::size_t num_edges = inst.edges.size();
  double scale = 1.0;
  for (int attempt = 0; attempt < 80; ++attempt, scale *= 0.5) {
    math::Vector d(num_edges);
    d.assign(num_edges, 0.0);
    bool positive = true;
    for (std::size_t c = 0; c < inst.support.size() && positive; ++c) {
      if (!(seeds[c] > 0.0)) continue;
      double a = seeds[c] * scale;
      for (std::size_t e : inst.support[c]) {
        const double before = inst.edges[e].swap(d[e]);
        d[e] += a;
        a = (inst.edges[e].swap(d[e]) - before) * (1.0 - kRetention);
        if (!(a > 0.0) || !std::isfinite(a)) {
          positive = false;
          break;
        }
      }
    }
    // Marginal outputs underflowed: halving only makes it worse.
    if (!positive) break;
    if (problem.strictly_feasible(d, margin)) return d;
  }
  return make_error(ErrorCode::kInfeasible,
                    "could not construct strictly feasible flow start");
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowInstance builders
// ---------------------------------------------------------------------------

Result<FlowInstance> FlowInstance::from_cycle(const graph::TokenGraph& graph,
                                              const market::CexPriceFeed& prices,
                                              const graph::Cycle& cycle) {
  const std::size_t n = cycle.length();
  FlowInstance inst;
  inst.graph = &graph;
  inst.node_tokens = cycle.tokens();
  inst.node_weight.resize(n);
  inst.node_constrained.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    auto price = prices.price(inst.node_tokens[i]);
    if (!price) return price.error();
    inst.node_weight[i] = *price;
  }
  inst.edges.reserve(n);
  inst.edge_from.reserve(n);
  inst.edge_to.reserve(n);
  std::vector<std::size_t> chain(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.edges.push_back(make_edge_kernel(graph.pool(cycle.pools()[i]),
                                          inst.node_tokens[i],
                                          inst.node_tokens[(i + 1) % n]));
    inst.edge_from.push_back(i);
    inst.edge_to.push_back((i + 1) % n);
    chain[i] = i;
  }
  inst.support.push_back(std::move(chain));
  return inst;
}

Result<FlowInstance> FlowInstance::for_swap(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    const std::vector<std::vector<PoolId>>& paths, double budget) {
  if (paths.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "no candidate paths");
  }
  if (token_in == token_out) {
    return make_error(ErrorCode::kInvalidArgument,
                      "swap endpoints must differ");
  }
  if (!(budget >= 0.0) || !std::isfinite(budget)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "budget must be finite and nonnegative");
  }

  FlowInstance inst;
  inst.graph = &graph;
  std::unordered_map<TokenId, std::size_t> node_of;
  const auto node_index = [&](TokenId token) {
    auto [it, inserted] = node_of.try_emplace(token, inst.node_tokens.size());
    if (inserted) inst.node_tokens.push_back(token);
    return it->second;
  };
  // Endpoints first so their indices are stable regardless of path order.
  inst.source = node_index(token_in);
  inst.sink = node_index(token_out);
  inst.budget = budget;

  // Dedup edges by (pool, direction): overlapping paths draw on one
  // consistent pool state through a shared flow variable.
  std::unordered_map<std::uint64_t, std::size_t> edge_of;
  for (const std::vector<PoolId>& path : paths) {
    if (path.empty()) {
      return make_error(ErrorCode::kInvalidArgument, "empty path");
    }
    std::vector<std::size_t> chain;
    chain.reserve(path.size());
    std::unordered_set<TokenId> seen{token_in};
    TokenId cur = token_in;
    for (std::size_t k = 0; k < path.size(); ++k) {
      if (!path[k].valid() || path[k].value() >= graph.pool_count()) {
        return make_error(ErrorCode::kInvalidArgument, "unknown pool in path");
      }
      const amm::AnyPool& pool = graph.pool(path[k]);
      if (!pool.contains(cur)) {
        return make_error(ErrorCode::kInvalidArgument,
                          "path hop does not contain the incoming token");
      }
      const TokenId next = pool.other(cur);
      const bool last = k + 1 == path.size();
      if (last ? next != token_out : !seen.insert(next).second) {
        return make_error(ErrorCode::kInvalidArgument,
                          last ? "path does not end at the target token"
                               : "path revisits a token");
      }
      if (!last && next == token_out) {
        return make_error(ErrorCode::kInvalidArgument,
                          "path passes through the target token");
      }
      const std::uint64_t key =
          (std::uint64_t{path[k].value()} << 32) | cur.value();
      auto [it, inserted] = edge_of.try_emplace(key, inst.edges.size());
      if (inserted) {
        inst.edges.push_back(make_edge_kernel(pool, cur, next));
        inst.edge_from.push_back(node_index(cur));
        inst.edge_to.push_back(node_index(next));
      }
      chain.push_back(it->second);
      cur = next;
    }
    inst.support.push_back(std::move(chain));
  }
  inst.node_weight.assign(inst.node_tokens.size(), 0.0);
  inst.node_weight[inst.sink] = 1.0;
  inst.node_constrained.assign(inst.node_tokens.size(), 1);
  inst.node_constrained[inst.sink] = 0;
  return inst;
}

// ---------------------------------------------------------------------------
// FlowProblem
// ---------------------------------------------------------------------------

FlowProblem::FlowProblem(FlowInstance instance) : instance_(std::move(instance)) {
  const std::size_t num_nodes = instance_.node_tokens.size();
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(num_edges >= 1, "flow instance needs at least one edge");
  ARB_REQUIRE(instance_.edge_from.size() == num_edges &&
                  instance_.edge_to.size() == num_edges,
              "edge topology size mismatch");
  ARB_REQUIRE(instance_.node_weight.size() == num_nodes &&
                  instance_.node_constrained.size() == num_nodes,
              "node array size mismatch");
  std::vector<std::vector<std::size_t>> node_in(num_nodes);
  node_edges_.resize(num_nodes);
  for (std::size_t e = 0; e < num_edges; ++e) {
    ARB_REQUIRE(instance_.edge_from[e] < num_nodes &&
                    instance_.edge_to[e] < num_nodes &&
                    instance_.edge_from[e] != instance_.edge_to[e],
                "edge endpoints out of range");
    node_edges_[instance_.edge_from[e]].push_back(e);
    node_in[instance_.edge_to[e]].push_back(e);
    if (std::isfinite(instance_.edges[e].input_cap)) capped_.push_back(e);
  }
  node_out_count_.resize(num_nodes);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    node_out_count_[v] = node_edges_[v].size();
    node_edges_[v].insert(node_edges_[v].end(), node_in[v].begin(),
                          node_in[v].end());
    if (instance_.node_constrained[v]) constrained_nodes_.push_back(v);
  }
}

double FlowProblem::node_constraint(std::size_t v,
                                    const math::Vector& d) const {
  double g = -node_surplus_limit(v);
  for (std::size_t e : out_edges(v)) g += d[e];
  for (std::size_t e : in_edges(v)) g -= instance_.edges[e].swap(d[e]);
  return g;
}

double FlowProblem::objective(const math::Vector& d) const {
  ARB_REQUIRE(d.size() == instance_.edges.size(), "dimension mismatch");
  // value = Σ_e [w_to·F_e(d_e) − w_from·d_e]  (telescoped surplus form).
  double value = 0.0;
  for (std::size_t e = 0; e < instance_.edges.size(); ++e) {
    value += instance_.node_weight[instance_.edge_to[e]] *
                 instance_.edges[e].swap(d[e]) -
             instance_.node_weight[instance_.edge_from[e]] * d[e];
  }
  return -value;
}

math::Vector FlowProblem::objective_gradient(const math::Vector& d) const {
  math::Vector grad;
  objective_gradient_into(d, grad);
  return grad;
}

math::Matrix FlowProblem::objective_hessian(const math::Vector& d) const {
  math::Matrix hess;
  objective_hessian_into(d, hess);
  return hess;
}

void FlowProblem::objective_gradient_into(const math::Vector& d,
                                          math::Vector& grad) const {
  const std::size_t num_edges = instance_.edges.size();
  grad.assign(num_edges, 0.0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    grad[e] = -(instance_.node_weight[instance_.edge_to[e]] *
                    instance_.edges[e].swap_deriv(d[e]) -
                instance_.node_weight[instance_.edge_from[e]]);
  }
}

void FlowProblem::objective_hessian_into(const math::Vector& d,
                                         math::Matrix& hess) const {
  const std::size_t num_edges = instance_.edges.size();
  hess.assign(num_edges, num_edges, 0.0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    hess(e, e) = -instance_.node_weight[instance_.edge_to[e]] *
                 instance_.edges[e].swap_deriv2(d[e]);
  }
}

double FlowProblem::constraint(std::size_t i, const math::Vector& d) const {
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(i < num_inequalities(), "constraint index out of range");
  if (i < num_edges) {
    return -d[i];  // d_e >= 0
  }
  if (i < num_edges + constrained_nodes_.size()) {
    return node_constraint(constrained_nodes_[i - num_edges], d);
  }
  const std::size_t e = capped_[i - num_edges - constrained_nodes_.size()];
  return d[e] - instance_.edges[e].input_cap;  // tick cap
}

math::Vector FlowProblem::constraint_gradient(std::size_t i,
                                              const math::Vector& d) const {
  math::Vector grad;
  constraint_gradient_into(i, d, grad);
  return grad;
}

math::Matrix FlowProblem::constraint_hessian(std::size_t i,
                                             const math::Vector& d) const {
  math::Matrix hess;
  constraint_hessian_into(i, d, hess);
  return hess;
}

void FlowProblem::constraint_gradient_into(std::size_t i, const math::Vector& d,
                                           math::Vector& grad) const {
  const std::size_t num_edges = instance_.edges.size();
  grad.assign(num_edges, 0.0);
  if (i < num_edges) {
    grad[i] = -1.0;
    return;
  }
  if (i < num_edges + constrained_nodes_.size()) {
    const std::size_t v = constrained_nodes_[i - num_edges];
    for (std::size_t e : out_edges(v)) grad[e] += 1.0;
    for (std::size_t e : in_edges(v)) {
      grad[e] -= instance_.edges[e].swap_deriv(d[e]);
    }
    return;
  }
  grad[capped_[i - num_edges - constrained_nodes_.size()]] = 1.0;
}

void FlowProblem::constraint_hessian_into(std::size_t i, const math::Vector& d,
                                          math::Matrix& hess) const {
  const std::size_t num_edges = instance_.edges.size();
  hess.assign(num_edges, num_edges, 0.0);
  if (i >= num_edges && i < num_edges + constrained_nodes_.size()) {
    const std::size_t v = constrained_nodes_[i - num_edges];
    for (std::size_t e : in_edges(v)) {
      hess(e, e) = -instance_.edges[e].swap_deriv2(d[e]);
    }
  }
  // Nonnegativity and cap constraints are linear: zero Hessian.
}

// Each term below is the default's per-constraint term restricted to
// its nonzero entries, added in constraint index order (nonnegativity,
// nodes, caps) with the same expression, so every entry matches the
// default bit for bit (±0 aside).
void FlowProblem::centering_gradient_into(const math::Vector& d, double t,
                                          math::Vector& grad,
                                          optim::SolveWorkspace& /*ws*/) const {
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(d.size() == num_edges, "dimension mismatch");
  objective_gradient_into(d, grad);
  grad *= t;
  for (std::size_t e = 0; e < num_edges; ++e) {
    grad[e] += -1.0 / d[e];  // g = −d_e, ∇g = −1_e
  }
  for (std::size_t v : constrained_nodes_) {
    const double neg_g = -node_constraint(v, d);
    for (std::size_t e : out_edges(v)) grad[e] += 1.0 / neg_g;
    for (std::size_t e : in_edges(v)) {
      grad[e] += -instance_.edges[e].swap_deriv(d[e]) / neg_g;
    }
  }
  for (std::size_t e : capped_) {
    grad[e] += 1.0 / (-(d[e] - instance_.edges[e].input_cap));
  }
}

void FlowProblem::centering_hessian_into(const math::Vector& d, double t,
                                         math::Matrix& hess,
                                         optim::SolveWorkspace& ws) const {
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(d.size() == num_edges, "dimension mismatch");
  objective_hessian_into(d, hess);
  hess *= t;
  // Linear single-entry constraints (∇g = ±1_e, ∇²g = 0) add only the
  // outer product's diagonal entry  (s·u)·u  with s = 1/g².
  const auto add_unit = [&hess](std::size_t e, double g, double u) {
    const double inv_g = 1.0 / g;
    const double su = inv_g * inv_g * u;
    if (su != 0.0) hess(e, e) += su * u;
  };
  for (std::size_t e = 0; e < num_edges; ++e) add_unit(e, -d[e], -1.0);
  // Surplus constraint of node v: ∇g is +1 on out-edges and −F′ on
  // in-edges (held in ws.constraint_grad in node_edges_ order); ∇²g is
  // −F″ on the in-edge diagonal.
  math::Vector& node_grad = ws.constraint_grad;
  for (std::size_t v : constrained_nodes_) {
    const std::vector<std::size_t>& edges = node_edges_[v];
    const std::size_t out = node_out_count_[v];
    node_grad.resize(edges.size());
    for (std::size_t j = 0; j < edges.size(); ++j) {
      node_grad[j] =
          j < out ? 1.0 : -instance_.edges[edges[j]].swap_deriv(d[edges[j]]);
    }
    const double inv_g = 1.0 / node_constraint(v, d);
    const double scale = inv_g * inv_g;
    for (std::size_t a = 0; a < edges.size(); ++a) {
      const double su = scale * node_grad[a];
      if (su == 0.0) continue;
      for (std::size_t b = 0; b < edges.size(); ++b) {
        hess(edges[a], edges[b]) += su * node_grad[b];
      }
    }
    for (std::size_t e : in_edges(v)) {
      hess(e, e) += (-inv_g) * -instance_.edges[e].swap_deriv2(d[e]);
    }
  }
  for (std::size_t e : capped_) {
    add_unit(e, d[e] - instance_.edges[e].input_cap, 1.0);
  }
}

// ---------------------------------------------------------------------------
// solve_flow
// ---------------------------------------------------------------------------

Result<FlowSolution> solve_flow(const FlowInstance& instance,
                                const FlowOptions& options, FlowContext& ctx) {
  const std::size_t num_edges = instance.edges.size();
  const std::size_t num_nodes = instance.node_tokens.size();
  if (num_edges == 0) {
    return make_error(ErrorCode::kInvalidArgument, "flow instance has no edges");
  }
  if (instance.edge_from.size() != num_edges ||
      instance.edge_to.size() != num_edges ||
      instance.node_weight.size() != num_nodes ||
      instance.node_constrained.size() != num_nodes) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flow instance arrays are inconsistent");
  }
  const bool routing = instance.source != FlowInstance::kNoNode;
  if (routing &&
      (instance.source >= num_nodes || instance.sink >= num_nodes ||
       !(instance.budget >= 0.0) || !std::isfinite(instance.budget))) {
    return make_error(ErrorCode::kInvalidArgument,
                      "malformed routing source/sink/budget");
  }
  // The interior start only explores support chains, so every edge must
  // lie on one (otherwise its nonnegativity constraint has no interior).
  std::vector<std::uint8_t> covered(num_edges, 0);
  for (const auto& chain : instance.support) {
    for (std::size_t e : chain) {
      if (e >= num_edges) {
        return make_error(ErrorCode::kInvalidArgument,
                          "support chain references unknown edge");
      }
      covered[e] = 1;
    }
  }
  if (std::find(covered.begin(), covered.end(), std::uint8_t{0}) !=
      covered.end()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "every edge must lie on a support chain");
  }
  for (const LoopHopData& e : instance.edges) {
    const bool sane = std::isfinite(e.reserve_in) && e.reserve_in > 0.0 &&
                      std::isfinite(e.reserve_out) && e.reserve_out > 0.0 &&
                      e.gamma > 0.0 && e.gamma <= 1.0 &&
                      (e.kind != HopKind::kStable ||
                       (std::isfinite(e.stable_x0) && e.stable_x0 > 0.0 &&
                        std::isfinite(e.stable_y0) && e.stable_y0 > 0.0 &&
                        std::isfinite(e.stable_d) && e.stable_d > 0.0));
    if (!sane) {
      return make_error(ErrorCode::kNumericFailure,
                        "degenerate edge state in flow instance");
    }
    // A concentrated edge pinned at its range boundary admits no input:
    // the cap constraint has no strict interior. Callers drop such
    // edges/paths (the routers do) or handle the error.
    if (!(e.input_cap > 0.0)) {
      return make_error(ErrorCode::kInfeasible,
                        "tick-pinned edge admits no input");
    }
  }

  const auto trivial_solution = [&]() {
    FlowSolution sol;
    sol.edge_inputs.assign(num_edges, 0.0);
    sol.edge_outputs.assign(num_edges, 0.0);
    sol.node_surplus.assign(num_nodes, 0.0);
    sol.trivial = true;
    return sol;
  };
  if (routing && instance.budget == 0.0) return trivial_solution();

  NormalizedFlow nf = normalize_flow(instance);
  const FlowInstance& n = nf.instance;

  // Chain seeds (normalized units of each chain's head token). Cycle
  // chains seed at half their Möbius-proxy optimum — nonpositive means
  // no profitable direction, the zero flow is optimal (the flow-form
  // price-product gate). Path chains split half the budget evenly.
  std::vector<double> seeds(n.support.size(), 0.0);
  bool any_seed = false;
  for (std::size_t c = 0; c < n.support.size(); ++c) {
    const auto& chain = n.support[c];
    if (chain.empty()) continue;
    if (chain_is_cycle(n, chain)) {
      const double best = chain_mobius(n, chain).optimal_input();
      if (best > 0.0) {
        seeds[c] = 0.5 * best;
        any_seed = true;
      }
    } else if (n.budget > 0.0) {
      seeds[c] = 0.5 * n.budget / static_cast<double>(n.support.size());
      any_seed = true;
    }
  }
  if (!any_seed) return trivial_solution();

  FlowProblem problem(n);
  auto start = flow_interior_start(problem, seeds, options.interior_margin);
  if (!start) return start.error();

  const optim::BarrierSolver solver(options.barrier);
  auto solved = solver.solve_into(problem, *start, ctx.workspace, ctx.report);
  if (!solved) return solved.error();

  FlowSolution sol;
  sol.edge_inputs.resize(num_edges);
  sol.edge_outputs.resize(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e) {
    const double dn = std::max(0.0, ctx.report.x[e]);
    const LoopHopData& hop = problem.instance().edges[e];
    sol.edge_inputs[e] = dn * nf.node_unit[instance.edge_from[e]];
    sol.edge_outputs[e] = hop.swap(dn) * nf.node_unit[instance.edge_to[e]];
    // Plan honesty, matching solve_convex: report what execution attains
    // on non-CPMM venues, not the kernel's closed form.
    if (instance.graph != nullptr && hop.kind != HopKind::kCpmm) {
      sol.edge_outputs[e] = instance.graph->pool(hop.pool)
                                .quote(hop.token_in, sol.edge_inputs[e])
                                .amount_out;
    }
  }
  sol.node_surplus.assign(num_nodes, 0.0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    sol.node_surplus[instance.edge_to[e]] += sol.edge_outputs[e];
    sol.node_surplus[instance.edge_from[e]] -= sol.edge_inputs[e];
  }
  for (std::size_t v = 0; v < num_nodes; ++v) {
    sol.objective += instance.node_weight[v] * sol.node_surplus[v];
  }
  sol.duality_gap = ctx.report.duality_gap * nf.scale;
  sol.iterations = ctx.report.total_newton_iterations;
  return sol;
}

Result<FlowSolution> solve_flow(const FlowInstance& instance,
                                const FlowOptions& options) {
  FlowContext ctx;
  return solve_flow(instance, options, ctx);
}

// ---------------------------------------------------------------------------
// attribute_support
// ---------------------------------------------------------------------------

PathAttribution attribute_support(const FlowInstance& instance,
                                  const FlowSolution& solution) {
  PathAttribution att;
  att.inputs.assign(instance.support.size(), 0.0);
  att.outputs.assign(instance.support.size(), 0.0);
  std::vector<double> rem_in = solution.edge_inputs;

  for (std::size_t c = 0; c < instance.support.size(); ++c) {
    const auto& chain = instance.support[c];
    if (chain.empty()) continue;
    // Unit propagation: carrying 1 source unit along the chain draws
    // unit[k] of edge k's input (linear: a path's share of an edge's
    // output is proportional to its share of the edge's input).
    std::vector<double> unit(chain.size());
    double carry = 1.0;
    bool dead = false;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const std::size_t e = chain[k];
      unit[k] = carry;
      if (!(solution.edge_inputs[e] > 0.0)) {
        dead = true;
        break;
      }
      carry *= solution.edge_outputs[e] / solution.edge_inputs[e];
    }
    if (dead) continue;
    double amount = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < chain.size(); ++k) {
      if (unit[k] > 0.0) amount = std::min(amount, rem_in[chain[k]] / unit[k]);
    }
    if (!(amount > 0.0) || !std::isfinite(amount)) continue;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      rem_in[chain[k]] = std::max(0.0, rem_in[chain[k]] - amount * unit[k]);
    }
    att.inputs[c] = amount;
    att.outputs[c] = amount * carry;
  }
  return att;
}

}  // namespace arb::core
