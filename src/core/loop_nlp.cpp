#include "core/loop_nlp.hpp"

#include <cmath>

#include "amm/any_pool.hpp"
#include "amm/path.hpp"
#include "common/error.hpp"

namespace arb::core {

double LoopHopData::swap(double d) const {
  if (kind == HopKind::kStable) {
    // Fixed-D closed form in raw units (the stable curve is not
    // scale-invariant): F(d) = γ·(y₀ − Y(x₀ + d)).
    const amm::StableCurve curve{stable_d, stable_ann};
    const double out_raw =
        gamma * std::max(0.0, stable_y0 - curve.y(stable_x0 + d * unit_in));
    return out_raw / unit_out;
  }
  // CPMM on real reserves; for concentrated hops the same formula on the
  // virtual reserves is exactly the in-range V3 swap (the cap constraint
  // keeps iterates in range).
  const double effective = gamma * d;
  return effective * reserve_out / (reserve_in + effective);
}

double LoopHopData::swap_deriv(double d) const {
  if (kind == HopKind::kStable) {
    const amm::StableCurve curve{stable_d, stable_ann};
    return -gamma * curve.dy_dx(stable_x0 + d * unit_in) * unit_in / unit_out;
  }
  const double denom = reserve_in + gamma * d;
  return gamma * reserve_in * reserve_out / (denom * denom);
}

double LoopHopData::swap_deriv2(double d) const {
  if (kind == HopKind::kStable) {
    const amm::StableCurve curve{stable_d, stable_ann};
    return -gamma * curve.d2y_dx2(stable_x0 + d * unit_in) * unit_in *
           unit_in / unit_out;
  }
  const double denom = reserve_in + gamma * d;
  return -2.0 * gamma * gamma * reserve_in * reserve_out /
         (denom * denom * denom);
}

namespace {

/// In-range input cap (raw units) of a concentrated position sold from
/// `token_in`: 1/√P + γ·d/L ≤ 1/√lo selling token0, √P + γ·d/L ≤ √hi
/// selling token1.
double concentrated_input_cap(const amm::ConcentratedPool& pool,
                              TokenId token_in) {
  const double gamma = 1.0 - pool.fee();
  const double liq = pool.liquidity();
  const double sp = pool.sqrt_price();
  return token_in == pool.token0()
             ? liq * (1.0 / pool.sqrt_lo() - 1.0 / sp) / gamma
             : liq * (pool.sqrt_hi() - sp) / gamma;
}

}  // namespace

bool edge_accepts_input(const amm::AnyPool& pool, TokenId token_in) {
  return pool.kind() != amm::PoolKind::kConcentrated ||
         concentrated_input_cap(pool.concentrated(), token_in) > 0.0;
}

LoopHopData make_edge_kernel(const amm::AnyPool& any, TokenId token_in,
                             TokenId token_out) {
  LoopHopData hop;
  hop.token_in = token_in;
  hop.token_out = token_out;
  hop.pool = any.id();
  switch (any.kind()) {
    case amm::PoolKind::kCpmm: {
      const amm::CpmmPool& pool = any.cpmm();
      hop.kind = HopKind::kCpmm;
      hop.reserve_in = pool.reserve_of(token_in);
      hop.reserve_out = pool.reserve_of(token_out);
      hop.gamma = pool.gamma();
      break;
    }
    case amm::PoolKind::kStable: {
      const amm::StablePool& pool = any.stable();
      const amm::StableCurve curve = pool.curve();
      hop.kind = HopKind::kStable;
      hop.gamma = 1.0 - pool.fee();
      hop.stable_d = curve.d;
      hop.stable_ann = curve.ann;
      hop.stable_x0 = pool.reserve_of(token_in);
      hop.stable_y0 = pool.reserve_of(token_out);
      // Osculating CPMM proxy: reserves (X_p, Y_p) whose CPMM swap
      // matches F'(0) = γ·a and F''(0) = γ·b (a = −Y'(x₀) > 0,
      // b = −Y''(x₀) < 0): X_p = −2γ·a/b, Y_p = a·X_p. Used only by
      // the Möbius chain machinery (interior starts, warm projection);
      // swap()/derivs evaluate the exact closed form.
      {
        const double a = -curve.dy_dx(hop.stable_x0);
        const double b = -curve.d2y_dx2(hop.stable_x0);
        hop.reserve_in = -2.0 * hop.gamma * a / b;
        hop.reserve_out = a * hop.reserve_in;
      }
      break;
    }
    case amm::PoolKind::kConcentrated: {
      const amm::ConcentratedPool& pool = any.concentrated();
      hop.kind = HopKind::kConcentrated;
      hop.gamma = 1.0 - pool.fee();
      const double liq = pool.liquidity();
      const double sp = pool.sqrt_price();
      if (token_in == pool.token0()) {
        // Selling token0: virtual reserves x_v = L/√P, y_v = L·√P;
        // the CPMM formula on them is exactly L·(√P − √P').
        hop.reserve_in = liq / sp;
        hop.reserve_out = liq * sp;
      } else {
        // Selling token1: x_v = L·√P, y_v = L/√P.
        hop.reserve_in = liq * sp;
        hop.reserve_out = liq / sp;
      }
      hop.input_cap = concentrated_input_cap(pool, token_in);
      break;
    }
  }
  return hop;
}

Result<std::vector<LoopHopData>> make_hop_data(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, std::size_t start_offset) {
  const graph::Cycle rotated = cycle.rotated(start_offset);
  const std::size_t n = rotated.length();
  std::vector<LoopHopData> hops(n);
  for (std::size_t i = 0; i < n; ++i) {
    const amm::AnyPool& any = graph.pool(rotated.pools()[i]);
    const TokenId token_in = rotated.tokens()[i];
    const TokenId token_out = rotated.tokens()[(i + 1) % n];
    auto price_in = prices.price(token_in);
    if (!price_in) return price_in.error();
    auto price_out = prices.price(token_out);
    if (!price_out) return price_out.error();
    hops[i] = make_edge_kernel(any, token_in, token_out);
    hops[i].price_in = *price_in;
    hops[i].price_out = *price_out;
  }
  return hops;
}

// ---------------------------------------------------------------------------
// ReducedLoopProblem
// ---------------------------------------------------------------------------

ReducedLoopProblem::ReducedLoopProblem(std::vector<LoopHopData> hops)
    : hops_(std::move(hops)) {
  ARB_REQUIRE(hops_.size() >= 2, "loop needs at least 2 hops");
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (std::isfinite(hops_[i].input_cap)) capped_.push_back(i);
  }
}

double ReducedLoopProblem::objective(const math::Vector& d) const {
  ARB_REQUIRE(d.size() == hops_.size(), "dimension mismatch");
  // profit = Σ_i [P_{t_{i+1}}·F_i(d_i) − P_{t_i}·d_i]  (telescoped form).
  double profit = 0.0;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    profit += hops_[i].price_out * hops_[i].swap(d[i]) -
              hops_[i].price_in * d[i];
  }
  return -profit;
}

math::Vector ReducedLoopProblem::objective_gradient(
    const math::Vector& d) const {
  math::Vector grad;
  objective_gradient_into(d, grad);
  return grad;
}

math::Matrix ReducedLoopProblem::objective_hessian(
    const math::Vector& d) const {
  math::Matrix hess;
  objective_hessian_into(d, hess);
  return hess;
}

void ReducedLoopProblem::objective_gradient_into(const math::Vector& d,
                                                 math::Vector& grad) const {
  grad.assign(hops_.size(), 0.0);
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    grad[i] = -(hops_[i].price_out * hops_[i].swap_deriv(d[i]) -
                hops_[i].price_in);
  }
}

void ReducedLoopProblem::objective_hessian_into(const math::Vector& d,
                                                math::Matrix& hess) const {
  hess.assign(hops_.size(), hops_.size(), 0.0);
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    hess(i, i) = -hops_[i].price_out * hops_[i].swap_deriv2(d[i]);
  }
}

double ReducedLoopProblem::constraint(std::size_t i,
                                      const math::Vector& d) const {
  const std::size_t n = hops_.size();
  ARB_REQUIRE(i < 2 * n + capped_.size(), "constraint index out of range");
  if (i < n) {
    return -d[i];  // d_i >= 0
  }
  if (i < 2 * n) {
    const std::size_t k = i - n;  // flow: d_{k+1} <= F_k(d_k)
    return d[(k + 1) % n] - hops_[k].swap(d[k]);
  }
  const std::size_t k = capped_[i - 2 * n];  // tick cap: d_k <= cap_k
  return d[k] - hops_[k].input_cap;
}

math::Vector ReducedLoopProblem::constraint_gradient(
    std::size_t i, const math::Vector& d) const {
  math::Vector grad;
  constraint_gradient_into(i, d, grad);
  return grad;
}

math::Matrix ReducedLoopProblem::constraint_hessian(
    std::size_t i, const math::Vector& d) const {
  math::Matrix hess;
  constraint_hessian_into(i, d, hess);
  return hess;
}

void ReducedLoopProblem::constraint_gradient_into(std::size_t i,
                                                  const math::Vector& d,
                                                  math::Vector& grad) const {
  const std::size_t n = hops_.size();
  grad.assign(n, 0.0);
  if (i < n) {
    grad[i] = -1.0;
    return;
  }
  if (i < 2 * n) {
    const std::size_t k = i - n;
    grad[(k + 1) % n] += 1.0;
    grad[k] -= hops_[k].swap_deriv(d[k]);
    return;
  }
  grad[capped_[i - 2 * n]] = 1.0;  // linear cap constraint
}

void ReducedLoopProblem::constraint_hessian_into(std::size_t i,
                                                 const math::Vector& d,
                                                 math::Matrix& hess) const {
  const std::size_t n = hops_.size();
  hess.assign(n, n, 0.0);
  if (i >= n && i < 2 * n) {
    const std::size_t k = i - n;
    hess(k, k) = -hops_[k].swap_deriv2(d[k]);
  }
  // Cap constraints (i >= 2n) are linear: zero Hessian.
}

// Each term below is the default's per-constraint term restricted to
// its nonzero entries, added in constraint index order (nonnegativity,
// flow, caps) with the same expression, so every entry matches the
// default bit for bit (±0 aside).
void ReducedLoopProblem::centering_gradient_into(
    const math::Vector& d, double t, math::Vector& grad,
    optim::SolveWorkspace& /*ws*/) const {
  const std::size_t n = hops_.size();
  ARB_REQUIRE(d.size() == n, "dimension mismatch");
  objective_gradient_into(d, grad);
  grad *= t;
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] += -1.0 / d[i];  // g = −d_i, ∇g = −1_i
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t next = (k + 1) % n;
    const double neg_g = -(d[next] - hops_[k].swap(d[k]));
    grad[next] += 1.0 / neg_g;
    grad[k] += -hops_[k].swap_deriv(d[k]) / neg_g;
  }
  for (std::size_t k : capped_) {
    grad[k] += 1.0 / (-(d[k] - hops_[k].input_cap));
  }
}

void ReducedLoopProblem::centering_hessian_into(
    const math::Vector& d, double t, math::Matrix& hess,
    optim::SolveWorkspace& /*ws*/) const {
  const std::size_t n = hops_.size();
  ARB_REQUIRE(d.size() == n, "dimension mismatch");
  objective_hessian_into(d, hess);
  hess *= t;
  // Linear single-entry constraints (∇g = ±1_i, ∇²g = 0) add only the
  // outer product's diagonal entry  (s·u)·u  with s = 1/g².
  const auto add_unit = [&hess](std::size_t i, double g, double u) {
    const double inv_g = 1.0 / g;
    const double su = inv_g * inv_g * u;
    if (su != 0.0) hess(i, i) += su * u;
  };
  for (std::size_t i = 0; i < n; ++i) add_unit(i, -d[i], -1.0);
  // Flow constraint k: ∇g = (+1 at k+1, −F′_k at k), ∇²g = −F″_k at (k, k).
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t index[2] = {(k + 1) % n, k};
    const double grad[2] = {1.0, -hops_[k].swap_deriv(d[k])};
    const double inv_g = 1.0 / (d[index[0]] - hops_[k].swap(d[k]));
    const double scale = inv_g * inv_g;
    for (std::size_t a = 0; a < 2; ++a) {
      const double su = scale * grad[a];
      if (su == 0.0) continue;
      for (std::size_t b = 0; b < 2; ++b) {
        hess(index[a], index[b]) += su * grad[b];
      }
    }
    hess(k, k) += (-inv_g) * -hops_[k].swap_deriv2(d[k]);
  }
  for (std::size_t k : capped_) add_unit(k, d[k] - hops_[k].input_cap, 1.0);
}

// ---------------------------------------------------------------------------
// FullLoopProblem
// ---------------------------------------------------------------------------

FullLoopProblem::FullLoopProblem(std::vector<LoopHopData> hops)
    : hops_(std::move(hops)) {
  ARB_REQUIRE(hops_.size() >= 2, "loop needs at least 2 hops");
}

double FullLoopProblem::objective(const math::Vector& z) const {
  const std::size_t n = hops_.size();
  ARB_REQUIRE(z.size() == 2 * n, "dimension mismatch");
  // profit = Σ_i P_{t_{i+1}}·(out_i − in_{i+1}).
  double profit = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    profit += hops_[i].price_out * (z[n + i] - z[(i + 1) % n]);
  }
  return -profit;
}

math::Vector FullLoopProblem::objective_gradient(const math::Vector& z) const {
  math::Vector grad;
  objective_gradient_into(z, grad);
  return grad;
}

math::Matrix FullLoopProblem::objective_hessian(const math::Vector& z) const {
  math::Matrix hess;
  objective_hessian_into(z, hess);
  return hess;
}

void FullLoopProblem::objective_gradient_into(const math::Vector& z,
                                              math::Vector& grad) const {
  const std::size_t n = hops_.size();
  ARB_REQUIRE(z.size() == 2 * n, "dimension mismatch");
  grad.assign(2 * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    grad[n + i] += -hops_[i].price_out;     // d/d out_i
    grad[(i + 1) % n] += hops_[i].price_out;  // d/d in_{i+1}
  }
}

void FullLoopProblem::objective_hessian_into(const math::Vector& z,
                                             math::Matrix& hess) const {
  ARB_REQUIRE(z.size() == 2 * hops_.size(), "dimension mismatch");
  hess.assign(2 * hops_.size(), 2 * hops_.size(), 0.0);  // linear objective
}

double FullLoopProblem::constraint(std::size_t i, const math::Vector& z) const {
  const std::size_t n = hops_.size();
  ARB_REQUIRE(i < 3 * n, "constraint index out of range");
  if (i < n) {
    return -z[i];  // in_i >= 0
  }
  if (i < 2 * n) {
    const std::size_t k = i - n;  // out_k <= F_k(in_k)
    return z[n + k] - hops_[k].swap(z[k]);
  }
  const std::size_t k = i - 2 * n;  // in_{k+1} <= out_k
  return z[(k + 1) % n] - z[n + k];
}

math::Vector FullLoopProblem::constraint_gradient(std::size_t i,
                                                  const math::Vector& z) const {
  math::Vector grad;
  constraint_gradient_into(i, z, grad);
  return grad;
}

math::Matrix FullLoopProblem::constraint_hessian(std::size_t i,
                                                 const math::Vector& z) const {
  math::Matrix hess;
  constraint_hessian_into(i, z, hess);
  return hess;
}

void FullLoopProblem::constraint_gradient_into(std::size_t i,
                                               const math::Vector& z,
                                               math::Vector& grad) const {
  const std::size_t n = hops_.size();
  grad.assign(2 * n, 0.0);
  if (i < n) {
    grad[i] = -1.0;
    return;
  }
  if (i < 2 * n) {
    const std::size_t k = i - n;
    grad[n + k] = 1.0;
    grad[k] = -hops_[k].swap_deriv(z[k]);
    return;
  }
  const std::size_t k = i - 2 * n;
  grad[(k + 1) % n] += 1.0;
  grad[n + k] -= 1.0;
}

void FullLoopProblem::constraint_hessian_into(std::size_t i,
                                              const math::Vector& z,
                                              math::Matrix& hess) const {
  const std::size_t n = hops_.size();
  hess.assign(2 * n, 2 * n, 0.0);
  if (i >= n && i < 2 * n) {
    const std::size_t k = i - n;
    hess(k, k) = -hops_[k].swap_deriv2(z[k]);
  }
}

// ---------------------------------------------------------------------------
// Interior starts
// ---------------------------------------------------------------------------

Result<math::Vector> reduced_interior_start(
    const std::vector<LoopHopData>& hops) {
  const std::size_t n = hops.size();

  // Single-start optimum of this rotation via the Möbius closed form.
  // For non-CPMM hops the reserves are the osculating proxy, so
  // best_input is approximate there — but its sign is exact (the proxy
  // matches F'(0), hence the marginal price product at 0), which is all
  // feasibility needs; the magnitude only seeds the halving search.
  amm::MobiusCoefficients m = amm::MobiusCoefficients::identity();
  for (const LoopHopData& hop : hops) {
    m = m.then_hop(hop.reserve_in, hop.reserve_out, hop.gamma);
  }
  const double best_input = m.optimal_input();
  if (best_input <= 0.0) {
    return make_error(ErrorCode::kInfeasible,
                      "loop has no strict interior (price product <= 1)");
  }

  // Feed a fraction of the optimum around the loop, retaining a whisker
  // at each hop so every flow constraint holds strictly; shrink the scale
  // until the wrap-around constraint d_0 < F_{n-1}(d_{n-1}) is strict too.
  constexpr double kRetention = 1e-9;
  constexpr double kCapHeadroom = 1.0 - 1e-6;
  double scale = 0.5;
  for (int attempt = 0; attempt < 80; ++attempt, scale *= 0.5) {
    math::Vector d(n);
    d[0] = best_input * scale;
    bool positive = d[0] > 0.0;
    // Tick caps shrink with the inputs, so a violation is recoverable by
    // halving (unlike positivity underflow, which never is).
    bool in_caps = d[0] < hops[0].input_cap * kCapHeadroom;
    for (std::size_t i = 0; i + 1 < n && positive && in_caps; ++i) {
      d[i + 1] = hops[i].swap(d[i]) * (1.0 - kRetention);
      positive = d[i + 1] > 0.0;
      in_caps = d[i + 1] < hops[i + 1].input_cap * kCapHeadroom;
    }
    if (!positive) break;
    if (!in_caps) continue;
    const double wrap_output = hops[n - 1].swap(d[n - 1]);
    if (wrap_output * (1.0 - kRetention) > d[0]) {
      return d;
    }
  }
  return make_error(ErrorCode::kInfeasible,
                    "could not construct strictly feasible interior point");
}

Result<math::Vector> full_interior_start(const std::vector<LoopHopData>& hops) {
  auto reduced = reduced_interior_start(hops);
  if (!reduced) return reduced.error();
  const std::size_t n = hops.size();
  const math::Vector& d = *reduced;
  math::Vector z(2 * n);
  for (std::size_t i = 0; i < n; ++i) z[i] = d[i];
  for (std::size_t i = 0; i < n; ++i) {
    // out_i strictly between in_{i+1} and F_i(in_i).
    z[n + i] = 0.5 * (d[(i + 1) % n] + hops[i].swap(d[i]));
  }
  return z;
}

}  // namespace arb::core
