#pragma once

/// \file loop_nlp.hpp
/// The two convex-program transcriptions of the paper's equation (8).
///
/// Notation: the loop rotation fixes hops i = 0..n−1; hop i swaps token
/// t_i into token t_{i+1 mod n} against reserves (x_i, y_i) with fee
/// multiplier γ_i, so its output is F_i(d) = γ_i·d·y_i / (x_i + γ_i·d).
/// P_i is the CEX price of t_i.
///
/// ReducedLoopProblem (n variables d_i = input of hop i):
///   The CPMM constraint of eq. (8) is active at any optimum (output is
///   monotone in it), so out_i = F_i(d_i) can be substituted. Profit
///   telescopes to Σ_i [P_{t_{i+1}}·F_i(d_i) − P_{t_i}·d_i]; constraints
///   d_i ≥ 0 and flow d_{i+1} ≤ F_i(d_i). Concave objective, convex
///   feasible set — n-dimensional.
///
/// FullLoopProblem (2n variables: in_i, out_i — the direct transcription):
///   maximize Σ_i P_{t_{i+1}}·(out_i − in_{i+1})
///   s.t. out_i ≤ F_i(in_i)        (the CPMM constraint of eq. (8),
///                                  rewritten in its convex form — the
///                                  bilinear (x+γ·in)(y−out) ≥ x·y defines
///                                  the same set),
///        in_{i+1} ≤ out_i, in_i ≥ 0.
///
/// Both are exposed so tests can verify they attain the same optimum.
/// Problems implement optim::NlpProblem in minimization form (f = −profit).

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"
#include "optim/problem.hpp"

namespace arb::core {

/// Which analytic hop kernel `LoopHopData::swap` evaluates.
enum class HopKind : std::uint8_t {
  kCpmm = 0,          ///< F(d) = γ·d·y / (x + γ·d) on real reserves
  kStable = 1,        ///< fixed-D StableSwap closed form (amm::StableCurve)
  kConcentrated = 2,  ///< CPMM form on *virtual* reserves, capped in range
};

/// Per-hop data shared by both transcriptions.
///
/// CPMM hops use the real reserves. Concentrated hops store the virtual
/// reserves (x_v = L/√P, y_v = L·√P oriented by trade direction), on
/// which the CPMM formula is *exactly* the in-range V3 swap function;
/// `input_cap` bounds the input to the range, and the barrier adds a
/// cap constraint so iterates never cross a tick. Stable hops evaluate
/// the fixed-D closed-form curve; their `reserve_in`/`reserve_out` hold
/// an *osculating CPMM proxy* (matching F'(0) and F''(0)) so the Möbius
/// chain machinery used for interior starts and warm-start projection
/// keeps working, while swap()/derivs use the exact kernel.
struct LoopHopData {
  double reserve_in = 0.0;   ///< x_i (virtual / proxy for non-CPMM)
  double reserve_out = 0.0;  ///< y_i (virtual / proxy for non-CPMM)
  double gamma = 0.0;        ///< 1 − fee
  double price_in = 0.0;     ///< P_{t_i}
  double price_out = 0.0;    ///< P_{t_{i+1}}
  TokenId token_in;
  TokenId token_out;
  PoolId pool;
  HopKind kind = HopKind::kCpmm;

  /// Stable kernel state (kind == kStable): invariant, Ann = 4A, and the
  /// raw-unit balances of the input/output sides at solve time.
  double stable_d = 0.0;
  double stable_ann = 0.0;
  double stable_x0 = 0.0;
  double stable_y0 = 0.0;

  /// Normalization units (raw tokens per normalized unit). The CPMM and
  /// concentrated kernels are scale-equivariant so normalization simply
  /// rescales their reserves; the stable curve is not, so its kernel
  /// evaluates in raw units and converts through these factors.
  double unit_in = 1.0;
  double unit_out = 1.0;

  /// Largest admissible input (normalized units). Finite only for
  /// concentrated hops, where it is the exact in-range input bound.
  double input_cap = std::numeric_limits<double>::infinity();

  [[nodiscard]] double swap(double d) const;         ///< F_i(d)
  [[nodiscard]] double swap_deriv(double d) const;   ///< F_i'(d)
  [[nodiscard]] double swap_deriv2(double d) const;  ///< F_i''(d) (< 0)
};

/// Builds the analytic kernel for one directed pool traversal (the
/// per-kind dispatch shared by the loop transcriptions and the flow-form
/// problem layer): CPMM real reserves / stable closed-form state +
/// osculating proxy / concentrated virtual reserves + tick cap. Prices
/// are left at zero — callers that monetize fill them in.
/// Precondition: the pool contains both tokens and they are its two
/// distinct sides.
[[nodiscard]] LoopHopData make_edge_kernel(const amm::AnyPool& pool,
                                           TokenId token_in,
                                           TokenId token_out);

/// True iff make_edge_kernel(pool, token_in, ·).input_cap > 0, without
/// building the kernel: only a concentrated position pinned at the range
/// boundary it would move toward admits no input. Evaluates no curve.
[[nodiscard]] bool edge_accepts_input(const amm::AnyPool& pool,
                                      TokenId token_in);

/// Extracts per-hop data for a cycle rotation, dispatching on pool kind
/// (CPMM real reserves / stable closed-form state + proxy / concentrated
/// virtual reserves + cap). Fails with kNotFound when a CEX price is
/// missing.
[[nodiscard]] Result<std::vector<LoopHopData>> make_hop_data(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, std::size_t start_offset = 0);

class ReducedLoopProblem final : public optim::NlpProblem {
 public:
  explicit ReducedLoopProblem(std::vector<LoopHopData> hops);

  [[nodiscard]] std::size_t dimension() const override { return hops_.size(); }
  /// 2n base constraints (n × d_i ≥ 0, n × flow) plus one cap constraint
  /// per hop with a finite input_cap. All-CPMM loops have no caps, so
  /// their constraint layout — and hence the solver's arithmetic — is
  /// unchanged from the CPMM-only transcription.
  [[nodiscard]] std::size_t num_inequalities() const override {
    return 2 * hops_.size() + capped_.size();
  }
  [[nodiscard]] double objective(const math::Vector& d) const override;
  [[nodiscard]] math::Vector objective_gradient(
      const math::Vector& d) const override;
  [[nodiscard]] math::Matrix objective_hessian(
      const math::Vector& d) const override;
  [[nodiscard]] double constraint(std::size_t i,
                                  const math::Vector& d) const override;
  [[nodiscard]] math::Vector constraint_gradient(
      std::size_t i, const math::Vector& d) const override;
  [[nodiscard]] math::Matrix constraint_hessian(
      std::size_t i, const math::Vector& d) const override;

  // Allocation-free variants used by the solver fast path.
  void objective_gradient_into(const math::Vector& d,
                               math::Vector& grad) const override;
  void objective_hessian_into(const math::Vector& d,
                              math::Matrix& hess) const override;
  void constraint_gradient_into(std::size_t i, const math::Vector& d,
                                math::Vector& grad) const override;
  void constraint_hessian_into(std::size_t i, const math::Vector& d,
                               math::Matrix& hess) const override;

  // Structured centering assembly in O(n): nonnegativity and cap terms
  // on the diagonal, one 2×2 block per flow constraint over
  // (d_{k+1}, d_k). Bit-identical to the NlpProblem defaults (see
  // problem.hpp).
  void centering_gradient_into(const math::Vector& d, double t,
                               math::Vector& grad,
                               optim::SolveWorkspace& ws) const override;
  void centering_hessian_into(const math::Vector& d, double t,
                              math::Matrix& hess,
                              optim::SolveWorkspace& ws) const override;

  [[nodiscard]] const std::vector<LoopHopData>& hops() const { return hops_; }

  /// Monetized profit (positive sign) at inputs d.
  [[nodiscard]] double profit_usd(const math::Vector& d) const {
    return -objective(d);
  }

 private:
  std::vector<LoopHopData> hops_;
  /// Hop indices with finite input_cap, in hop order; constraint
  /// 2n + j is d[capped_[j]] − cap ≤ 0.
  std::vector<std::size_t> capped_;
};

class FullLoopProblem final : public optim::NlpProblem {
 public:
  explicit FullLoopProblem(std::vector<LoopHopData> hops);

  /// Layout: z = (in_0..in_{n−1}, out_0..out_{n−1}).
  [[nodiscard]] std::size_t dimension() const override {
    return 2 * hops_.size();
  }
  /// Constraints: n × (in ≥ 0), n × (out ≤ F(in)), n × (in_{i+1} ≤ out_i).
  [[nodiscard]] std::size_t num_inequalities() const override {
    return 3 * hops_.size();
  }
  [[nodiscard]] double objective(const math::Vector& z) const override;
  [[nodiscard]] math::Vector objective_gradient(
      const math::Vector& z) const override;
  [[nodiscard]] math::Matrix objective_hessian(
      const math::Vector& z) const override;
  [[nodiscard]] double constraint(std::size_t i,
                                  const math::Vector& z) const override;
  [[nodiscard]] math::Vector constraint_gradient(
      std::size_t i, const math::Vector& z) const override;
  [[nodiscard]] math::Matrix constraint_hessian(
      std::size_t i, const math::Vector& z) const override;

  // Allocation-free variants used by the solver fast path.
  void objective_gradient_into(const math::Vector& z,
                               math::Vector& grad) const override;
  void objective_hessian_into(const math::Vector& z,
                              math::Matrix& hess) const override;
  void constraint_gradient_into(std::size_t i, const math::Vector& z,
                                math::Vector& grad) const override;
  void constraint_hessian_into(std::size_t i, const math::Vector& z,
                               math::Matrix& hess) const override;

  [[nodiscard]] const std::vector<LoopHopData>& hops() const { return hops_; }
  [[nodiscard]] double profit_usd(const math::Vector& z) const {
    return -objective(z);
  }

 private:
  std::vector<LoopHopData> hops_;
};

/// Builds a strictly feasible interior start for the reduced problem:
/// half the single-start optimum fed around the loop with a whisker of
/// retention at each hop. Fails with kInfeasible when the loop has no
/// interior (price product ≤ 1 ⇒ the only feasible point is 0).
[[nodiscard]] Result<math::Vector> reduced_interior_start(
    const std::vector<LoopHopData>& hops);

/// Lifts a reduced interior point to the full problem's variables:
/// out_i strictly between in_{i+1} and F_i(in_i).
[[nodiscard]] Result<math::Vector> full_interior_start(
    const std::vector<LoopHopData>& hops);

}  // namespace arb::core
