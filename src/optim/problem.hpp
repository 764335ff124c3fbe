#pragma once

/// \file problem.hpp
/// Abstract smooth NLP in standard form:
///
///   minimize f(x)   subject to  g_i(x) <= 0,  i = 0..m-1.
///
/// The arbitrage strategies maximize concave monetized profit, so they
/// implement this interface with f = -profit (convex) and convex g_i;
/// under those conditions BarrierSolver converges to the global optimum.

#include <cstddef>

#include "math/matrix.hpp"
#include "math/vector.hpp"

namespace arb::optim {

class SolveWorkspace;

class NlpProblem {
 public:
  virtual ~NlpProblem() = default;

  /// Number of decision variables.
  [[nodiscard]] virtual std::size_t dimension() const = 0;

  /// Number of inequality constraints g_i(x) <= 0.
  [[nodiscard]] virtual std::size_t num_inequalities() const = 0;

  [[nodiscard]] virtual double objective(const math::Vector& x) const = 0;
  [[nodiscard]] virtual math::Vector objective_gradient(
      const math::Vector& x) const = 0;
  [[nodiscard]] virtual math::Matrix objective_hessian(
      const math::Vector& x) const = 0;

  [[nodiscard]] virtual double constraint(std::size_t i,
                                          const math::Vector& x) const = 0;
  [[nodiscard]] virtual math::Vector constraint_gradient(
      std::size_t i, const math::Vector& x) const = 0;
  [[nodiscard]] virtual math::Matrix constraint_hessian(
      std::size_t i, const math::Vector& x) const = 0;

  // Buffer-writing variants used by the allocation-free solver path.
  // Defaults delegate to the allocating virtuals above, so existing
  // problems keep working; hot transcriptions (loop_nlp, phase-1)
  // override these to write directly into the caller's buffer.
  virtual void objective_gradient_into(const math::Vector& x,
                                       math::Vector& grad) const;
  virtual void objective_hessian_into(const math::Vector& x,
                                      math::Matrix& hess) const;
  virtual void constraint_gradient_into(std::size_t i, const math::Vector& x,
                                        math::Vector& grad) const;
  virtual void constraint_hessian_into(std::size_t i, const math::Vector& x,
                                       math::Matrix& hess) const;

  // Centering assembly: the barrier solver's single entry point for the
  // Newton system of  t·f(x) − Σᵢ log(−gᵢ(x)),  evaluated at a strictly
  // feasible x. The defaults loop over the m constraints through the
  // per-constraint virtuals above, accumulating dense n-vectors and n×n
  // matrices in ws.constraint_grad / ws.constraint_hess (O(m·n²) per
  // Hessian). Sparse transcriptions override them to touch only their
  // nonzeros. Contract for overrides: every entry must be bit-identical
  // to the default's (±0 aside) — add each entry's terms in the
  // default's order (objective first, then constraints in index order,
  // per constraint the outer-product term before the −∇²gᵢ/gᵢ term) —
  // and must be allocation-free once ws has grown to the dimension.

  /// grad = t·∇f(x) − Σᵢ ∇gᵢ(x)/gᵢ(x).
  virtual void centering_gradient_into(const math::Vector& x, double t,
                                       math::Vector& grad,
                                       SolveWorkspace& ws) const;
  /// hess = t·∇²f(x) + Σᵢ (∇gᵢ∇gᵢᵀ/gᵢ² − ∇²gᵢ/gᵢ).
  virtual void centering_hessian_into(const math::Vector& x, double t,
                                      math::Matrix& hess,
                                      SolveWorkspace& ws) const;

  /// True iff every g_i(x) < -margin (strict interior).
  [[nodiscard]] bool strictly_feasible(const math::Vector& x,
                                       double margin = 0.0) const;

  /// Max over i of g_i(x) (<= 0 means feasible). Returns -inf with no
  /// constraints.
  [[nodiscard]] double max_violation(const math::Vector& x) const;
};

}  // namespace arb::optim
