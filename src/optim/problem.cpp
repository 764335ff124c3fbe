#include "optim/problem.hpp"

#include <limits>

#include "optim/workspace.hpp"

namespace arb::optim {

void NlpProblem::objective_gradient_into(const math::Vector& x,
                                         math::Vector& grad) const {
  grad = objective_gradient(x);
}

void NlpProblem::objective_hessian_into(const math::Vector& x,
                                        math::Matrix& hess) const {
  hess = objective_hessian(x);
}

void NlpProblem::constraint_gradient_into(std::size_t i, const math::Vector& x,
                                          math::Vector& grad) const {
  grad = constraint_gradient(i, x);
}

void NlpProblem::constraint_hessian_into(std::size_t i, const math::Vector& x,
                                         math::Matrix& hess) const {
  hess = constraint_hessian(i, x);
}

void NlpProblem::centering_gradient_into(const math::Vector& x, double t,
                                         math::Vector& grad,
                                         SolveWorkspace& ws) const {
  const std::size_t m = num_inequalities();
  const std::size_t n = dimension();
  objective_gradient_into(x, grad);
  grad *= t;
  for (std::size_t i = 0; i < m; ++i) {
    const double g = constraint(i, x);
    constraint_gradient_into(i, x, ws.constraint_grad);
    // d/dx [-log(-g)] = -g'/g  (g < 0).
    for (std::size_t k = 0; k < n; ++k) {
      grad[k] += ws.constraint_grad[k] / (-g);
    }
  }
}

void NlpProblem::centering_hessian_into(const math::Vector& x, double t,
                                        math::Matrix& hess,
                                        SolveWorkspace& ws) const {
  const std::size_t m = num_inequalities();
  const std::size_t n = dimension();
  objective_hessian_into(x, hess);
  hess *= t;
  for (std::size_t i = 0; i < m; ++i) {
    const double g = constraint(i, x);
    constraint_gradient_into(i, x, ws.constraint_grad);
    constraint_hessian_into(i, x, ws.constraint_hess);
    // ∇²[-log(-g)] = (g' g'ᵀ)/g² + (-1/g)·∇²g.
    const double inv_g = 1.0 / g;
    hess.add_outer_product(ws.constraint_grad, ws.constraint_grad,
                           inv_g * inv_g);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        hess(r, c) += (-inv_g) * ws.constraint_hess(r, c);
      }
    }
  }
}

bool NlpProblem::strictly_feasible(const math::Vector& x,
                                   double margin) const {
  for (std::size_t i = 0; i < num_inequalities(); ++i) {
    if (!(constraint(i, x) < -margin)) return false;
  }
  return true;
}

double NlpProblem::max_violation(const math::Vector& x) const {
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < num_inequalities(); ++i) {
    worst = std::max(worst, constraint(i, x));
  }
  return worst;
}

}  // namespace arb::optim
