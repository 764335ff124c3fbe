#include "optim/barrier_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "math/linear_solve.hpp"

namespace arb::optim {
namespace {

/// Plain Newton objective for the unconstrained (m == 0) case.
class ObjectiveOnly final : public SmoothObjective {
 public:
  explicit ObjectiveOnly(const NlpProblem& problem) : problem_(problem) {}

  [[nodiscard]] double value(const math::Vector& x) const override {
    return problem_.objective(x);
  }
  void gradient_into(const math::Vector& x,
                     math::Vector& grad) const override {
    problem_.objective_gradient_into(x, grad);
  }
  void hessian_into(const math::Vector& x,
                    math::Matrix& hess) const override {
    problem_.objective_hessian_into(x, hess);
  }

 private:
  const NlpProblem& problem_;
};

/// The centering objective  t·f(x) − Σᵢ log(−gᵢ(x))  for one outer
/// iteration. Gradient and Hessian come from the problem's centering
/// assembly (NlpProblem::centering_*_into), which works in workspace
/// buffers, so evaluation is allocation-free. The same instance serves
/// every outer iteration via set_t.
class CenteringObjective final : public SmoothObjective {
 public:
  CenteringObjective(const NlpProblem& problem, SolveWorkspace& ws)
      : problem_(problem), ws_(ws) {}

  void set_t(double t) { t_ = t; }

  [[nodiscard]] double value(const math::Vector& point) const override {
    const std::size_t m = problem_.num_inequalities();
    double value = t_ * problem_.objective(point);
    for (std::size_t i = 0; i < m; ++i) {
      const double g = problem_.constraint(i, point);
      if (!(g < 0.0)) return std::numeric_limits<double>::infinity();
      value -= std::log(-g);
    }
    return value;
  }

  void gradient_into(const math::Vector& point,
                     math::Vector& grad) const override {
    problem_.centering_gradient_into(point, t_, grad, ws_);
  }

  void hessian_into(const math::Vector& point,
                    math::Matrix& hess) const override {
    problem_.centering_hessian_into(point, t_, hess, ws_);
  }

  [[nodiscard]] bool in_domain(const math::Vector& point) const override {
    return point.all_finite() && problem_.strictly_feasible(point);
  }

  [[nodiscard]] bool step_ok(const math::Vector& from,
                             const math::Vector& to) const override {
    // Cap the per-step collapse of the tightest constraint slack at
    // 100x. Without this, Armijo happily accepts profit-chasing steps
    // that land just inside the boundary (each backtracking trial sits
    // at the feasibility edge), the tightest slack shrinks geometrically
    // far below its central-path value, and the (1/s²)-scaled barrier
    // Hessian becomes so ill-conditioned that Newton degenerates into a
    // tangential crawl. Warm restarts at moderate-to-high t hit this
    // reliably; the guard keeps every accepted iterate within two
    // decades of the previous slack, which damped Newton handles.
    const std::size_t m = problem_.num_inequalities();
    double min_from = std::numeric_limits<double>::infinity();
    double min_to = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      min_from = std::min(min_from, -problem_.constraint(i, from));
      min_to = std::min(min_to, -problem_.constraint(i, to));
    }
    return min_to * 100.0 >= min_from;
  }

 private:
  const NlpProblem& problem_;
  SolveWorkspace& ws_;
  double t_ = 1.0;
};

}  // namespace

BarrierSolver::BarrierSolver(BarrierOptions options)
    : options_(std::move(options)) {}

Status BarrierSolver::solve_into(const NlpProblem& problem,
                                 const math::Vector& x0, SolveWorkspace& ws,
                                 BarrierReport& report) const {
  const std::size_t n = problem.dimension();
  const std::size_t m = problem.num_inequalities();
  ARB_REQUIRE(x0.size() == n, "x0 dimension mismatch");

  report.objective = 0.0;
  report.duality_gap = 0.0;
  report.final_t = options_.initial_t;
  report.outer_iterations = 0;
  report.total_newton_iterations = 0;
  report.centerings_converged = true;

  if (!problem.strictly_feasible(x0)) {
    return make_error(ErrorCode::kInfeasible,
                      "barrier solve requires strictly feasible start "
                      "(max violation " +
                          std::to_string(problem.max_violation(x0)) + ")");
  }
  if (m == 0) {
    // Pure Newton on f.
    const ObjectiveOnly fn(problem);
    NewtonStats stats;
    auto inner = newton_minimize_into(fn, x0, options_.newton, ws, stats);
    if (!inner) return inner;
    report.x = ws.x;
    report.dual.assign(0, 0.0);
    report.objective = stats.value;
    report.total_newton_iterations = stats.iterations;
    report.centerings_converged = stats.converged;
    return Status::success();
  }

  double t = options_.initial_t;
  ws.x = x0;  // capacity-preserving; x0 may alias ws.x
  CenteringObjective fn(problem, ws);

  for (int outer = 0; outer < options_.max_outer_iterations; ++outer) {
    report.outer_iterations = outer + 1;
    fn.set_t(t);

    NewtonStats stats;
    auto inner = newton_minimize_into(fn, ws.x, options_.newton, ws, stats);
    if (!inner) {
      return make_error(ErrorCode::kNumericFailure,
                        "barrier inner Newton failed at t=" +
                            std::to_string(t) + ": " +
                            inner.error().message);
    }
    report.total_newton_iterations += stats.iterations;
    if (!stats.converged) report.centerings_converged = false;

    if (options_.early_stop && options_.early_stop(ws.x)) {
      report.duality_gap = static_cast<double>(m) / t;
      break;
    }

    const double gap = static_cast<double>(m) / t;
    ARB_LOG_DEBUG("barrier outer=" << outer << " t=" << t << " gap=" << gap
                                   << " f=" << problem.objective(ws.x));
    if (gap <= options_.gap_tolerance) {
      report.duality_gap = gap;
      break;
    }
    t *= options_.mu;
    report.duality_gap = static_cast<double>(m) / t;
  }

  report.final_t = t;
  report.x = ws.x;
  report.objective = problem.objective(ws.x);
  // Containment: never hand a non-finite iterate or objective back to
  // the caller as a "success" — the inner Newton guards should make this
  // unreachable, but a corrupted problem could still slip a NaN through
  // a converged-looking exit.
  if (!report.x.all_finite() || !std::isfinite(report.objective)) {
    return make_error(ErrorCode::kNumericFailure,
                      "barrier solve produced non-finite iterate at t=" +
                          std::to_string(t));
  }
  report.dual.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    report.dual[i] = 1.0 / (-t * problem.constraint(i, ws.x));
  }
  if (options_.refine_duals) refine_duals(problem, ws.x, report.dual);
  return Status::success();
}

Result<BarrierReport> BarrierSolver::solve(const NlpProblem& problem,
                                           const math::Vector& x0) const {
  SolveWorkspace ws;
  BarrierReport report;
  auto status = solve_into(problem, x0, ws, report);
  if (!status) return status.error();
  return report;
}

void BarrierSolver::refine_duals(const NlpProblem& problem,
                                 const math::Vector& x, math::Vector& dual) {
  // The barrier estimate λᵢ = 1/(−t·gᵢ) is exact for the *barrier*
  // problem but noisy for the original KKT system: near the boundary its
  // sensitivity to the primal iterate grows with t. Recover clean
  // multipliers by least squares on the (numerically) active set:
  //   minimize ‖∇f + Σ_{i∈A} λᵢ ∇gᵢ‖²,  λ clamped to ≥ 0,
  // which the tiny dense normal equations solve directly.
  const std::size_t n = problem.dimension();
  const std::size_t m = problem.num_inequalities();
  if (m == 0) return;

  double max_dual = 0.0;
  for (std::size_t i = 0; i < m; ++i) max_dual = std::max(max_dual, dual[i]);
  if (max_dual <= 0.0) return;

  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < m; ++i) {
    if (dual[i] > 1e-6 * max_dual) active.push_back(i);
  }
  if (active.empty()) return;

  const math::Vector grad_f = problem.objective_gradient(x);
  std::vector<math::Vector> grads;
  grads.reserve(active.size());
  for (const std::size_t i : active) {
    grads.push_back(problem.constraint_gradient(i, x));
  }

  const std::size_t a = active.size();
  math::Matrix gram(a, a);
  math::Vector rhs(a);
  for (std::size_t r = 0; r < a; ++r) {
    for (std::size_t c = 0; c < a; ++c) gram(r, c) = grads[r].dot(grads[c]);
    rhs[r] = -grads[r].dot(grad_f);
  }
  auto solved = math::regularized_spd_solve(gram, rhs);
  if (!solved) return;  // keep the barrier estimate

  // Accept the refinement only if it actually reduces the stationarity
  // residual (guards against a bad active-set guess).
  const auto residual = [&](const math::Vector& lambda_active) {
    math::Vector acc = grad_f;
    for (std::size_t r = 0; r < a; ++r) {
      for (std::size_t k = 0; k < n; ++k) {
        acc[k] += lambda_active[r] * grads[r][k];
      }
    }
    return acc.norm_inf();
  };
  math::Vector original_active(a);
  for (std::size_t r = 0; r < a; ++r) original_active[r] = dual[active[r]];
  math::Vector clamped = *solved;
  for (std::size_t r = 0; r < a; ++r) clamped[r] = std::max(0.0, clamped[r]);
  if (residual(clamped) < residual(original_active)) {
    for (std::size_t r = 0; r < a; ++r) dual[active[r]] = clamped[r];
  }
}

}  // namespace arb::optim
