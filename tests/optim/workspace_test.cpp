// SolveWorkspace contract: buffers grow to the largest problem seen and
// then stay put, so steady-state barrier solves — including across
// heterogeneous problem sizes — perform zero math-layer heap
// allocations, and reuse never changes the answer. The structured
// centering assemblies of the flow and reduced-loop programs take their
// scratch from the workspace too, so their solves perform no heap
// allocation at all (counted by testkit/heap_count.hpp).

#include "optim/workspace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/flow_nlp.hpp"
#include "core/loop_nlp.hpp"
#include "graph/token_graph.hpp"
#include "math/alloc_stats.hpp"
#include "optim/barrier_solver.hpp"
#include "testkit/heap_count.hpp"

namespace arb::optim {
namespace {

/// Symmetric profitable ring of length n: every hop trades against
/// (100, 150) reserves at unit CEX prices, so d = (1, ..., 1) is a
/// strictly feasible interior point for the reduced transcription.
std::vector<core::LoopHopData> ring(std::size_t n) {
  std::vector<core::LoopHopData> hops(n);
  for (auto& hop : hops) {
    hop.reserve_in = 100.0;
    hop.reserve_out = 150.0;
    hop.gamma = 0.997;
    hop.price_in = 1.0;
    hop.price_out = 1.0;
  }
  return hops;
}

BarrierOptions hot_path_options() {
  BarrierOptions options;
  options.refine_duals = false;  // the documented hot-path setting
  return options;
}

TEST(SolveWorkspaceTest, SteadyStateSolvesAreAllocationFree) {
  const core::ReducedLoopProblem problem(ring(3));
  const BarrierSolver solver(hot_path_options());
  SolveWorkspace ws;
  BarrierReport report;
  const math::Vector start(3, 1.0);

  // Warm-up grows every buffer (workspace and report) to capacity.
  ASSERT_TRUE(solver.solve_into(problem, start, ws, report).ok());

  math::reset_allocation_count();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(solver.solve_into(problem, start, ws, report).ok());
  }
  EXPECT_EQ(math::allocation_count(), 0u);
  EXPECT_GT(-report.objective, 0.0);  // the ring is profitable
}

TEST(SolveWorkspaceTest, ReuseAcrossHeterogeneousSizesStaysAllocationFree) {
  const BarrierSolver solver(hot_path_options());
  SolveWorkspace ws;
  BarrierReport report;

  // Warm up at the largest size; every smaller problem then fits in the
  // existing buffers.
  {
    const core::ReducedLoopProblem largest(ring(6));
    ASSERT_TRUE(
        solver.solve_into(largest, math::Vector(6, 1.0), ws, report).ok());
  }

  // The start point is staged in a workspace buffer (solve_into allows
  // x0 to alias ws members), so the whole round is allocation-free.
  math::reset_allocation_count();
  for (const std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{3},
                              std::size_t{6}, std::size_t{4}}) {
    const core::ReducedLoopProblem problem(ring(n));
    ws.candidate.assign(n, 1.0);
    ASSERT_TRUE(solver.solve_into(problem, ws.candidate, ws, report).ok())
        << n;
    EXPECT_EQ(report.x.size(), n);
  }
  EXPECT_EQ(math::allocation_count(), 0u);
}

/// After a warm-up solve, a second solve_into of `problem` from x0 must
/// touch neither the math-layer nor the global heap.
void expect_second_solve_allocation_free(const NlpProblem& problem,
                                         const math::Vector& x0) {
  ASSERT_TRUE(problem.strictly_feasible(x0));
  const BarrierSolver solver(hot_path_options());
  SolveWorkspace ws;
  BarrierReport report;
  ASSERT_TRUE(solver.solve_into(problem, x0, ws, report).ok());

  math::reset_allocation_count();
  bool ok = false;
  const std::size_t heap = testkit::heap_allocations_during(
      [&] { ok = solver.solve_into(problem, x0, ws, report).ok(); });
  EXPECT_TRUE(ok);
  EXPECT_EQ(math::allocation_count(), 0u);
  EXPECT_EQ(heap, 0u);
}

TEST(SolveWorkspaceTest, FlowProblemSolvesAreAllocationFree) {
  // A → B directly (CPMM) and through C, where two paths share the
  // stable A → C edge and leave by a concentrated (capped) and a CPMM
  // pool: node C's block spans one in-edge and two out-edges.
  graph::TokenGraph graph;
  const TokenId a = graph.add_token("A");
  const TokenId b = graph.add_token("B");
  const TokenId c = graph.add_token("C");
  const PoolId direct = graph.add_pool(a, b, 1'000.0, 1'200.0);
  const PoolId stable = graph.add_stable_pool(a, c, 2'000.0, 2'000.0);
  const PoolId conc = graph.add_concentrated_pool(c, b, 1'500.0, 1.1, 0.5,
                                                  2.0);
  const PoolId cpmm = graph.add_pool(c, b, 800.0, 900.0);
  auto instance = core::FlowInstance::for_swap(
      graph, a, b, {{direct}, {stable, conc}, {stable, cpmm}}, 10.0);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  const core::FlowProblem problem(*instance);
  // Edges in first-use order: A→B, A→C, C→B (concentrated), C→B (CPMM).
  expect_second_solve_allocation_free(problem, math::Vector{1.0, 2.0, 0.5,
                                                            0.5});
}

TEST(SolveWorkspaceTest, MixedReducedLoopSolvesAreAllocationFree) {
  // X → Y stable, Y → Z concentrated (capped), Z → X CPMM at a 1.3 rate.
  graph::TokenGraph graph;
  const TokenId x = graph.add_token("X");
  const TokenId y = graph.add_token("Y");
  const TokenId z = graph.add_token("Z");
  const PoolId stable = graph.add_stable_pool(x, y, 1'000.0, 1'000.0);
  const PoolId conc = graph.add_concentrated_pool(y, z, 1'000.0, 1.0, 0.5,
                                                  2.0);
  const PoolId cpmm = graph.add_pool(z, x, 1'000.0, 1'300.0);
  std::vector<core::LoopHopData> hops{
      core::make_edge_kernel(graph.pool(stable), x, y),
      core::make_edge_kernel(graph.pool(conc), y, z),
      core::make_edge_kernel(graph.pool(cpmm), z, x)};
  for (core::LoopHopData& hop : hops) {
    hop.price_in = 1.0;
    hop.price_out = 1.0;
  }
  const core::ReducedLoopProblem problem(std::move(hops));
  expect_second_solve_allocation_free(problem, math::Vector{1.0, 0.9, 0.8});
}

TEST(SolveWorkspaceTest, ReuseDoesNotChangeTheAnswer) {
  const BarrierSolver solver(hot_path_options());

  // Fresh workspace per solve: the reference.
  std::vector<double> reference;
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{4}, std::size_t{3}}) {
    const core::ReducedLoopProblem problem(ring(n));
    SolveWorkspace ws;
    BarrierReport report;
    ASSERT_TRUE(
        solver.solve_into(problem, math::Vector(n, 1.0), ws, report).ok());
    reference.push_back(report.objective);
  }

  // One reused workspace: bit-identical objectives in any order.
  SolveWorkspace ws;
  BarrierReport report;
  std::size_t k = 0;
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{4}, std::size_t{3}}) {
    const core::ReducedLoopProblem problem(ring(n));
    ASSERT_TRUE(
        solver.solve_into(problem, math::Vector(n, 1.0), ws, report).ok());
    EXPECT_EQ(report.objective, reference[k++]) << "size " << n;
  }
}

TEST(SolveWorkspaceTest, ReservePreallocatesEveryBuffer) {
  SolveWorkspace ws;
  ws.reserve(8);
  const std::uint64_t after_reserve = math::allocation_count();

  // Touching every buffer at the reserved size must not allocate.
  math::reset_allocation_count();
  ws.x.resize(8);
  ws.grad.resize(8);
  ws.neg_grad.resize(8);
  ws.direction.resize(8);
  ws.candidate.resize(8);
  ws.constraint_grad.resize(8);
  ws.problem_scratch.resize(8);
  ws.hess.assign(8, 8, 0.0);
  ws.constraint_hess.assign(8, 8, 0.0);
  EXPECT_EQ(math::allocation_count(), 0u);
  (void)after_reserve;
}

}  // namespace
}  // namespace arb::optim
