/// Tests for the correlation-aware dataflow module: lineage classification,
/// insertion planning under all three strategies, bit-true execution, and
/// the end-to-end accuracy/cost ordering the paper's §IV comparison
/// predicts for any graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <stdexcept>
#include <vector>

#include "bitstream/correlation.hpp"
#include "graph/backend.hpp"
#include "graph/dataflow.hpp"
#include "graph/executor.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/registry.hpp"
#include "hw/cost.hpp"
#include "rng/lfsr.hpp"

namespace sc::graph {
namespace {

/// a*b + c*d with inputs drawn from only two RNG groups - multiplies see
/// correlated operands and need decorrelation.
DataflowGraph product_sum_graph() {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.6, /*rng_group=*/0);
  const NodeId b = g.add_input("b", 0.5, 0);  // same group as a!
  const NodeId c = g.add_input("c", 0.3, 1);
  const NodeId d = g.add_input("d", 0.8, 1);
  const NodeId ab = g.add_op(OpKind::kMultiply, a, b);
  const NodeId cd = g.add_op(OpKind::kMultiply, c, d);
  const NodeId sum = g.add_op(OpKind::kScaledAdd, ab, cd);
  g.mark_output(sum);
  return g;
}

/// |x*y - z| : a subtract that needs positive correlation between two
/// streams with shared ancestry (the "computation-induced" case).
DataflowGraph edge_like_graph() {
  DataflowGraph g;
  const NodeId x = g.add_input("x", 0.7, 0);
  const NodeId y = g.add_input("y", 0.9, 1);
  const NodeId z = g.add_input("z", 0.4, 2);
  const NodeId xy = g.add_op(OpKind::kMultiply, x, y);
  const NodeId diff = g.add_op(OpKind::kSubtractAbs, xy, z);
  g.mark_output(diff);
  return g;
}

TEST(Dataflow, RequirementsMatchFig2) {
  EXPECT_EQ(requirement_of(OpKind::kMultiply), Requirement::kUncorrelated);
  EXPECT_EQ(requirement_of(OpKind::kScaledAdd), Requirement::kAgnostic);
  EXPECT_EQ(requirement_of(OpKind::kSaturatingAdd), Requirement::kNegative);
  EXPECT_EQ(requirement_of(OpKind::kSubtractAbs), Requirement::kPositive);
  EXPECT_EQ(requirement_of(OpKind::kMax), Requirement::kPositive);
  EXPECT_EQ(requirement_of(OpKind::kMin), Requirement::kPositive);
}

TEST(Dataflow, ExactValueSemantics) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.6, 0);
  const NodeId b = g.add_input("b", 0.7, 1);
  EXPECT_DOUBLE_EQ(g.exact_value(g.add_op(OpKind::kMultiply, a, b)), 0.42);
  EXPECT_DOUBLE_EQ(g.exact_value(g.add_op(OpKind::kScaledAdd, a, b)), 0.65);
  EXPECT_DOUBLE_EQ(g.exact_value(g.add_op(OpKind::kSaturatingAdd, a, b)),
                   1.0);
  EXPECT_NEAR(g.exact_value(g.add_op(OpKind::kSubtractAbs, a, b)), 0.1,
              1e-12);
  EXPECT_DOUBLE_EQ(g.exact_value(g.add_op(OpKind::kMax, a, b)), 0.7);
  EXPECT_DOUBLE_EQ(g.exact_value(g.add_op(OpKind::kMin, a, b)), 0.6);
}

TEST(Dataflow, OpNodesInTopologicalOrder) {
  const DataflowGraph g = product_sum_graph();
  const auto ops = g.op_nodes();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_LT(ops[0], ops[2]);
}

// --- classification -------------------------------------------------------------

TEST(Classify, SameGroupInputsArePositive) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.5, 0);
  const NodeId b = g.add_input("b", 0.7, 0);
  EXPECT_EQ(classify(g, a, b), Relation::kPositive);
}

TEST(Classify, DifferentGroupInputsAreIndependent) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.5, 0);
  const NodeId b = g.add_input("b", 0.7, 1);
  EXPECT_EQ(classify(g, a, b), Relation::kIndependent);
}

TEST(Classify, SharedAncestryIsUnknown) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.5, 0);
  const NodeId b = g.add_input("b", 0.7, 1);
  const NodeId ab = g.add_op(OpKind::kMultiply, a, b);
  EXPECT_EQ(classify(g, ab, a), Relation::kUnknown);
  // A fresh group stays independent of the product.
  const NodeId c = g.add_input("c", 0.2, 2);
  EXPECT_EQ(classify(g, ab, c), Relation::kIndependent);
}

// --- planning --------------------------------------------------------------------

TEST(Planner, NoStrategyRecordsViolations) {
  const Plan plan = plan_insertions(product_sum_graph(), Strategy::kNone);
  // Both multiplies use same-group operands -> 2 violations; the scaled
  // add is agnostic.
  EXPECT_EQ(plan.violations.size(), 2u);
  EXPECT_EQ(plan.inserted_units, 0u);
  EXPECT_EQ(plan.overhead.total_cells(), 0u);
}

TEST(Planner, ManipulationInsertsDecorrelatorsForMultiplies) {
  const Plan plan =
      plan_insertions(product_sum_graph(), Strategy::kManipulation);
  EXPECT_TRUE(plan.violations.empty());
  EXPECT_EQ(plan.inserted_units, 2u);
  const auto ops = product_sum_graph().op_nodes();
  EXPECT_EQ(plan.fix_for(ops[0]), FixKind::kDecorrelator);
  EXPECT_EQ(plan.fix_for(ops[1]), FixKind::kDecorrelator);
  EXPECT_EQ(plan.fix_for(ops[2]), FixKind::kNone);  // scaled add agnostic
}

TEST(Planner, ManipulationInsertsSynchronizerForSubtract) {
  const Plan plan =
      plan_insertions(edge_like_graph(), Strategy::kManipulation);
  const auto ops = edge_like_graph().op_nodes();
  EXPECT_EQ(plan.fix_for(ops[0]), FixKind::kNone);  // multiply: indep groups
  EXPECT_EQ(plan.fix_for(ops[1]), FixKind::kSynchronizer);
}

TEST(Planner, RegenerationStrategyUsesConverters) {
  const Plan plan =
      plan_insertions(edge_like_graph(), Strategy::kRegeneration);
  const auto ops = edge_like_graph().op_nodes();
  EXPECT_EQ(plan.fix_for(ops[1]), FixKind::kRegenerateShared);
}

TEST(Planner, SaturatingAddAlwaysNeedsNegativeFix) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.4, 0);
  const NodeId b = g.add_input("b", 0.3, 1);
  g.mark_output(g.add_op(OpKind::kSaturatingAdd, a, b));
  const Plan manip = plan_insertions(g, Strategy::kManipulation);
  EXPECT_EQ(manip.fixes.back().fix, FixKind::kDesynchronizer);
  const Plan regen = plan_insertions(g, Strategy::kRegeneration);
  EXPECT_EQ(regen.fixes.back().fix, FixKind::kRegenerateComplementary);
}

TEST(Planner, ManipulationIsCheaperThanRegeneration) {
  // The paper's core hardware claim, at the planning level, for any graph.
  for (const DataflowGraph& g : {product_sum_graph(), edge_like_graph()}) {
    const Plan manip = plan_insertions(g, Strategy::kManipulation);
    const Plan regen = plan_insertions(g, Strategy::kRegeneration);
    if (manip.inserted_units == 0) continue;
    const double manip_power = hw::evaluate(manip.overhead).power_uw;
    const double regen_power = hw::evaluate(regen.overhead).power_uw;
    EXPECT_LT(manip_power, regen_power);
  }
}

// --- execution --------------------------------------------------------------------

TEST(Executor, Width32ComparatorsProduceNonZeroStreams) {
  // Regression: the natural length was computed as `1u << width`, which is
  // UB at width 32 and wrapped input levels to 0, silently zeroing every
  // stream in the graph.
  const DataflowGraph g = product_sum_graph();
  ExecConfig config;
  config.width = 32;
  config.stream_length = 512;
  const ExecutionResult result =
      execute(g, plan_insertions(g, Strategy::kManipulation), config);
  for (NodeId id = 0; id < g.node_count(); ++id) {
    if (g.node(id).kind != Node::Kind::kInput) continue;
    EXPECT_NEAR(result.streams[id].value(), g.node(id).value, 0.1)
        << "input node " << id;
  }
}

TEST(Executor, UnfixedGraphComputesWrongValues) {
  const DataflowGraph g = product_sum_graph();
  const Plan plan = plan_insertions(g, Strategy::kNone);
  const ExecutionResult result = execute(g, plan);
  // Same-group multiply computes min instead of product:
  // 0.5(min(.6,.5) + min(.3,.8)) = 0.4 vs exact 0.5*(0.3+0.24) = 0.27.
  EXPECT_GT(result.mean_abs_error, 0.08);
}

TEST(Executor, ManipulationPlanRestoresAccuracy) {
  const DataflowGraph g = product_sum_graph();
  const ExecutionResult fixed =
      execute(g, plan_insertions(g, Strategy::kManipulation));
  EXPECT_LT(fixed.mean_abs_error, 0.05);
}

TEST(Executor, RegenerationPlanRestoresAccuracy) {
  const DataflowGraph g = product_sum_graph();
  const ExecutionResult fixed =
      execute(g, plan_insertions(g, Strategy::kRegeneration));
  EXPECT_LT(fixed.mean_abs_error, 0.05);
}

TEST(Executor, EdgeGraphSubtractNeedsTheSynchronizer) {
  const DataflowGraph g = edge_like_graph();
  const double broken =
      execute(g, plan_insertions(g, Strategy::kNone)).mean_abs_error;
  const double fixed =
      execute(g, plan_insertions(g, Strategy::kManipulation)).mean_abs_error;
  EXPECT_LT(fixed, broken * 0.5);
  EXPECT_LT(fixed, 0.05);
}

TEST(Executor, SaturatingAddViaDesynchronizer) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.55, 0);
  const NodeId b = g.add_input("b", 0.6, 1);
  g.mark_output(g.add_op(OpKind::kSaturatingAdd, a, b));
  const Plan plan = plan_insertions(g, Strategy::kManipulation);
  // Default depth-2 desynchronizer gets close; the LFSR streams' run
  // structure leaves a few paired 1s, and how many depends on the derived
  // trace seeds.  Averaging over several base seeds removes that seed
  // luck, so the bound stays tight without being a lottery ticket.
  double total_error = 0.0;
  const std::uint32_t seeds[] = {3, 5, 7, 11, 13};
  for (const std::uint32_t seed : seeds) {
    ExecConfig config;
    config.seed = seed;
    total_error += std::abs(execute(g, plan, config).values[0] - 1.0);
  }
  EXPECT_LT(total_error / std::size(seeds), 0.06);
  // Depth 8 absorbs the runs and saturates exactly.
  ExecConfig deep;
  deep.sync_depth = 8;
  const ExecutionResult deeper = execute(g, plan, deep);
  EXPECT_NEAR(deeper.values[0], 1.0, 0.01);
}

TEST(Executor, ComplementaryRegenerationProducesNegativeScc) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.4, 0);
  const NodeId b = g.add_input("b", 0.45, 1);
  const NodeId sum = g.add_op(OpKind::kSaturatingAdd, a, b);
  g.mark_output(sum);
  const ExecutionResult fixed =
      execute(g, plan_insertions(g, Strategy::kRegeneration));
  // min(1, 0.85) without saturation: only reachable at SCC ~ -1.
  EXPECT_NEAR(fixed.values[0], 0.85, 0.03);
}

TEST(Executor, SameGroupInputsAreBitIdenticalForEqualValues) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.5, 0);
  const NodeId b = g.add_input("b", 0.5, 0);
  g.mark_output(g.add_op(OpKind::kMin, a, b));
  const ExecutionResult result =
      execute(g, plan_insertions(g, Strategy::kNone));
  EXPECT_EQ(result.streams[a], result.streams[b]);
}

TEST(Executor, OutputsAlignWithMarkedNodes) {
  DataflowGraph g;
  const NodeId a = g.add_input("a", 0.25, 0);
  const NodeId b = g.add_input("b", 0.5, 1);
  const NodeId prod = g.add_op(OpKind::kMultiply, a, b);
  g.mark_output(prod);
  g.mark_output(a);
  const ExecutionResult result =
      execute(g, plan_insertions(g, Strategy::kNone));
  ASSERT_EQ(result.output_nodes.size(), 2u);
  EXPECT_EQ(result.output_nodes[0], prod);
  EXPECT_NEAR(result.values[1], 0.25, 0.02);
  EXPECT_DOUBLE_EQ(result.exact[0], 0.125);
}

TEST(Executor, DeterministicForFixedSeed) {
  const DataflowGraph g = edge_like_graph();
  const Plan plan = plan_insertions(g, Strategy::kManipulation);
  const ExecutionResult r1 = execute(g, plan);
  const ExecutionResult r2 = execute(g, plan);
  EXPECT_EQ(r1.values, r2.values);
}

TEST(Executor, LegacyShimMatchesBackendOnConvertedProgram) {
  // execute() is now a thin shim over the backend layer; the converted
  // Program run on the explicit backends must be bit-identical to it.
  const DataflowGraph g = product_sum_graph();
  const Plan plan = plan_insertions(g, Strategy::kManipulation);
  const Program program = to_program(g);
  const ProgramPlan program_plan = to_program_plan(plan);

  ExecConfig config;
  const ExecutionResult legacy = execute(g, plan, config);
  const ExecutionResult direct =
      make_backend(BackendKind::kKernel)->run(program, program_plan, config);
  ASSERT_EQ(legacy.streams.size(), direct.streams.size());
  for (std::size_t s = 0; s < legacy.streams.size(); ++s) {
    EXPECT_EQ(legacy.streams[s], direct.streams[s]) << "stream " << s;
  }

  config.use_kernels = false;
  const ExecutionResult legacy_ref = execute(g, plan, config);
  const ExecutionResult direct_ref =
      make_backend(BackendKind::kReference)->run(program, program_plan,
                                                 config);
  for (std::size_t s = 0; s < legacy_ref.streams.size(); ++s) {
    EXPECT_EQ(legacy_ref.streams[s], direct_ref.streams[s]) << "stream " << s;
  }
}

// --- end-to-end strategy comparison (the paper's §IV shape on any graph) ----

TEST(GraphIntegration, StrategyOrderingMatchesPaper) {
  const DataflowGraph g = product_sum_graph();
  const Plan none = plan_insertions(g, Strategy::kNone);
  const Plan manip = plan_insertions(g, Strategy::kManipulation);
  const Plan regen = plan_insertions(g, Strategy::kRegeneration);

  const double err_none = execute(g, none).mean_abs_error;
  const double err_manip = execute(g, manip).mean_abs_error;
  const double err_regen = execute(g, regen).mean_abs_error;

  // Accuracy: both fixes beat no manipulation.
  EXPECT_LT(err_manip, err_none);
  EXPECT_LT(err_regen, err_none);
  // Cost: manipulation is the cheaper fix.
  EXPECT_LT(hw::evaluate(manip.overhead).power_uw,
            hw::evaluate(regen.overhead).power_uw);
}

// --- word-parallel evaluators ---------------------------------------------

/// bits [offset, offset + length) of `stream` as a stream of their own.
Bitstream slice(const Bitstream& stream, std::size_t offset,
                std::size_t length) {
  Bitstream out(length);
  for (std::size_t i = 0; i < length; ++i) {
    if (stream.get(offset + i)) out.set(i, true);
  }
  return out;
}

TEST(Evaluators, RngDrivenProcessMatchesStepOverChunkSplits) {
  // Each RNG-driven operator's word-parallel process(), driven chunk by
  // chunk on word-aligned splits (as the engine backend does), must equal
  // the bit-serial step() loop of a fresh evaluator — at a width whose
  // period is far shorter than the run and at the natural width 16.
  static constexpr std::size_t kLengths[] = {1,    63,    64,    65,
                                             4095, 65535, 65536, 70000};
  static constexpr std::size_t kChunks[] = {64, 4096, 128, 65536, 192};
  // Bernstein units of degree 3, 7 and 15 bit-slice their operand count
  // over 2, 3 and 4 planes.
  OperatorRegistry reg = OperatorRegistry::with_builtins();
  register_bernstein(reg, "bernstein-7", [](double t) { return t * t; }, 7);
  register_bernstein(reg, "bernstein-15", [](double t) { return 1.0 - t; },
                     15);
  std::mt19937_64 gen(11);
  for (const char* name : {"scaled-add", "scaled-sub-bipolar",
                           "gaussian-blur-3x3", "roberts-cross",
                           "bernstein-x2-3", "bernstein-7", "bernstein-15"}) {
    const OperatorDef& def = *reg.find(name);
    for (const unsigned width : {8u, 16u}) {
      for (const std::size_t n : kLengths) {
        std::vector<Bitstream> operands;
        for (unsigned k = 0; k < def.arity; ++k) {
          Bitstream stream(n);
          const double p = 0.15 + 0.05 * k;
          std::bernoulli_distribution bit(p);
          for (std::size_t i = 0; i < n; ++i) {
            if (bit(gen)) stream.set(i, true);
          }
          operands.push_back(std::move(stream));
        }
        OpContext ctx;
        ctx.stream_length = n;
        ctx.width = width;
        ctx.node = 5;
        ctx.base_seed = 3;

        const auto serial = def.make_evaluator(ctx);
        serial->begin(n);
        Bitstream expect(n);
        bool bits[kMaxArity];
        for (std::size_t i = 0; i < n; ++i) {
          for (unsigned k = 0; k < def.arity; ++k) bits[k] = operands[k].get(i);
          if (serial->step(bits)) expect.set(i, true);
        }

        const auto word = def.make_evaluator(ctx);
        word->begin(n);
        Bitstream got(n);
        std::size_t offset = 0;
        for (std::size_t c = 0; offset < n; ++c) {
          const std::size_t take =
              std::min(kChunks[c % std::size(kChunks)], n - offset);
          std::vector<Bitstream> pieces;
          for (const Bitstream& operand : operands) {
            pieces.push_back(slice(operand, offset, take));
          }
          std::vector<const Bitstream*> ins;
          for (const Bitstream& piece : pieces) ins.push_back(&piece);
          Bitstream out(take);
          word->process(
              sc::span<const Bitstream* const>(ins.data(), ins.size()), out);
          for (std::size_t i = 0; i < take; ++i) {
            if (out.get(i)) got.set(offset + i, true);
          }
          // The tail past the chunk must stay clear (Bitstream invariant).
          EXPECT_EQ(out.count_ones(), slice(out, 0, take).count_ones());
          offset += take;
        }
        EXPECT_EQ(got, expect) << name << " width " << width << " n " << n;
      }
    }
  }
}

TEST(Backends, OutOfRangeLfsrWidthThrowsInsteadOfCrashing) {
  GraphBuilder b;
  const Value x = b.input("x", 0.4, 0);
  const Value y = b.input("y", 0.7, 1);
  b.output(b.op("scaled-add", {b.op("multiply", {x, y}), y}));
  const Program program = b.build();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  for (const unsigned width : {0u, 2u, 33u, 40u}) {
    EXPECT_THROW(rng::Lfsr(width, 1), std::invalid_argument) << width;
    ExecConfig config;
    config.width = width;
    for (const BackendKind kind : {BackendKind::kReference,
                                   BackendKind::kKernel, BackendKind::kEngine}) {
      EXPECT_THROW(make_backend(kind)->run(program, plan, config),
                   std::invalid_argument)
          << "width " << width << " backend " << static_cast<int>(kind);
    }
  }
}

}  // namespace
}  // namespace sc::graph
