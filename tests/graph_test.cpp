/// Tests for the correlation-aware dataflow module: lineage classification,
/// insertion planning under all three strategies, bit-true execution, and
/// the end-to-end accuracy/cost ordering the paper's §IV comparison
/// predicts for any graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "bitstream/correlation.hpp"
#include "core/desynchronizer.hpp"
#include "core/shuffle_buffer.hpp"
#include "core/synchronizer.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph/registry.hpp"
#include "hw/cost.hpp"
#include "rng/lfsr.hpp"

namespace sc::graph {
namespace {

/// a*b + c*d with inputs drawn from only two RNG groups - multiplies see
/// correlated operands and need decorrelation.
Program product_sum_graph() {
  GraphBuilder g;
  const Value a = g.input("a", 0.6, /*rng_group=*/0);
  const Value b = g.input("b", 0.5, 0);  // same group as a!
  const Value c = g.input("c", 0.3, 1);
  const Value d = g.input("d", 0.8, 1);
  const Value ab = g.op("multiply", {a, b});
  const Value cd = g.op("multiply", {c, d});
  const Value sum = g.op("scaled-add", {ab, cd});
  g.output(sum);
  return g.build();
}

/// |x*y - z| : a subtract that needs positive correlation between two
/// streams with shared ancestry (the "computation-induced" case).
Program edge_like_graph() {
  GraphBuilder g;
  const Value x = g.input("x", 0.7, 0);
  const Value y = g.input("y", 0.9, 1);
  const Value z = g.input("z", 0.4, 2);
  const Value xy = g.op("multiply", {x, y});
  const Value diff = g.op("subtract", {xy, z});
  g.output(diff);
  return g.build();
}

/// The default execution path: the engine backend.
ExecutionResult run(const Program& program, const ProgramPlan& plan,
                    const ExecConfig& config = {}) {
  return make_backend(BackendKind::kEngine)->run(program, plan, config);
}

/// Fix planned for a two-operand op node (kNone if none).
FixKind fix_for(const ProgramPlan& plan, NodeId op_node) {
  const std::vector<const PairFix*> fixes = plan.fixes_for(op_node);
  return fixes.empty() ? FixKind::kNone : fixes.front()->fix;
}

TEST(Dataflow, RequirementsMatchFig2) {
  const auto requirement = [](const char* op) {
    return registry().find(op)->requirement;
  };
  EXPECT_EQ(requirement("multiply"), Requirement::kUncorrelated);
  EXPECT_EQ(requirement("scaled-add"), Requirement::kAgnostic);
  EXPECT_EQ(requirement("saturating-add"), Requirement::kNegative);
  EXPECT_EQ(requirement("subtract"), Requirement::kPositive);
  EXPECT_EQ(requirement("max"), Requirement::kPositive);
  EXPECT_EQ(requirement("min"), Requirement::kPositive);
}

TEST(Dataflow, ExactValueSemantics) {
  GraphBuilder g;
  const Value a = g.input("a", 0.6, 0);
  const Value b = g.input("b", 0.7, 1);
  std::vector<NodeId> ops;
  for (const char* op : {"multiply", "scaled-add", "saturating-add",
                         "subtract", "max", "min"}) {
    ops.push_back(g.op(op, {a, b}).id);
  }
  const Program p = g.build();
  EXPECT_DOUBLE_EQ(p.exact_value(ops[0]), 0.42);
  EXPECT_DOUBLE_EQ(p.exact_value(ops[1]), 0.65);
  EXPECT_DOUBLE_EQ(p.exact_value(ops[2]), 1.0);
  EXPECT_NEAR(p.exact_value(ops[3]), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(p.exact_value(ops[4]), 0.7);
  EXPECT_DOUBLE_EQ(p.exact_value(ops[5]), 0.6);
}

TEST(Dataflow, OpNodesInTopologicalOrder) {
  const Program g = product_sum_graph();
  const auto ops = g.op_nodes();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_LT(ops[0], ops[2]);
}

// --- classification -------------------------------------------------------------

TEST(Classify, SameGroupInputsArePositive) {
  GraphBuilder g;
  const Value a = g.input("a", 0.5, 0);
  const Value b = g.input("b", 0.7, 0);
  EXPECT_EQ(classify(g.build(), a.id, b.id), Relation::kPositive);
}

TEST(Classify, DifferentGroupInputsAreIndependent) {
  GraphBuilder g;
  const Value a = g.input("a", 0.5, 0);
  const Value b = g.input("b", 0.7, 1);
  EXPECT_EQ(classify(g.build(), a.id, b.id), Relation::kIndependent);
}

TEST(Classify, SharedAncestryIsUnknown) {
  GraphBuilder g;
  const Value a = g.input("a", 0.5, 0);
  const Value b = g.input("b", 0.7, 1);
  const Value ab = g.op("multiply", {a, b});
  // A fresh group stays independent of the product.
  const Value c = g.input("c", 0.2, 2);
  const Program p = g.build();
  EXPECT_EQ(classify(p, ab.id, a.id), Relation::kUnknown);
  EXPECT_EQ(classify(p, ab.id, c.id), Relation::kIndependent);
}

// --- planning --------------------------------------------------------------------

TEST(Planner, NoStrategyRecordsViolations) {
  const ProgramPlan plan = plan_program(product_sum_graph(), Strategy::kNone);
  // Both multiplies use same-group operands -> 2 violations; the scaled
  // add is agnostic.
  EXPECT_EQ(plan.violations.size(), 2u);
  EXPECT_EQ(plan.inserted_units, 0u);
  EXPECT_EQ(plan.overhead.total_cells(), 0u);
}

TEST(Planner, ManipulationInsertsDecorrelatorsForMultiplies) {
  const ProgramPlan plan =
      plan_program(product_sum_graph(), Strategy::kManipulation);
  EXPECT_TRUE(plan.violations.empty());
  EXPECT_EQ(plan.inserted_units, 2u);
  const auto ops = product_sum_graph().op_nodes();
  EXPECT_EQ(fix_for(plan, ops[0]), FixKind::kDecorrelator);
  EXPECT_EQ(fix_for(plan, ops[1]), FixKind::kDecorrelator);
  EXPECT_EQ(fix_for(plan, ops[2]), FixKind::kNone);  // scaled add agnostic
}

TEST(Planner, ManipulationInsertsSynchronizerForSubtract) {
  const ProgramPlan plan =
      plan_program(edge_like_graph(), Strategy::kManipulation);
  const auto ops = edge_like_graph().op_nodes();
  EXPECT_EQ(fix_for(plan, ops[0]), FixKind::kNone);  // multiply: indep groups
  EXPECT_EQ(fix_for(plan, ops[1]), FixKind::kSynchronizer);
}

TEST(Planner, RegenerationStrategyUsesConverters) {
  const ProgramPlan plan =
      plan_program(edge_like_graph(), Strategy::kRegeneration);
  const auto ops = edge_like_graph().op_nodes();
  EXPECT_EQ(fix_for(plan, ops[1]), FixKind::kRegenerateShared);
}

TEST(Planner, SaturatingAddAlwaysNeedsNegativeFix) {
  GraphBuilder g;
  const Value a = g.input("a", 0.4, 0);
  const Value b = g.input("b", 0.3, 1);
  g.output(g.op("saturating-add", {a, b}));
  const Program p = g.build();
  const ProgramPlan manip = plan_program(p, Strategy::kManipulation);
  EXPECT_EQ(manip.fixes.back().fix, FixKind::kDesynchronizer);
  const ProgramPlan regen = plan_program(p, Strategy::kRegeneration);
  EXPECT_EQ(regen.fixes.back().fix, FixKind::kRegenerateComplementary);
}

TEST(Planner, ManipulationIsCheaperThanRegeneration) {
  // The paper's core hardware claim, at the planning level, for any graph.
  for (const Program& g : {product_sum_graph(), edge_like_graph()}) {
    const ProgramPlan manip = plan_program(g, Strategy::kManipulation);
    const ProgramPlan regen = plan_program(g, Strategy::kRegeneration);
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
  const Program g = product_sum_graph();
  ExecConfig config;
  config.width = 32;
  config.stream_length = 512;
  const ExecutionResult result =
      run(g, plan_program(g, Strategy::kManipulation), config);
  for (NodeId id = 0; id < g.node_count(); ++id) {
    if (g.node(id).kind != ProgramNode::Kind::kInput) continue;
    EXPECT_NEAR(result.streams[id].value(), g.node(id).value, 0.1)
        << "input node " << id;
  }
}

TEST(Executor, UnfixedGraphComputesWrongValues) {
  const Program g = product_sum_graph();
  const ProgramPlan plan = plan_program(g, Strategy::kNone);
  const ExecutionResult result = run(g, plan);
  // Same-group multiply computes min instead of product:
  // 0.5(min(.6,.5) + min(.3,.8)) = 0.4 vs exact 0.5*(0.3+0.24) = 0.27.
  EXPECT_GT(result.mean_abs_error, 0.08);
}

TEST(Executor, ManipulationPlanRestoresAccuracy) {
  const Program g = product_sum_graph();
  const ExecutionResult fixed =
      run(g, plan_program(g, Strategy::kManipulation));
  EXPECT_LT(fixed.mean_abs_error, 0.05);
}

TEST(Executor, RegenerationPlanRestoresAccuracy) {
  const Program g = product_sum_graph();
  const ExecutionResult fixed =
      run(g, plan_program(g, Strategy::kRegeneration));
  EXPECT_LT(fixed.mean_abs_error, 0.05);
}

TEST(Executor, EdgeGraphSubtractNeedsTheSynchronizer) {
  const Program g = edge_like_graph();
  const double broken =
      run(g, plan_program(g, Strategy::kNone)).mean_abs_error;
  const double fixed =
      run(g, plan_program(g, Strategy::kManipulation)).mean_abs_error;
  EXPECT_LT(fixed, broken * 0.5);
  EXPECT_LT(fixed, 0.05);
}

TEST(Executor, SaturatingAddViaDesynchronizer) {
  GraphBuilder b;
  const Value x = b.input("a", 0.55, 0);
  const Value y = b.input("b", 0.6, 1);
  b.output(b.op("saturating-add", {x, y}));
  const Program g = b.build();
  const ProgramPlan plan = plan_program(g, Strategy::kManipulation);
  // Default depth-2 desynchronizer gets close; the LFSR streams' run
  // structure leaves a few paired 1s, and how many depends on the derived
  // trace seeds.  Averaging over several base seeds removes that seed
  // luck, so the bound stays tight without being a lottery ticket.
  double total_error = 0.0;
  const std::uint32_t seeds[] = {3, 5, 7, 11, 13};
  for (const std::uint32_t seed : seeds) {
    ExecConfig config;
    config.seed = seed;
    total_error += std::abs(run(g, plan, config).values[0] - 1.0);
  }
  EXPECT_LT(total_error / std::size(seeds), 0.06);
  // Depth 8 absorbs the runs and saturates exactly.
  ExecConfig deep;
  deep.sync_depth = 8;
  const ExecutionResult deeper = run(g, plan, deep);
  EXPECT_NEAR(deeper.values[0], 1.0, 0.01);
}

TEST(Executor, ComplementaryRegenerationProducesNegativeScc) {
  GraphBuilder b;
  const Value x = b.input("a", 0.4, 0);
  const Value y = b.input("b", 0.45, 1);
  b.output(b.op("saturating-add", {x, y}));
  const Program g = b.build();
  const ExecutionResult fixed =
      run(g, plan_program(g, Strategy::kRegeneration));
  // min(1, 0.85) without saturation: only reachable at SCC ~ -1.
  EXPECT_NEAR(fixed.values[0], 0.85, 0.03);
}

TEST(Executor, SameGroupInputsAreBitIdenticalForEqualValues) {
  GraphBuilder b;
  const Value x = b.input("a", 0.5, 0);
  const Value y = b.input("b", 0.5, 0);
  b.output(b.op("min", {x, y}));
  const Program g = b.build();
  const ExecutionResult result = run(g, plan_program(g, Strategy::kNone));
  EXPECT_EQ(result.streams[x.id], result.streams[y.id]);
}

TEST(Executor, OutputsAlignWithMarkedNodes) {
  GraphBuilder b;
  const Value x = b.input("a", 0.25, 0);
  const Value y = b.input("b", 0.5, 1);
  const Value prod = b.op("multiply", {x, y});
  b.output(prod);
  b.output(x);
  const Program g = b.build();
  const ExecutionResult result = run(g, plan_program(g, Strategy::kNone));
  ASSERT_EQ(result.output_nodes.size(), 2u);
  EXPECT_EQ(result.output_nodes[0], prod.id);
  EXPECT_NEAR(result.values[1], 0.25, 0.02);
  EXPECT_DOUBLE_EQ(result.exact[0], 0.125);
}

TEST(Executor, DeterministicForFixedSeed) {
  const Program g = edge_like_graph();
  const ProgramPlan plan = plan_program(g, Strategy::kManipulation);
  const ExecutionResult r1 = run(g, plan);
  const ExecutionResult r2 = run(g, plan);
  EXPECT_EQ(r1.values, r2.values);
}

// --- end-to-end strategy comparison (the paper's §IV shape on any graph) ----

TEST(GraphIntegration, StrategyOrderingMatchesPaper) {
  const Program g = product_sum_graph();
  const ProgramPlan none = plan_program(g, Strategy::kNone);
  const ProgramPlan manip = plan_program(g, Strategy::kManipulation);
  const ProgramPlan regen = plan_program(g, Strategy::kRegeneration);

  const double err_none = run(g, none).mean_abs_error;
  const double err_manip = run(g, manip).mean_abs_error;
  const double err_regen = run(g, regen).mean_abs_error;

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

/// Stream lengths and word-aligned chunk sizes of the process()-vs-step()
/// checks: lengths around the word, the natural 2^16 and past it.
constexpr std::size_t kEvalLengths[] = {1,    63,    64,    65,
                                        4095, 65535, 65536, 70000};
constexpr std::size_t kEvalChunks[] = {64, 4096, 128, 65536, 192};

/// Drives def's process() chunk by chunk on word-aligned splits (as the
/// engine backend does) and requires it to equal the bit-serial step()
/// loop of a fresh evaluator over the same operands.
void expect_process_matches_step(const OperatorDef& def, const OpContext& ctx,
                                 const std::vector<Bitstream>& operands) {
  const std::size_t n = ctx.stream_length;
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
        std::min(kEvalChunks[c % std::size(kEvalChunks)], n - offset);
    std::vector<Bitstream> pieces;
    for (const Bitstream& operand : operands) {
      pieces.push_back(slice(operand, offset, take));
    }
    std::vector<const Bitstream*> ins;
    for (const Bitstream& piece : pieces) ins.push_back(&piece);
    Bitstream out(take);
    word->process(sc::span<const Bitstream* const>(ins.data(), ins.size()),
                  out);
    for (std::size_t i = 0; i < take; ++i) {
      if (out.get(i)) got.set(offset + i, true);
    }
    // The tail past the chunk must stay clear (Bitstream invariant).
    EXPECT_EQ(out.count_ones(), slice(out, 0, take).count_ones());
    offset += take;
  }
  EXPECT_EQ(got, expect) << def.name << " width " << ctx.width << " n " << n;
}

OpContext eval_context(std::size_t n, unsigned width) {
  OpContext ctx;
  ctx.stream_length = n;
  ctx.width = width;
  ctx.node = 5;
  ctx.base_seed = 3;
  return ctx;
}

Bitstream bernoulli_bits(std::mt19937_64& gen, std::size_t n, double p) {
  Bitstream stream(n);
  std::bernoulli_distribution bit(p);
  for (std::size_t i = 0; i < n; ++i) {
    if (bit(gen)) stream.set(i, true);
  }
  return stream;
}

/// Alternating runs of 1s and 0s with geometric lengths of the given
/// means: long runs carry an FSM's state across chunk boundaries.
Bitstream bursty_bits(std::mt19937_64& gen, std::size_t n, double mean_ones,
                      double mean_zeros) {
  Bitstream stream(n);
  std::bernoulli_distribution end_ones(1.0 / mean_ones);
  std::bernoulli_distribution end_zeros(1.0 / mean_zeros);
  bool one = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (one) stream.set(i, true);
    if (one ? end_ones(gen) : end_zeros(gen)) one = !one;
  }
  return stream;
}

TEST(Evaluators, RngDrivenProcessMatchesStepOverChunkSplits) {
  // Each RNG-driven operator's process() must equal step() at a width
  // whose period is far shorter than the run and at the natural width 16.
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
      for (const std::size_t n : kEvalLengths) {
        std::vector<Bitstream> operands;
        for (unsigned k = 0; k < def.arity; ++k) {
          operands.push_back(bernoulli_bits(gen, n, 0.15 + 0.05 * k));
        }
        expect_process_matches_step(def, eval_context(n, width), operands);
      }
    }
  }
}

TEST(Evaluators, FsmProcessMatchesStepOverChunkSplits) {
  // The stateful operators carry one bit (CORDIV's held quotient, the
  // toggle adder's T flip-flop) or a counter state (stanh / sexp) from
  // chunk to chunk.  Operands keep that state alive across boundaries:
  // y with long zero runs for CORDIV (the held bit replays), long x == y
  // runs for the toggle adder, and long input runs that drive the
  // counters into and out of both rails.
  OperatorRegistry reg = OperatorRegistry::with_builtins();
  register_stanh(reg, "stanh-4", 4);
  register_stanh(reg, "stanh-16", 16);
  register_sexp(reg, "sexp-4-1", 4, 1);
  register_sexp(reg, "sexp-16-1", 16, 1);
  register_sexp(reg, "sexp-8-2", 8, 2);
  register_sexp(reg, "sexp-16-2", 16, 2);
  std::mt19937_64 gen(23);
  for (const std::size_t n : kEvalLengths) {
    const OpContext ctx = eval_context(n, 16);
    const Bitstream x = bernoulli_bits(gen, n, 0.5);
    expect_process_matches_step(*reg.find("divide"), ctx,
                                {x, bursty_bits(gen, n, 3.0, 300.0)});
    expect_process_matches_step(*reg.find("toggle-add"), ctx,
                                {x, x ^ bursty_bits(gen, n, 2.0, 500.0)});
    for (const char* name : {"stanh-8", "sexp-8-1", "stanh-4", "stanh-16",
                             "sexp-4-1", "sexp-16-1", "sexp-8-2",
                             "sexp-16-2"}) {
      expect_process_matches_step(*reg.find(name), ctx,
                                  {bursty_bits(gen, n, 12.0, 12.0)});
      expect_process_matches_step(*reg.find(name), ctx,
                                  {bernoulli_bits(gen, n, 0.5)});
    }
  }
}

TEST(Evaluators, FsmFunctionRegistrationValidatesItsShape) {
  OperatorRegistry reg;
  for (const unsigned states : {0u, 1u, 7u, 4098u}) {
    EXPECT_THROW(register_stanh(reg, "stanh", states), std::invalid_argument)
        << states;
    EXPECT_THROW(register_sexp(reg, "sexp", states, 1), std::invalid_argument)
        << states;
  }
  EXPECT_THROW(register_sexp(reg, "sexp", 8, 0), std::invalid_argument);
  EXPECT_THROW(register_sexp(reg, "sexp", 8, 8), std::invalid_argument);
  EXPECT_EQ(reg.size(), 0u);
  register_sexp(reg, "sexp", 8, 7);
  EXPECT_NE(reg.find("sexp"), nullptr);
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
    for (const BackendKind kind :
         {BackendKind::kReference, BackendKind::kEngine}) {
      EXPECT_THROW(make_backend(kind)->run(program, plan, config),
                   std::invalid_argument)
          << "width " << width << " backend " << static_cast<int>(kind);
    }
  }
}

TEST(Backends, ZeroFixDepthThrowsInsteadOfMiscomputing) {
  // x*y over one RNG group needs a decorrelator, x - z over two groups a
  // synchronizer, and the saturating add always a desynchronizer.  Depth
  // 0 must throw in every build: a depth-0 shuffle buffer would pass the
  // correlated pair through and compute x*y as min(x, y).
  GraphBuilder b;
  const Value x = b.input("x", 0.6, 0);
  const Value y = b.input("y", 0.3, 0);
  const Value z = b.input("z", 0.5, 1);
  b.output(b.op("saturating-add",
                {b.op("multiply", {x, y}), b.op("subtract", {x, z})}));
  const Program program = b.build();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  const auto ops = program.op_nodes();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(fix_for(plan, ops[0]), FixKind::kDecorrelator);
  EXPECT_EQ(fix_for(plan, ops[1]), FixKind::kSynchronizer);
  EXPECT_EQ(fix_for(plan, ops[2]), FixKind::kDesynchronizer);

  ExecConfig no_sync;
  no_sync.sync_depth = 0;
  ExecConfig no_shuffle;
  no_shuffle.shuffle_depth = 0;
  for (const ExecConfig& config : {no_sync, no_shuffle}) {
    for (const BackendKind kind :
         {BackendKind::kReference, BackendKind::kEngine}) {
      EXPECT_THROW(make_backend(kind)->run(program, plan, config),
                   std::invalid_argument)
          << "sync_depth " << config.sync_depth << " shuffle_depth "
          << config.shuffle_depth << " backend " << static_cast<int>(kind);
    }
  }
  EXPECT_THROW(core::Synchronizer(core::Synchronizer::Config{0, false, 0}),
               std::invalid_argument);
  EXPECT_THROW(core::Desynchronizer(core::Desynchronizer::Config{0, false}),
               std::invalid_argument);
  EXPECT_THROW(core::ShuffleBuffer(0, std::make_unique<rng::Lfsr>(8, 1)),
               std::invalid_argument);
  EXPECT_THROW(core::ShuffleBuffer(4, nullptr), std::invalid_argument);

  // The planner prices every fix it inserts, so depth 0 in PlannerConfig
  // must throw there too rather than price a sync(D=0) netlist, and so
  // must the optimizer's replan under ExecConfig::optimize.
  PlannerConfig zero_sync;
  zero_sync.sync_depth = 0;
  PlannerConfig zero_shuffle;
  zero_shuffle.shuffle_depth = 0;
  for (const PlannerConfig& config : {zero_sync, zero_shuffle}) {
    EXPECT_THROW(plan_program(program, Strategy::kManipulation, config),
                 std::invalid_argument)
        << "sync_depth " << config.sync_depth << " shuffle_depth "
        << config.shuffle_depth;
  }
  EXPECT_THROW(fix_netlist(FixKind::kSynchronizer, zero_sync),
               std::invalid_argument);
  EXPECT_THROW(fix_netlist(FixKind::kDesynchronizer, zero_sync),
               std::invalid_argument);
  EXPECT_THROW(fix_netlist(FixKind::kDecorrelator, zero_shuffle),
               std::invalid_argument);
  ExecConfig optimized_no_sync = no_sync;
  optimized_no_sync.optimize = true;
  EXPECT_THROW(make_backend(BackendKind::kEngine)
                   ->run(program, plan, optimized_no_sync),
               std::invalid_argument);
}

}  // namespace
}  // namespace sc::graph
