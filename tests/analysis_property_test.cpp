/// Property campaign for the static analyzer: on random registry
/// programs, every SCC-class the correlation dataflow *claims* for a raw
/// operand pair must agree with the SCC measured over real 2^14-bit
/// executions (backends alternate reference / engine across the
/// campaign), and the analyzer must be differentially complete against
/// the planner — zero error-class false negatives: every violation the
/// planner records is either an analyzer error or a pair the analyzer
/// *proved* satisfied, and those proofs are themselves measured.
///
/// Reproducing a failure: every case logs its 64-bit case seed via
/// SCOPED_TRACE — rerun with SC_ANALYSIS_SEED=<base seed> (and
/// SC_ANALYSIS_CASES if the failing index was past the default budget)
/// to replay the identical campaign.  The default 220 cases are the
/// ISSUE's >= 200 acceptance bar.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>

#include "analysis/analyzer.hpp"
#include "bitstream/correlation.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph_fixtures.hpp"

namespace sc::analysis {
namespace {

using graph::ExecConfig;
using graph::NodeId;
using graph::Program;
using graph::ProgramPlan;
using graph::Strategy;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 0);
}

/// Mean Pearson of a claimed-independent node pair over several base
/// seeds.  One seed is not enough: width-8 group traces are phase shifts
/// of one LFSR cycle, and an unlucky phase offset couples two genuinely
/// independent threshold streams up to |pearson| ~ 0.65.  The coupling's
/// sign and size are functions of the seed-derived phases, so it averages
/// out across seeds — while *structural* correlation the analyzer missed
/// (say, x against and(x, y), pearson ~ +0.6 at every seed) persists.
/// Seeds where the claim itself changes (a retry seed can mask-alias the
/// very generators whose disjointness is being tested) are skipped.
double mean_independent_pearson(const graph::Program& program,
                                const ProgramPlan& plan, ExecConfig exec,
                                NodeId a, NodeId b, graph::BackendKind kind) {
  double sum = 0.0;
  int samples = 0;
  for (int trial = 0; trial < 5; ++trial, exec.seed += 0x101u) {
    const AnalysisReport report =
        analyze(program, plan, AnalyzerConfig::from(exec));
    if (report.node_class(a, b) != SccClass::kIndependent) continue;
    const graph::ExecutionResult result =
        graph::make_backend(kind)->run(program, plan, exec);
    if (!sc::scc_defined(result.streams[a], result.streams[b])) continue;
    sum += sc::pearson(result.streams[a], result.streams[b]);
    ++samples;
  }
  return samples == 0 ? 0.0 : sum / samples;
}

/// Class-vs-measurement agreement: claims are one-sided (the analyzer
/// only speaks when it can prove), and each claim is checked with the
/// metric that is well-conditioned for it.  Correlated / anticorrelated
/// proofs are exact (threshold encodings of one trace give SCC = +/-1 by
/// construction), so SCC with a generous 0.5 margin.  Independence is
/// checked with Pearson: SCC normalizes by min(p1,p2) - p1*p2, which
/// collapses for skewed values — two provably independent streams whose
/// rarer 1-set happens to avoid the other's 0-set measure SCC = 1.0
/// exactly — while the Pearson denominator sqrt(p1q1 p2q2) stays bounded.
/// A single-seed Pearson can still exceed 0.5 from LFSR phase coupling,
/// so over-threshold independence claims escalate to the multi-seed mean.
void expect_class_matches(SccClass predicted, const graph::Program& program,
                          const ProgramPlan& plan, const ExecConfig& exec,
                          graph::BackendKind kind,
                          const graph::ExecutionResult& result, NodeId a,
                          NodeId b, const std::string& context) {
  switch (predicted) {
    case SccClass::kCorrelated:
      EXPECT_GT(sc::scc(result.streams[a], result.streams[b]), 0.5)
          << context;
      break;
    case SccClass::kIndependent:
      if (std::abs(sc::pearson(result.streams[a], result.streams[b])) >=
          0.5) {
        EXPECT_LT(
            std::abs(mean_independent_pearson(program, plan, exec, a, b,
                                              kind)),
            0.5)
            << context;
      }
      break;
    case SccClass::kAnticorrelated:
      EXPECT_LT(sc::scc(result.streams[a], result.streams[b]), -0.5)
          << context;
      break;
    case SccClass::kUnknown:
      break;  // no claim, nothing to check
  }
}

TEST(AnalysisProperty, PredictionsMatchMeasurementAndCoverPlanner) {
  const std::uint64_t base_seed = env_u64("SC_ANALYSIS_SEED", 0x5EEDull);
  const std::uint64_t cases = env_u64("SC_ANALYSIS_CASES", 220);
  const Strategy strategies[] = {Strategy::kManipulation,
                                 Strategy::kRegeneration, Strategy::kNone};
  const graph::BackendKind backends[] = {graph::BackendKind::kReference,
                                         graph::BackendKind::kEngine};

  std::size_t claims_checked = 0;
  std::size_t violations_seen = 0;
  for (std::uint64_t index = 0; index < cases; ++index) {
    const std::uint64_t case_seed = base_seed + index;
    SCOPED_TRACE("case " + std::to_string(index) + " seed " +
                 std::to_string(case_seed) + " (SC_ANALYSIS_SEED=" +
                 std::to_string(base_seed) + ")");
    std::mt19937_64 gen(case_seed);

    const Program program = graph::fixtures::random_program(gen, 3 + gen() % 5);
    const Strategy strategy = strategies[index % 3];
    const ProgramPlan plan = graph::plan_program(program, strategy);

    ExecConfig exec;
    exec.stream_length = std::size_t{1} << 14;
    exec.width = 8;
    exec.seed = static_cast<std::uint32_t>(gen());
    const AnalysisReport report =
        analyze(program, plan, AnalyzerConfig::from(exec));

    // --- planner differential: zero error-class false negatives --------
    // Every node the planner recorded as violated must surface as an
    // analyzer requirement-violation error, unless the analyzer proved
    // every examined pair of that node satisfied (its proofs are then
    // held to the measurement below like any other claim).
    std::set<NodeId> error_nodes;
    for (const Diagnostic& diagnostic : report.diagnostics) {
      if (diagnostic.id == "requirement-violation") {
        error_nodes.insert(diagnostic.node);
      }
    }
    for (const NodeId violated : plan.violations) {
      ++violations_seen;
      if (error_nodes.count(violated) != 0) continue;
      bool all_proven = true;
      for (const PairPrediction& pair : report.pairs) {
        if (pair.op_node == violated) all_proven &= pair.satisfied;
      }
      EXPECT_TRUE(all_proven)
          << "planner violation at node " << violated
          << " neither reported nor proven satisfied";
    }

    // --- measured SCC vs predicted class -------------------------------
    const graph::ExecutionResult result =
        graph::make_backend(backends[index % 2])->run(program, plan, exec);
    for (const PairPrediction& pair : report.pairs) {
      const graph::ProgramNode& node = program.node(pair.op_node);
      const NodeId a = node.operands[pair.operand_a];
      const NodeId b = node.operands[pair.operand_b];
      if (pair.operands == SccClass::kUnknown) continue;
      if (!sc::scc_defined(result.streams[a], result.streams[b])) {
        continue;  // degenerate stream (all zeros/ones): SCC undefined
      }
      expect_class_matches(
          pair.operands, program, plan, exec, backends[index % 2], result, a,
          b,
          "pair (" + std::to_string(a) + ", " + std::to_string(b) +
              ") of op node " + std::to_string(pair.op_node) + " claimed " +
              to_string(pair.operands));
      ++claims_checked;
    }
  }
  // The campaign must actually exercise the machinery: the analyzer has
  // to commit to real claims, and the Strategy::kNone third has to
  // produce planner violations to check coverage against.
  EXPECT_GT(claims_checked, cases);
  EXPECT_GT(violations_seen, cases / 10);
}

/// node_class is the public query the sc_lint pair predictions are built
/// from; spot-check its claims over every node pair, not just the pairs
/// operators examine.
TEST(AnalysisProperty, NodeClassClaimsHoldOverAllNodePairs) {
  const std::uint64_t base_seed = env_u64("SC_ANALYSIS_SEED", 0x5EEDull);
  const std::uint64_t cases = env_u64("SC_ANALYSIS_NODE_CASES", 40);
  std::size_t claims_checked = 0;
  for (std::uint64_t index = 0; index < cases; ++index) {
    const std::uint64_t case_seed = base_seed + 0x9000 + index;
    SCOPED_TRACE("case " + std::to_string(index) + " seed " +
                 std::to_string(case_seed));
    std::mt19937_64 gen(case_seed);
    const Program program = graph::fixtures::random_program(gen, 2 + gen() % 4);
    const ProgramPlan plan =
        graph::plan_program(program, Strategy::kManipulation);
    ExecConfig exec;
    exec.stream_length = std::size_t{1} << 14;
    exec.seed = static_cast<std::uint32_t>(gen());
    const AnalysisReport report =
        analyze(program, plan, AnalyzerConfig::from(exec));
    const graph::ExecutionResult result =
        graph::make_backend(graph::BackendKind::kReference)
            ->run(program, plan, exec);
    for (NodeId a = 0; a < program.node_count(); ++a) {
      for (NodeId b = a + 1; b < program.node_count(); ++b) {
        const SccClass predicted = report.node_class(a, b);
        if (predicted == SccClass::kUnknown) continue;
        if (!sc::scc_defined(result.streams[a], result.streams[b])) {
          continue;
        }
        expect_class_matches(predicted, program, plan, exec,
                             graph::BackendKind::kReference, result, a, b,
                             "nodes (" + std::to_string(a) + ", " +
                                 std::to_string(b) + ") claimed " +
                                 to_string(predicted));
        ++claims_checked;
      }
    }
  }
  EXPECT_GT(claims_checked, cases);
}

}  // namespace
}  // namespace sc::analysis
