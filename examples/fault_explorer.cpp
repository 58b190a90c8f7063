/// \file fault_explorer.cpp
/// Tour of the fault-injection subsystem (src/fault/):
///
///  1. attach error models to named stream edges of a registry program and
///     watch accuracy and correlation degrade,
///  2. corrupt a planned fix circuit's FSM state mid-stream and measure how
///     long the output takes to recover,
///  3. run the full resilience sweep (the ReCo1 experiment).
///
/// Every fault decision derives from (plan seed, edge name, bit index), so
/// rerunning this binary — on any backend — reproduces the exact same
/// corrupted bits.

#include <cstdio>

#include "bitstream/correlation.hpp"
#include "fault/fault.hpp"
#include "fault/sweep.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"

using namespace sc;

int main() {
  // --- 1. edge faults on a planned program ---------------------------------
  // Shared-trace max: the paper's correlation-dependent circuit (OR gate
  // computes max only while SCC = +1).  Bit flips erode that correlation.
  graph::GraphBuilder b;
  const graph::Value x = b.input("x", 0.7, 0);
  const graph::Value y = b.input("y", 0.45, 0);  // same RNG group: SCC = +1
  b.output(b.op("max", {x, y}), "out");
  const graph::Program program = b.build();
  const graph::ProgramPlan plan =
      plan_program(program, graph::Strategy::kManipulation);

  const auto backend = graph::make_backend(graph::BackendKind::kEngine);
  graph::ExecConfig config;
  config.stream_length = 4096;
  config.width = 12;

  std::printf("max(0.7, 0.45) on a shared trace, i.i.d. flips on both "
              "inputs:\n");
  std::printf("  %-8s %-12s %-12s %-12s\n", "rate", "input SCC", "|err|",
              "flipped bits");
  for (const double rate : {0.0, 0.01, 0.05, 0.1}) {
    fault::FaultPlan faults;
    faults.edges.push_back({"x", fault::ErrorKind::kBitFlip, rate});
    faults.edges.push_back(
        {"y", fault::ErrorKind::kBitFlip, rate, 16, /*salt=*/1});
    config.fault_plan = rate == 0.0 ? nullptr : &faults;
    const graph::ExecutionResult result = backend->run(program, plan, config);

    // Count the actually flipped bits by re-deriving the error process —
    // the same hashes the backends used.
    std::size_t flipped = 0;
    for (const fault::EdgeFault& fault : faults.edges) {
      if (rate == 0.0) break;
      const std::uint64_t key = fault::fault_key(faults.seed, fault.edge,
                                                 fault.kind, fault.salt);
      for (std::size_t i = 0; i < config.stream_length; ++i) {
        if (fault::draw_at(key, i, fault.rate)) ++flipped;
      }
    }
    const double input_scc = scc(result.streams[program.find("x")],
                                 result.streams[program.find("y")]);
    std::printf("  %-8.3f %-12.3f %-12.4f %zu\n", rate, input_scc,
                result.abs_errors[0], flipped);
  }

  // --- 2. FSM state corruption ---------------------------------------------
  // Independent inputs give max a planned synchronizer; wipe its credit
  // register mid-stream (an SEU) and diff against the clean run.
  graph::GraphBuilder b2;
  const graph::Value u = b2.input("u", 0.7, 0);
  const graph::Value v = b2.input("v", 0.45, 1);
  b2.output(b2.op("max", {u, v}), "out");
  const graph::Program resync = b2.build();
  const graph::ProgramPlan resync_plan =
      plan_program(resync, graph::Strategy::kManipulation);

  config.fault_plan = nullptr;
  const graph::ExecutionResult clean = backend->run(resync, resync_plan,
                                                    config);
  fault::FaultPlan seu;
  seu.fsms.push_back({"out", /*first=*/2048, /*period=*/0, /*lane=*/-1});
  config.fault_plan = &seu;
  const graph::ExecutionResult hit = backend->run(resync, resync_plan, config);

  const graph::NodeId out = resync.outputs()[0];
  std::size_t disturbed = 0, last = 0;
  for (std::size_t i = 0; i < clean.streams[out].size(); ++i) {
    if (clean.streams[out].get(i) != hit.streams[out].get(i)) {
      ++disturbed;
      last = i;
    }
  }
  std::printf("\nsynchronizer credit wiped at cycle 2048: %zu output bits "
              "disturbed, recovered after %zu cycles\n",
              disturbed, disturbed == 0 ? 0 : last - 2048 + 1);

  // --- 3. the full sweep ---------------------------------------------------
  std::printf("\nfull resilience sweep (fault::sweep, mean function-error "
              "inflation over rates >= 0.01):\n");
  fault::SweepConfig sweep_config;
  const fault::SweepReport report = fault::sweep(sweep_config);
  for (const auto& [circuit, regime] :
       {std::pair<const char*, const char*>{"max", "correlated"},
        {"min", "correlated"},
        {"multiply", "decorrelated"},
        {"max", "resynchronized"}}) {
    std::printf("  %-10s %-14s %+.4f\n", circuit, regime,
                report.mean_inflation(circuit, regime));
  }
  std::printf("ReCo1 ordering (decorrelated degrades most gracefully): %s\n",
              report.reco1_ordering_holds() ? "holds" : "violated");
  return 0;
}
