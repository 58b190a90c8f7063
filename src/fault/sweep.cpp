#include "fault/sweep.hpp"

#include <memory>
#include <utility>

#include "bitstream/correlation.hpp"
#include "fault/fault.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"

namespace sc::fault {
namespace {

using graph::ExecConfig;
using graph::ExecutionResult;
using graph::GraphBuilder;
using graph::NodeId;
using graph::PairFix;
using graph::Program;
using graph::ProgramPlan;
using graph::Value;

/// Two-input circuit: out = op(x, y) with x, y in one or two RNG groups.
Program two_input(const char* op, bool shared_group) {
  GraphBuilder b;
  const Value x = b.input("x", 0.7, 0);
  const Value y = b.input("y", 0.45, shared_group ? 0 : 1);
  b.output(b.op(op, {x, y}), "out");
  return b.build();
}

ExecConfig exec_config(const SweepConfig& config) {
  ExecConfig exec;
  exec.stream_length = config.stream_length;
  exec.width = config.width;
  exec.seed = config.seed;
  return exec;
}

/// Both input edges flipped i.i.d. at `rate`, as independent processes.
FaultPlan flip_inputs(const SweepConfig& config, double rate) {
  FaultPlan plan;
  plan.seed = config.fault_seed;
  plan.edges.push_back({"x", ErrorKind::kBitFlip, rate, 16, 0});
  plan.edges.push_back({"y", ErrorKind::kBitFlip, rate, 16, 1});
  return plan;
}

struct DiffStats {
  std::size_t disturbed = 0;
  std::size_t last_diff = 0;
  bool any = false;
};

DiffStats diff(const Bitstream& a, const Bitstream& b) {
  DiffStats stats;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.get(i) != b.get(i)) {
      ++stats.disturbed;
      stats.last_diff = i;
      stats.any = true;
    }
  }
  return stats;
}

}  // namespace

double SweepReport::mean_inflation(const std::string& circuit,
                                   const std::string& regime,
                                   double min_rate) const {
  double total = 0.0;
  std::size_t count = 0;
  for (const SweepRow& row : rows) {
    if (row.circuit != circuit || row.regime != regime) continue;
    if (row.rate < min_rate) continue;
    total += row.func_err_inflation();
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

bool SweepReport::reco1_ordering_holds() const {
  const double graceful = mean_inflation("multiply", "decorrelated");
  return graceful < mean_inflation("max", "correlated") &&
         graceful < mean_inflation("min", "correlated");
}

SweepReport sweep(const SweepConfig& config) {
  SweepReport report;
  const auto backend = graph::make_backend(graph::BackendKind::kEngine);
  const ExecConfig exec = exec_config(config);

  // --- error-rate sweep ---------------------------------------------------
  struct CircuitSpec {
    const char* op;
    const char* regime;
    bool shared_group;
  };
  const CircuitSpec circuits[] = {
      {"max", "correlated", true},        // rides on SCC = +1, unprotected
      {"min", "correlated", true},
      {"multiply", "decorrelated", true}, // planner inserts a decorrelator
      {"multiply", "independent", false},
      {"max", "resynchronized", false},   // planner inserts a synchronizer
      {"scaled-add", "agnostic", false},
  };
  for (const CircuitSpec& spec : circuits) {
    const Program program = two_input(spec.op, spec.shared_group);
    const ProgramPlan plan =
        plan_program(program, graph::Strategy::kManipulation);
    const NodeId x = program.find("x");
    const NodeId y = program.find("y");
    const NodeId out = program.outputs()[0];
    // |output - f(measured inputs)| via the registry's exact semantics:
    // did the circuit still compute its function on the values it saw?
    const auto func_err = [&](const ExecutionResult& result) {
      const double operands[] = {result.streams[x].value(),
                                 result.streams[y].value()};
      return std::abs(result.values[0] -
                      program.def_of(out).exact(
                          sc::span<const double>(operands, 2)));
    };

    const ExecutionResult clean = backend->run(program, plan, exec);
    const double scc_clean = scc(clean.streams[x], clean.streams[y]);

    for (const double rate : config.rates) {
      const FaultPlan faults = flip_inputs(config, rate);
      ExecConfig faulted_exec = exec;
      faulted_exec.fault_plan = &faults;
      const ExecutionResult faulted = backend->run(program, plan, faulted_exec);
      SweepRow row;
      row.circuit = spec.op;
      row.regime = spec.regime;
      row.rate = rate;
      row.scc_clean = scc_clean;
      row.scc_faulty = scc(faulted.streams[x], faulted.streams[y]);
      row.err_clean = clean.abs_errors[0];
      row.err_faulty = faulted.abs_errors[0];
      row.func_err_clean = func_err(clean);
      row.func_err_faulty = func_err(faulted);
      report.rows.push_back(std::move(row));
    }
  }

  // --- FSM corruption recovery --------------------------------------------
  const std::size_t corrupt_cycle = config.stream_length / 2;
  struct RecoverySpec {
    const char* fix;
    const char* op;
    bool shared_group;
  };
  const RecoverySpec recoveries[] = {
      {"synchronizer", "max", false},       // kPositive over independents
      {"desynchronizer", "saturating-add", false},  // kNegative: always fixed
      {"decorrelator", "multiply", true},   // kUncorrelated over shared trace
  };
  const auto run_recovery = [&](const char* fix_name, const char* host,
                                const Program& program,
                                const ProgramPlan& plan) {
    const NodeId out = program.outputs()[0];
    FaultPlan faults;
    faults.seed = config.fault_seed;
    faults.fsms.push_back({program.node(out).name, corrupt_cycle, 0, -1});
    ExecConfig faulted_exec = exec;
    faulted_exec.fault_plan = &faults;
    const ExecutionResult clean = backend->run(program, plan, exec);
    const ExecutionResult faulted = backend->run(program, plan, faulted_exec);
    const DiffStats stats = diff(clean.streams[out], faulted.streams[out]);
    RecoveryRow row;
    row.fix = fix_name;
    row.circuit = host;
    row.corrupt_cycle = corrupt_cycle;
    row.disturbed_bits = stats.disturbed;
    row.recovery_depth = stats.any ? stats.last_diff - corrupt_cycle + 1 : 0;
    report.recovery.push_back(std::move(row));
  };
  for (const RecoverySpec& spec : recoveries) {
    const Program program = two_input(spec.op, spec.shared_group);
    run_recovery(spec.fix, spec.op, program,
                 plan_program(program, graph::Strategy::kManipulation));
  }
  {
    // The chain link is optimizer-emitted, not planner-emitted; a manual
    // one-fix plan over multiply(x, x) exercises it directly (both
    // operands carry the same stream, the link's validity condition).
    GraphBuilder b;
    const Value x = b.input("x", 0.7, 0);
    b.output(b.op("multiply", {x, x}), "out");
    const Program program = b.build();
    ProgramPlan plan;
    plan.strategy = graph::Strategy::kManipulation;
    PairFix fix;
    fix.op_node = program.outputs()[0];
    fix.operand_a = 0;
    fix.operand_b = 1;
    fix.requirement = graph::Requirement::kUncorrelated;
    fix.relation = graph::Relation::kPositive;
    fix.fix = graph::FixKind::kDecorrelatorChain;
    plan.fixes.push_back(fix);
    plan.inserted_units = 1;
    run_recovery("decorrelator-chain-link", "multiply(x,x)", program, plan);
  }

  return report;
}

}  // namespace sc::fault
