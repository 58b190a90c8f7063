/// \file bench_fault_resilience.cpp
/// Resilience-under-fault baseline: sweeps injected error rate x circuit x
/// correlation regime (fault::sweep) and prints SCC drift, output error,
/// and FSM-corruption recovery depth, mirroring the ReCo1 observation that
/// correlation-dependent circuits degrade faster under soft errors than
/// decorrelated pipelines.
///
/// Doubles as a CI self-check (exit 1 on failure):
///  * the ReCo1 ordering must hold — decorrelated multiply strictly
///    gentler error inflation than correlated max / min,
///  * the reference and engine backends (plus a small-chunk pooled engine
///    session) must produce bit-identical streams under one representative fault plan
///    mixing every error kind.
///
/// --json PATH writes the committed BENCH_fault.json baseline.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/session.hpp"
#include "fault/fault.hpp"
#include "fault/inject.hpp"
#include "fault/sweep.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"

namespace {

using namespace sc;
using namespace sc::fault;

/// Every backend (and a boundary-heavy pooled engine) bit-identical under
/// one fault plan that exercises every error kind at once.
bool backends_identical(std::size_t stream_length) {
  graph::GraphBuilder b;
  const graph::Value x = b.input("x", 0.7, 0);
  const graph::Value y = b.input("y", 0.45, 0);   // shared trace
  const graph::Value z = b.input("z", 0.3, 1);
  const graph::Value prod = b.op("multiply", {x, y});  // gets a decorrelator
  const graph::Value m = b.op("max", {prod, z});       // gets a synchronizer
  b.output(m, "out");
  const graph::Program program = b.build();
  const graph::ProgramPlan plan =
      plan_program(program, graph::Strategy::kManipulation);

  FaultPlan faults;
  faults.edges.push_back({"x", ErrorKind::kBitFlip, 0.02, 16, 0});
  faults.edges.push_back({"z", ErrorKind::kBurst, 0.05, 24, 0});
  faults.edges.push_back({"multiply", ErrorKind::kBitFlip, 0.005, 16, 1});
  // "out" is the max node (output() renamed it): wipes its synchronizer.
  faults.fsms.push_back({"out", stream_length / 3, 0, -1});
  validate(faults, program);  // resolve() skips typos silently; fail loudly

  graph::ExecConfig config;
  config.stream_length = stream_length;
  config.width = 12;
  config.fault_plan = &faults;

  const auto reference = graph::make_backend(graph::BackendKind::kReference);
  const graph::ExecutionResult want = reference->run(program, plan, config);

  engine::Session session({2, /*chunk_bits=*/192, 0x5eed});
  std::unique_ptr<graph::ExecutorBackend> candidates[] = {
      graph::make_backend(graph::BackendKind::kEngine),
      graph::make_engine_backend(session),
  };
  for (const auto& candidate : candidates) {
    const graph::ExecutionResult got = candidate->run(program, plan, config);
    for (std::size_t s = 0; s < want.streams.size(); ++s) {
      if (!(want.streams[s] == got.streams[s])) {
        std::fprintf(stderr, "FAULT DIVERGENCE: %s stream %zu\n",
                     candidate->name().c_str(), s);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  unsigned log2_bits = 12;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--bits") == 0 && i + 1 < argc) {
      log2_bits = static_cast<unsigned>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--bits LOG2]\n", argv[0]);
      return 2;
    }
  }

  SweepConfig config;
  config.stream_length = std::size_t{1} << log2_bits;
  std::printf("fault resilience sweep: 2^%u bits, i.i.d. flips on both "
              "inputs\n\n",
              log2_bits);
  const SweepReport report = sweep(config);

  // fn-err = |output - f(measured inputs)|: whether the circuit still
  // computes its function on the values it actually received — the
  // column the ReCo1 ordering is judged on (input drift hits every
  // circuit; losing the function is what distinguishes them).
  bench::Table table({"circuit", "regime", "rate", "SCC clean", "SCC fault",
                      "|err| fault", "fn-err clean", "fn-err fault"},
                     {10, 14, 6, 9, 9, 11, 12, 12});
  table.print_header();
  std::string last;
  for (const SweepRow& row : report.rows) {
    if (!last.empty() && last != row.circuit + row.regime) table.print_rule();
    last = row.circuit + row.regime;
    table.print_row({row.circuit, row.regime, bench::cell(row.rate, 3),
                     bench::cell(row.scc_clean), bench::cell(row.scc_faulty),
                     bench::cell(row.err_faulty, 4),
                     bench::cell(row.func_err_clean, 4),
                     bench::cell(row.func_err_faulty, 4)});
  }
  table.print_rule();

  std::printf("\nFSM state corruption at cycle N/2 (recovery depth = cycles "
              "until the output re-agrees with the clean run):\n\n");
  bench::Table recovery({"fix circuit", "host op", "corrupt@", "disturbed",
                         "depth"},
                        {24, 16, 9, 9, 7});
  recovery.print_header();
  for (const RecoveryRow& row : report.recovery) {
    recovery.print_row({row.fix, row.circuit,
                        bench::cell_int(static_cast<std::int64_t>(
                            row.corrupt_cycle)),
                        bench::cell_int(static_cast<std::int64_t>(
                            row.disturbed_bits)),
                        bench::cell_int(static_cast<std::int64_t>(
                            row.recovery_depth))});
  }
  recovery.print_rule();

  const bool ordering = report.reco1_ordering_holds();
  const bool identical = backends_identical(config.stream_length);
  std::printf("\nReCo1 ordering (decorrelated multiply degrades more "
              "gracefully than correlated max/min): %s\n",
              ordering ? "holds" : "VIOLATED");
  std::printf("backends bit-identical under mixed fault plan: %s\n",
              identical ? "yes" : "NO");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"host\": " << sc::bench::host_json()
        << ",\n  \"stream_bits\": " << config.stream_length
        << ",\n  \"reco1_ordering\": " << (ordering ? "true" : "false")
        << ",\n  \"backends_identical\": " << (identical ? "true" : "false")
        << ",\n  \"sweep\": [\n";
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
      const SweepRow& r = report.rows[i];
      out << "    {\"circuit\": \"" << r.circuit << "\", \"regime\": \""
          << r.regime << "\", \"rate\": " << r.rate
          << ", \"scc_clean\": " << r.scc_clean
          << ", \"scc_faulty\": " << r.scc_faulty
          << ", \"err_clean\": " << r.err_clean
          << ", \"err_faulty\": " << r.err_faulty
          << ", \"func_err_clean\": " << r.func_err_clean
          << ", \"func_err_faulty\": " << r.func_err_faulty << "}"
          << (i + 1 < report.rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"recovery\": [\n";
    for (std::size_t i = 0; i < report.recovery.size(); ++i) {
      const RecoveryRow& r = report.recovery[i];
      out << "    {\"fix\": \"" << r.fix << "\", \"circuit\": \"" << r.circuit
          << "\", \"corrupt_cycle\": " << r.corrupt_cycle
          << ", \"disturbed_bits\": " << r.disturbed_bits
          << ", \"recovery_depth\": " << r.recovery_depth << "}"
          << (i + 1 < report.recovery.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  const bool ok = ordering && identical;
  std::printf("\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
