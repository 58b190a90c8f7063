/// \file bench_graph_executor.cpp
/// Per-backend throughput of the registry program executor.
///
/// One reference program (a mixed workload over the registered operator
/// set: gates, MUX adders, CORDIV divide, FSM functions, a Bernstein unit,
/// and the §IV window stages) is planned under Strategy::kManipulation and
/// executed on each ExecutorBackend.  Throughput is reported as node
/// Mbit/s (stream_length x node_count / wall time — every node's stream
/// advances that many bits), and every backend's outputs are verified
/// bit-identical to the reference backend before any number is written.
///
/// Harness bench (bench_harness.hpp).  Cases: graph_executor/<backend>
/// (throughput, node-Mbit/s) and graph_executor/<backend>/identical
/// (exact — cross-backend bit-identity, config-independent).
///
/// Usage: bench_graph_executor [--json PATH] [--reps N] [--warmup N]
///        [--quick] [--bits LOG2]

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.hpp"
#include "engine/session.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "img/sc_pipeline.hpp"

namespace {

/// The reference workload: the §IV window program extended with the wider
/// operator set so every evaluator family is on the clock.
sc::graph::Program bench_program() {
  using namespace sc::graph;
  std::array<double, 16> pixels{};
  for (std::size_t i = 0; i < 16; ++i) pixels[i] = 0.1 + 0.05 * (i % 10);
  const Program window = sc::img::window_program(pixels);

  GraphBuilder b;
  std::vector<Value> args;
  for (unsigned i = 0; i < 16; ++i) {
    args.push_back(b.input("p" + std::to_string(i), pixels[i], i % 4));
  }
  const Value edge = b.append(window, args)[0];
  const Value x = b.input("x", 0.62, 4);
  const Value y = b.input("y", 0.35, 4);  // same group: planner must fix
  const Value prod = b.op("multiply", {x, y});
  const Value quot = b.op("divide", {y, x});
  const Value bip = b.op("multiply-bipolar", {prod, b.constant(0.8)});
  const Value nl = b.op("stanh-8", {b.op("scaled-add", {quot, bip})});
  const Value poly = b.op("bernstein-x2-3", {nl, nl, nl});
  b.output(b.op("saturating-add", {poly, edge}), "out");
  b.output(edge, "edge");
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sc::graph;

  sc::bench::HarnessOptions options;
  std::vector<std::string> rest;
  if (!sc::bench::parse_harness_options(argc, argv, &options, &rest)) return 2;
  // --quick only cuts reps (the harness does): the stream length stays at
  // the baseline's 2^16, so a quick run's throughput rows stay comparable.
  unsigned log2_bits = 16;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--bits" && i + 1 < rest.size()) {
      log2_bits = static_cast<unsigned>(std::atoi(rest[++i].c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--reps N] [--warmup N] [--quick] "
                   "[--bits LOG2]\n",
                   argv[0]);
      return 2;
    }
  }

  const Program program = bench_program();
  const ProgramPlan plan = plan_program(program, Strategy::kManipulation);
  ExecConfig config;
  config.stream_length = std::size_t{1} << log2_bits;
  config.width = 16;
  const std::string case_config = "bits=" + std::to_string(log2_bits);

  sc::bench::Harness harness("graph_executor", options);
  harness.set_meta("stream_bits",
                   static_cast<std::uint64_t>(config.stream_length));
  harness.set_meta("node_count",
                   static_cast<std::uint64_t>(program.node_count()));
  harness.set_meta("inserted_units",
                   static_cast<std::uint64_t>(plan.inserted_units));

  std::printf("graph executor bench: %zu nodes, %zu inserted units, 2^%u "
              "bits, median of %u reps\n\n",
              program.node_count(), plan.inserted_units, log2_bits,
              harness.options().reps);

  sc::engine::Session session({0});
  std::vector<std::unique_ptr<ExecutorBackend>> backends;
  backends.push_back(make_backend(BackendKind::kReference));
  backends.push_back(make_engine_backend(session));

  const double node_bits = static_cast<double>(config.stream_length) *
                           static_cast<double>(program.node_count());

  ExecutionResult reference;
  bool all_identical = true;
  for (const auto& backend : backends) {
    ExecutionResult last;
    const double median_s = harness.time_case(
        "graph_executor/" + backend->name(), "node_mbit_per_s", node_bits, 1e6,
        [&] { last = backend->run(program, plan, config); }, case_config);
    bool identical = true;
    if (reference.streams.empty()) {
      reference = last;
    } else {
      for (std::size_t s = 0; s < reference.streams.size(); ++s) {
        if (last.streams[s] != reference.streams[s]) {
          identical = false;
          break;
        }
      }
    }
    harness.exact_case("graph_executor/" + backend->name() + "/identical",
                       identical ? 1 : 0);
    all_identical = all_identical && identical;
    std::printf("  %-10s %8.3f ms   %8.1f node-Mbit/s   identical=%s\n",
                backend->name().c_str(), median_s * 1e3,
                node_bits / median_s / 1e6, identical ? "yes" : "NO");
  }

  std::printf("\nmean |error| vs exact: %.5f; backends bit-identical: %s\n",
              reference.mean_abs_error, all_identical ? "yes" : "NO");

  if (!harness.write_json()) return 1;
  return all_identical ? 0 : 1;
}
