/// Quickstart: the library in five minutes.
///
///  1. Encode values as stochastic numbers with different RNG sources.
///  2. See correlation make-or-break an SC operation (paper Table I).
///  3. Fix it with the paper's correlation manipulating circuits.
///  4. Use the improved operators (sync-max / desync saturating add).
///  5. Price the hardware with the cost model.
///  6. Let the planner do all of it: registry programs + backends.
///  7. (opt-in) Watch it run: SC_TRACE / SC_METRICS telemetry.
///
/// Build & run:  ./examples/quickstart
/// With a trace: SC_TRACE=trace.json ./examples/quickstart
///               (open trace.json in https://ui.perfetto.dev)

#include <cstdio>
#include <memory>

#include "arith/multiply.hpp"
#include "bitstream/correlation.hpp"
#include "convert/sng.hpp"
#include "core/decorrelator.hpp"
#include "core/ops.hpp"
#include "core/pair_transform.hpp"
#include "core/synchronizer.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "hw/cost.hpp"
#include "hw/designs.hpp"
#include "obs/telemetry.hpp"
#include "rng/halton.hpp"
#include "rng/lfsr.hpp"
#include "rng/van_der_corput.hpp"

using namespace sc;

int main() {
  constexpr std::size_t kN = 256;  // stream length -> 8-bit precision

  // --- 1. encode two values ------------------------------------------------
  // A stochastic number generator is a comparator fed by a random source.
  convert::Sng sng_a(std::make_unique<rng::VanDerCorput>(8));
  convert::Sng sng_b(std::make_unique<rng::Halton>(8, 3));

  const Bitstream a = sng_a.generate_value(0.5, kN);   // pA = 0.5
  const Bitstream b = sng_b.generate_value(0.75, kN);  // pB = 0.75
  std::printf("a encodes %.3f, b encodes %.3f, SCC(a,b) = %+.3f\n", a.value(),
              b.value(), scc(a, b));

  // --- 2. correlation makes or breaks SC arithmetic ------------------------
  // AND multiplies *only* for uncorrelated operands (paper Table I).
  std::printf("AND(a, b)              = %.3f (expect 0.375 = 0.5 * 0.75)\n",
              arith::multiply(a, b).value());

  // Same values from one shared source: SCC = +1 and AND computes min.
  convert::Sng shared1(std::make_unique<rng::Lfsr>(8, 1));
  convert::Sng shared2(std::make_unique<rng::Lfsr>(8, 1));
  const Bitstream c = shared1.generate_value(0.5, kN);
  const Bitstream d = shared2.generate_value(0.75, kN);
  std::printf("same-RNG pair: SCC = %+.3f, AND = %.3f (min, not product!)\n",
              scc(c, d), arith::multiply(c, d).value());

  // --- 3. fix it in-stream with a decorrelator ------------------------------
  core::Decorrelator decorrelator(8, std::make_unique<rng::Lfsr>(8, 19),
                                  std::make_unique<rng::Lfsr>(8, 37));
  const StreamPair decorrelated = core::apply(decorrelator, c, d);
  std::printf("after decorrelator: SCC = %+.3f, AND = %.3f (product again)\n",
              scc(decorrelated.x, decorrelated.y),
              arith::multiply(decorrelated.x, decorrelated.y).value());

  // ...or induce positive correlation with a synchronizer.
  core::Synchronizer synchronizer;
  const StreamPair synced = core::apply(synchronizer, a, b);
  std::printf("after synchronizer: SCC(a', b') = %+.3f\n",
              scc(synced.x, synced.y));

  // --- 4. the paper's improved operators ------------------------------------
  std::printf("sync_max(a, b)          = %.3f (expect 0.750)\n",
              core::sync_max(a, b).value());
  std::printf("sync_min(a, b)          = %.3f (expect 0.500)\n",
              core::sync_min(a, b).value());
  std::printf("desync_saturating_add   = %.3f (expect 1.000 saturated)\n",
              core::desync_saturating_add(a, b).value());

  // --- 5. what does the hardware cost? --------------------------------------
  const hw::CostReport sync_cost = hw::evaluate(hw::sync_max_netlist(1));
  const hw::CostReport ca_cost = hw::evaluate(hw::ca_max_netlist());
  std::printf(
      "\nhardware: sync-max %.1f um2 / %.2f uW vs CA-max %.1f um2 / %.2f uW\n"
      "(the paper's point: accurate max at a fraction of the CA cost)\n",
      sync_cost.area_um2, sync_cost.power_uw, ca_cost.area_um2,
      ca_cost.power_uw);

  // --- 6. or let the planner insert the circuits for you -------------------
  // Build the computation as a registry program; the planner reads each
  // operator's correlation requirement from the registry and inserts the
  // right manipulating circuit; any backend executes the plan bit-true.
  graph::GraphBuilder builder;
  const graph::Value x = builder.input("x", 0.5, /*rng_group=*/0);
  const graph::Value y = builder.input("y", 0.75, 0);  // shared RNG!
  builder.output(builder.op("multiply", {x, y}), "product");
  const graph::Program program = builder.build();

  const graph::ProgramPlan plan =
      graph::plan_program(program, graph::Strategy::kManipulation);
  const graph::ExecutionResult run =
      graph::make_backend(graph::BackendKind::kEngine)->run(program, plan, {});
  std::printf(
      "\nplanner: inserted %zu %s -> product = %.3f (exact %.3f)\n"
      "(see examples/auto_insertion.cpp for the full program API)\n",
      plan.inserted_units,
      plan.inserted_units == 1 ? "decorrelator" : "fixes", run.values[0],
      run.exact[0]);

  // --- 7. observability (opt-in) -------------------------------------------
  // With SC_TRACE and/or SC_METRICS set, every run above was recorded into
  // the process-wide telemetry context: spans for the planner and backends,
  // counters for bits processed and RNG draws.  Without the env vars this
  // block (and all instrumentation) is inert.
  if (obs::Telemetry* telemetry = obs::Telemetry::from_env()) {
    telemetry->flush();
    std::printf("\ntelemetry: %zu metrics recorded",
                telemetry->snapshot().counters.size());
    if (!telemetry->config().trace_path.empty()) {
      std::printf("; trace at %s (open in https://ui.perfetto.dev)",
                  telemetry->config().trace_path.c_str());
    }
    std::printf("\n%s", telemetry->snapshot().to_table().c_str());
  }
  return 0;
}
