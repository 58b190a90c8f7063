/// \file bench_obs_overhead.cpp
/// Cost of the telemetry subsystem (src/obs/) on the graph executor.
///
/// The same 16-copy fan-out workload as bench_graph_executor runs on each
/// backend under four telemetry modes:
///
///   off      ExecConfig::telemetry = nullptr — the disabled path the rest
///            of the library pays by default (one pointer test per site),
///   metrics  a Telemetry with tracing disabled — atomic counter/gauge/
///            histogram updates only,
///   trace    tracing enabled — spans with clock reads into the bounded
///            trace ring, plus a stream-health probe pair,
///   profile  tracing enabled AND the call-tree profiler (profiler.hpp)
///            aggregating the ring inside the timed region — the cost of
///            always-on profiling, snapshot included.
///
/// Every enabled run's outputs are verified bit-identical to the disabled
/// run's on the same backend (telemetry neutrality), and the JSON records
/// per-mode throughput and overhead so the repo can gate "telemetry off
/// costs nothing" across PRs (BENCH_obs.json).
///
/// Harness bench (bench_harness.hpp) — overheads are computed from
/// median-of-reps times, and the reps are timed ROUND-ROBIN across the
/// four modes (off, metrics, trace, profile, off, ...) so clock-frequency
/// drift and allocator warmup hit every mode equally; that plus warmup is
/// what keeps the recorded overheads non-negative (the old
/// best-of-3-no-warmup loop recorded negative overheads whenever the
/// "off" rep landed on a cold cache).  Cases:
/// obs/<backend>/<mode> (throughput), obs/<backend>/<mode>/overhead_pct
/// (percent, hard-fail), obs/<backend>/<mode>/identical (exact).
///
/// Usage: bench_obs_overhead [--json PATH] [--reps N] [--warmup N]
///        [--quick] [--bits LOG2]
/// Note: --quick does NOT shrink --bits here — overhead percentages are
/// config-dependent and must stay comparable to the committed baseline.

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
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"

namespace {

/// Same shape as bench_graph_executor's workload: the §IV window program
/// fanned over 16 pixel copies plus the wider operator set.
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
  const Value y = b.input("y", 0.35, 4);
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
  const std::size_t stream_bits = std::size_t{1} << log2_bits;
  const double node_bits = static_cast<double>(stream_bits) *
                           static_cast<double>(program.node_count());
  const std::string case_config = "bits=" + std::to_string(log2_bits);

  sc::bench::Harness harness("obs_overhead", options);
  harness.set_meta("stream_bits", static_cast<std::uint64_t>(stream_bits));
  harness.set_meta("node_count",
                   static_cast<std::uint64_t>(program.node_count()));

  std::printf(
      "telemetry overhead bench: %zu nodes, 2^%u bits, median of %u reps\n\n",
      program.node_count(), log2_bits, harness.options().reps);

  sc::engine::Session session({0});
  std::vector<std::unique_ptr<ExecutorBackend>> backends;
  backends.push_back(make_backend(BackendKind::kReference));
  backends.push_back(make_engine_backend(session));

  const std::array<const char*, 4> modes = {"off", "metrics", "trace",
                                            "profile"};
  bool all_identical = true;

  // Steady-state warmup: one untimed run per backend before any timing
  // ramps the CPU governor and pages the code in.  Without it, the very
  // first timed case ("off" — the denominator of every overhead on that
  // backend) absorbs the cold start and the overheads go negative.
  {
    ExecConfig warm;
    warm.stream_length = stream_bits;
    warm.width = 16;
    for (const auto& backend : backends) {
      (void)backend->run(program, plan, warm);
    }
  }

  for (const auto& backend : backends) {
    // One context and config per mode, built up front: the reps are then
    // timed ROUND-ROBIN across the modes (off, metrics, trace, profile,
    // off, ...) so clock-frequency drift and allocator warmup hit every
    // mode equally — timing each mode's reps in a contiguous block biases
    // whichever mode ran first (historically "off", the denominator of
    // every overhead, which is how negative overheads get recorded).
    struct ModeRun {
      const char* mode;
      std::unique_ptr<sc::obs::Telemetry> telemetry;
      ExecConfig config;
      bool profiled = false;
      std::vector<double> rep_seconds;
      ExecutionResult last;
      std::size_t profile_spans = 0;
    };
    std::vector<ModeRun> runs;
    for (const char* mode : modes) {
      ModeRun run;
      run.mode = mode;
      // A fresh context per mode keeps instrument state from accumulating
      // across modes; probes exercise the live-tap path under "trace" and
      // "profile".
      if (std::strcmp(mode, "metrics") == 0) {
        sc::obs::TelemetryConfig tconfig;
        tconfig.tracing = false;
        run.telemetry = std::make_unique<sc::obs::Telemetry>(tconfig);
      } else if (std::strcmp(mode, "off") != 0) {
        run.telemetry = std::make_unique<sc::obs::Telemetry>();
        run.telemetry->add_probe({"out", "edge", 4096});
      }
      run.profiled = std::strcmp(mode, "profile") == 0;
      run.config.stream_length = stream_bits;
      run.config.width = 16;
      run.config.telemetry = run.telemetry.get();
      run.rep_seconds.reserve(harness.options().reps);
      runs.push_back(std::move(run));
    }

    const auto exec = [&](ModeRun& run) {
      run.last = backend->run(program, plan, run.config);
      if (run.profiled) {
        // The profiled mode pays for aggregation too: always-on profiling
        // means someone folds the ring into a call tree.
        const sc::obs::Profile profile =
            sc::obs::build_profile(*run.telemetry->tracer());
        run.profile_spans = profile.span_count;
      }
    };
    using Clock = std::chrono::steady_clock;
    for (unsigned w = 0; w < harness.options().warmup; ++w) {
      for (ModeRun& run : runs) exec(run);
    }
    for (unsigned r = 0; r < harness.options().reps; ++r) {
      for (ModeRun& run : runs) {
        const auto start = Clock::now();
        exec(run);
        run.rep_seconds.push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
      }
    }

    double off_median = 0.0;
    for (ModeRun& run : runs) {
      const std::string case_name =
          "obs/" + backend->name() + "/" + run.mode;
      const double median_s =
          harness.submit_case(case_name, "node_mbit_per_s", node_bits, 1e6,
                              std::move(run.rep_seconds), case_config);

      bool identical = true;
      if (off_median == 0.0) {
        off_median = median_s;
      } else {
        for (std::size_t s = 0; s < runs[0].last.streams.size(); ++s) {
          if (run.last.streams[s] != runs[0].last.streams[s]) {
            identical = false;
            all_identical = false;
            break;
          }
        }
      }
      harness.exact_case(case_name + "/identical", identical ? 1 : 0);

      double overhead_pct = 0.0;
      if (run.telemetry != nullptr && off_median > 0.0) {
        overhead_pct = (median_s - off_median) / off_median * 100.0;
        // Metrics/trace overheads are genuinely sub-1% — below this
        // host's rep-to-rep noise — so the raw difference of two medians
        // can come out slightly negative.  A deficit inside the combined
        // noise floor (3 scaled MADs of either case) is statistically
        // zero and recorded as such; a deficit BEYOND the floor would
        // mean telemetry reliably speeds up execution, which is a bug
        // worth seeing, so it is recorded as measured.
        const sc::bench::CaseResult* off_case =
            harness.find("obs/" + backend->name() + "/off");
        const sc::bench::CaseResult* mode_case = harness.find(case_name);
        const double floor_pct =
            3.0 * 1.4826 *
            (off_case->seconds.mad + mode_case->seconds.mad) / off_median *
            100.0;
        if (overhead_pct < 0.0 && -overhead_pct <= floor_pct) {
          overhead_pct = 0.0;
        }
        harness.percent_case(case_name + "/overhead_pct", overhead_pct,
                             /*higher_is_better=*/false, case_config);
      }
      std::printf("  %-10s %-8s %8.3f ms   %8.1f node-Mbit/s   "
                  "overhead %+6.2f%%   identical=%s%s\n",
                  backend->name().c_str(), run.mode, median_s * 1e3,
                  node_bits / median_s / 1e6, overhead_pct,
                  identical ? "yes" : "NO",
                  run.profiled ? (" (" + std::to_string(run.profile_spans) +
                                  " spans profiled)").c_str()
                               : "");
    }
    std::printf("\n");
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: telemetry changed execution results\n");
  }
  if (!harness.write_json()) return 1;
  return all_identical ? 0 : 1;
}
