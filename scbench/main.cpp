/// \file main.cpp
/// scbench: the repository benchmark program.
///
///   scbench --workload NAME --seed N --seconds S --trace 0|1
///           [--tiny] [--corrupt-op I]
///
/// Untraced (--trace 0): sets the workload up several times (median =
/// setup_s), precomputes oracle results, then runs a closed loop of ops for
/// S seconds (at least 100 ops), checking every op's output against the
/// oracle, and prints the end-to-end metrics.  Traced (--trace 1): runs the
/// loop half untraced and half with an obs::Telemetry attached, then the
/// per-layer ladder, and prints the per-layer metrics.  The last stdout
/// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
/// Exit status: 0 when every op matched its oracle, 1 otherwise, 2 on bad
/// arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ladder.hpp"
#include "obs/telemetry.hpp"
#include "workloads.hpp"

namespace {

using namespace scbench;

constexpr std::size_t kMinOps = 100;  // p90 then has >= 10 samples beyond it

struct LoopResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;
};

/// Closed loop: op i+1 is issued only after op i returned and was checked.
/// Runs for `seconds` and at least `min_ops` ops.
LoopResult timed_loop(Workload& workload, double seconds, std::size_t min_ops,
                      long corrupt_op) {
  LoopResult r;
  const Clock::time_point start = Clock::now();
  for (std::size_t op = 0; op < min_ops || seconds_since(start) < seconds;
       ++op) {
    const Clock::time_point op_start = Clock::now();
    bool ok = false;
    try {
      workload.run_op(op);
      r.latency_ms.push_back(seconds_since(op_start) * 1e3);
      if (static_cast<long>(op) == corrupt_op) workload.corrupt_output();
      ok = workload.check_op(op);
      if (!ok) std::fprintf(stderr, "op %zu: output differs from oracle\n", op);
    } catch (const std::exception& e) {
      r.latency_ms.push_back(seconds_since(op_start) * 1e3);
      std::fprintf(stderr, "op %zu: threw: %s\n", op, e.what());
    }
    ++r.attempted;
    if (!ok) ++r.failed;
  }
  r.wall_s = seconds_since(start);
  return r;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--tiny] [--corrupt-op I]\n  workloads:",
               argv0);
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options->tiny = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      options->workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--corrupt-op") {
      options->corrupt_op = std::strtol(argv[++i], nullptr, 10);
    } else {
      return false;
    }
  }
  return have_workload && options->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, &options)) {
    usage(argv[0]);
    return 2;
  }
  // Traced runs only (its trace ring is megabytes).  Declared before the
  // workload so it outlives the traced session that points to it.
  std::unique_ptr<sc::obs::Telemetry> telemetry;
  std::unique_ptr<Workload> workload = make_workload(options);
  if (workload == nullptr) {
    usage(argv[0]);
    return 2;
  }
  std::printf("# scbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " tiny" : "");
  std::printf("# host: %s\n", host_stamp(workload->threads()).c_str());
  std::fflush(stdout);

  Report report;
  LoopResult checked;  // every loop's ops count toward attempted / failed
  try {
    std::vector<double> setup_s;
    for (int r = 0; r < (options.tiny ? 2 : 9); ++r) {
      const Clock::time_point start = Clock::now();
      workload->setup(nullptr);
      setup_s.push_back(seconds_since(start));
    }
    workload->prepare_oracle();
    const std::size_t min_ops = options.tiny ? 2 : kMinOps;

    if (!options.trace) {
      const LoopResult loop = timed_loop(*workload, options.seconds, min_ops,
                                         options.corrupt_op);
      checked = loop;
      const double ops = static_cast<double>(loop.attempted);
      report.add("ops_per_s", ops / loop.wall_s, "1/s");
      report.add("sim_mbit_per_s",
                 ops * workload->sim_bits_per_op() / loop.wall_s / 1e6,
                 "Mbit/s");
      report.add("op_ms_p50", quantile(loop.latency_ms, 0.5), "ms");
      report.add("op_ms_p90", quantile(loop.latency_ms, 0.9), "ms");
      report.add("setup_s", median(setup_s), "s");
      report.add("peak_rss_mb", peak_rss_mb(), "MiB");
      report.add("mean_abs_error", workload->mean_abs_error(), "abs");
      std::printf("# latency samples=%zu  failed_ops_ratio=%.6f (%zu/%zu)\n",
                  loop.latency_ms.size(),
                  static_cast<double>(loop.failed) / ops, loop.failed,
                  loop.attempted);
    } else {
      const double half = options.seconds / 2.0;
      const LoopResult plain =
          timed_loop(*workload, half, min_ops / 10, options.corrupt_op);
      telemetry = std::make_unique<sc::obs::Telemetry>();
      workload->setup(telemetry.get());
      const sc::obs::MetricsSnapshot before = telemetry->snapshot();
      const LoopResult traced = timed_loop(*workload, half, min_ops / 10, -1);
      loop_layer_metrics(before, telemetry->snapshot(), traced.attempted,
                         report);
      run_ladder(*workload, options, report);
      const double plain_rate =
          static_cast<double>(plain.attempted) / plain.wall_s;
      const double traced_rate =
          static_cast<double>(traced.attempted) / traced.wall_s;
      report.add("obs.trace_overhead_pct",
                 (1.0 - traced_rate / plain_rate) * 100.0, "%");
      checked.attempted = plain.attempted + traced.attempted;
      checked.failed = plain.failed + traced.failed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scbench: %s\n", e.what());
    return 1;
  }

  report.print_table();
  const bool correct = checked.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", checked.attempted, checked.failed,
      report.metrics_json().c_str());
  return correct ? 0 : 1;
}
