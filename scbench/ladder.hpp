/// \file ladder.hpp
/// The traced run's per-layer ladder: the benchmark times its own calls
/// into each layer's public functions at the workload's operating point and
/// reads the counters and spans the library already emits through
/// obs::Telemetry.

#pragma once

#include "common.hpp"
#include "workloads.hpp"

#include "obs/metrics.hpp"

namespace scbench {

/// Appends the ladder metrics (rng, convert, kernel, core, graph, engine
/// batch, img, hw) measured at `workload`'s operating point.
void run_ladder(const Workload& workload, const Options& options,
                Report& report);

/// Appends the metrics read from the telemetry of the workload's own traced
/// loop of `ops` ops, given snapshots taken before and after it: pool wait
/// and queue depth, chunks per op, peak chunk buffer.
void loop_layer_metrics(const sc::obs::MetricsSnapshot& before,
                        const sc::obs::MetricsSnapshot& after, std::size_t ops,
                        Report& report);

}  // namespace scbench
