/// \file ladder.cpp

#include "ladder.hpp"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "bitstream/synthesis.hpp"
#include "convert/sng.hpp"
#include "core/decorrelator.hpp"
#include "core/desynchronizer.hpp"
#include "core/synchronizer.hpp"
#include "core/tfm.hpp"
#include "engine/chunked_stream.hpp"
#include "engine/session.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "img/image.hpp"
#include "img/sc_pipeline.hpp"
#include "kernel/apply.hpp"
#include "obs/telemetry.hpp"
#include "rng/lfsr.hpp"

namespace scbench {

namespace {

using PairPtr = std::unique_ptr<sc::core::PairTransform>;

constexpr std::uint32_t kSeedX = 0xACE1;
constexpr std::uint32_t kSeedY = 0x1D2C;
constexpr std::uint32_t kAuxX = 0xBEEF;
constexpr std::uint32_t kAuxY = 0xCAFE;
// Sub-seed streams of --seed for the graph ladder's runs and the image
// ladder's scene.
constexpr std::uint64_t kGraphRunStream = 0x9a;
constexpr std::uint64_t kSceneStream = 0x1a;

std::uint64_t level_of(unsigned width, double value) {
  return static_cast<std::uint64_t>(value * static_cast<double>(1u << width));
}

/// Runs `rep` (which returns the seconds of its own timed region) until
/// `budget` seconds are spent and at least three reps ran (one is enough
/// when a rep alone takes 3x the budget); median rate in Mbit/s.
template <typename Rep>
double rate_mbit(std::size_t bits, double budget, Rep rep) {
  std::vector<double> rates;
  double spent = 0.0;
  do {
    const double s = rep();
    spent += s;
    rates.push_back(static_cast<double>(bits) / s / 1e6);
  } while ((rates.size() < 3 && spent < 3.0 * budget) || spent < budget);
  return median(rates);
}

/// Comparator-SNG pair at (width, bits); `shared` draws both streams from
/// one LFSR sequence (SCC = +1), else from independent ones.
sc::StreamPair sng_pair(unsigned width, std::size_t bits, bool shared) {
  sc::convert::Sng sx(std::make_unique<sc::rng::Lfsr>(width, kSeedX));
  sc::convert::Sng sy(
      std::make_unique<sc::rng::Lfsr>(width, shared ? kSeedX : kSeedY));
  return {sx.generate(level_of(width, 0.6), bits),
          sy.generate(level_of(width, 0.4), bits)};
}

PairPtr make_sync() {
  return std::make_unique<sc::core::Synchronizer>(
      sc::core::Synchronizer::Config{2});
}
PairPtr make_desync() {
  return std::make_unique<sc::core::Desynchronizer>(
      sc::core::Desynchronizer::Config{2});
}
PairPtr make_decorrelator(unsigned width) {
  return std::make_unique<sc::core::Decorrelator>(
      8, std::make_unique<sc::rng::Lfsr>(width, kAuxX),
      std::make_unique<sc::rng::Lfsr>(width, kAuxY, 5));
}
/// 8-bit TFM estimate at every operating point, as in stream_long.
PairPtr make_tfm() {
  return std::make_unique<sc::core::TfmPair>(
      sc::core::TrackingForecastMemory::Config{8, 3, 0.5},
      std::make_unique<sc::rng::Lfsr>(8, kAuxX),
      std::make_unique<sc::rng::Lfsr>(8, kAuxY, 5));
}

/// kernel::apply (or, with `serial`, core::apply) on a freshly built
/// transform per rep.
template <typename Make>
double transform_rate(const sc::StreamPair& in, double budget, bool serial,
                      Make make) {
  return rate_mbit(in.x.size(), budget, [&] {
    const PairPtr t = make();
    const Clock::time_point start = Clock::now();
    if (serial) {
      sc::core::apply(*t, in.x, in.y);
    } else {
      sc::kernel::apply(*t, in.x, in.y);
    }
    return seconds_since(start);
  });
}

double decorrelator_rate(unsigned width, std::size_t bits, double budget) {
  const sc::StreamPair in = sng_pair(width, bits, true);
  return transform_rate(in, budget, false,
                        [width] { return make_decorrelator(width); });
}

void word_layers(const OperatingPoint& p, double budget, Report& report) {
  const unsigned w = p.width;
  const std::size_t n = p.bits;
  const std::uint64_t level = level_of(w, 0.6);
  std::vector<std::uint64_t> words((n + 63) / 64);
  report.add("rng.fill_compare.mbit_per_s", rate_mbit(n, budget, [&] {
               sc::rng::Lfsr lfsr(w, kSeedX);
               std::fill(words.begin(), words.end(), 0);
               const Clock::time_point start = Clock::now();
               lfsr.fill_compare(words.data(), n, level);
               return seconds_since(start);
             }),
             "Mbit/s");
  std::vector<std::uint8_t> indices(n);
  report.add("rng.fill_indices.mbit_per_s", rate_mbit(n, budget, [&] {
               sc::rng::Lfsr lfsr(w, kSeedX);
               const Clock::time_point start = Clock::now();
               lfsr.fill_indices(indices.data(), n, 8);
               return seconds_since(start);
             }),
             "Mbit/s");
  report.add("convert.sng.mbit_per_s", rate_mbit(n, budget, [&] {
               sc::convert::Sng sng(std::make_unique<sc::rng::Lfsr>(w, kSeedX));
               const Clock::time_point start = Clock::now();
               sng.generate(level, n);
               return seconds_since(start);
             }),
             "Mbit/s");
  report.add("engine.sng_chunk.mbit_per_s", rate_mbit(n, budget, [&] {
               sc::engine::SngChunkSource source(
                   std::make_unique<sc::rng::Lfsr>(w, kSeedX), level, n);
               sc::Bitstream chunk;
               const Clock::time_point start = Clock::now();
               while (source.next_chunk(chunk, sc::engine::kDefaultChunkBits) !=
                      0) {
               }
               return seconds_since(start);
             }),
             "Mbit/s");

  const sc::StreamPair independent = sng_pair(w, n, false);
  const sc::StreamPair correlated = sng_pair(w, n, true);
  report.add("kernel.synchronizer.mbit_per_s",
             transform_rate(independent, budget, false, make_sync), "Mbit/s");
  report.add("kernel.desynchronizer.mbit_per_s",
             transform_rate(independent, budget, false, make_desync),
             "Mbit/s");
  report.add("kernel.decorrelator.mbit_per_s",
             transform_rate(correlated, budget, false,
                            [w] { return make_decorrelator(w); }),
             "Mbit/s");
  report.add("kernel.tfm.mbit_per_s",
             transform_rate(correlated, budget, false, make_tfm),
             "Mbit/s");
  report.add("core.synchronizer.mbit_per_s",
             transform_rate(independent, budget, true, make_sync), "Mbit/s");
  report.add("core.decorrelator.mbit_per_s",
             transform_rate(correlated, budget, true,
                            [w] { return make_decorrelator(w); }),
             "Mbit/s");
}

/// The mixed program on an engine backend at the graph point, one fresh
/// telemetry context per run so spans and counters are per run.
void graph_layer(const OperatingPoint& p, std::uint64_t seed, bool tiny,
                 double budget, Report& report) {
  const sc::graph::Program program = mixed_program(seed);
  std::vector<double> plan_ms;
  sc::graph::ProgramPlan plan;
  for (int r = 0; r < (tiny ? 2 : 9); ++r) {
    const Clock::time_point start = Clock::now();
    plan = sc::graph::plan_program(program, sc::graph::Strategy::kManipulation);
    plan_ms.push_back(seconds_since(start) * 1e3);
  }

  std::unique_ptr<sc::engine::Session> session;
  std::unique_ptr<sc::graph::ExecutorBackend> backend;
  if (p.graph_threads != 0) {
    session = std::make_unique<sc::engine::Session>(
        sc::engine::SessionConfig{p.graph_threads});
    backend = sc::graph::make_engine_backend(*session);
  } else {
    backend = sc::graph::make_backend(sc::graph::BackendKind::kEngine);
  }
  sc::graph::ExecConfig config;
  config.stream_length = p.graph_bits;
  config.width = p.graph_width;
  config.seed = static_cast<std::uint32_t>(derive(seed, kGraphRunStream) | 1);
  backend->run(program, plan, config);  // warm-up

  std::vector<double> run_ms;
  std::vector<double> fix_ms;
  std::vector<double> shares;
  double rng_draws = 0.0;
  double bits_processed = 0.0;
  for (int r = 0; r < (tiny ? 2 : 7); ++r) {
    sc::obs::Telemetry telemetry;
    config.telemetry = &telemetry;
    const Clock::time_point start = Clock::now();
    backend->run(program, plan, config);
    const double ms = seconds_since(start) * 1e3;
    double fix_us = 0.0;
    for (const sc::obs::TraceEvent& e : telemetry.tracer()->events()) {
      // By name, not by span tree: fix spans on pool threads are not
      // parented under the run span.
      if (e.phase == 'X' && e.name.rfind("fix.", 0) == 0) fix_us += e.dur_us;
    }
    run_ms.push_back(ms);
    fix_ms.push_back(fix_us / 1e3);
    shares.push_back(fix_us / 1e3 / ms);
    const sc::obs::MetricsSnapshot snap = telemetry.snapshot();
    rng_draws = static_cast<double>(snap.counters.at("backend.rng_draws"));
    bits_processed =
        static_cast<double>(snap.counters.at("backend.bits_processed"));
  }
  const double run = median(run_ms);
  const double graph_mbit = static_cast<double>(p.graph_bits) *
                            static_cast<double>(program.node_count()) /
                            (run / 1e3) / 1e6;
  report.add("graph.plan_ms", median(plan_ms), "ms");
  report.add("graph.run_ms", run, "ms");
  report.add("graph.fix_ms", median(fix_ms), "ms");
  report.add("graph.fix_share", median(shares), "share");
  report.add("graph.ladder_ratio",
             graph_mbit / decorrelator_rate(p.graph_width, p.graph_bits, budget),
             "ratio");
  report.add("graph.inserted_units", static_cast<double>(plan.inserted_units),
             "count");
  report.add("graph.rng_draws", rng_draws, "count");
  report.add("graph.bits_processed", bits_processed, "count");
}

/// Session::map of the graph_sweep op shape (width 8, N = 256, one
/// unthreaded engine backend per job), timing the batch and each job body.
void engine_layer(std::uint64_t seed, bool tiny, Report& report) {
  const sc::graph::Program program = mixed_program(seed);
  const sc::graph::ProgramPlan plan =
      sc::graph::plan_program(program, sc::graph::Strategy::kManipulation);
  sc::engine::Session session(sc::engine::SessionConfig{bench_threads()});
  const std::size_t jobs = tiny ? 16 : 256;
  std::vector<double> batch_ms;
  std::vector<double> job_ms;
  std::vector<double> busy;
  for (int b = 0; b < (tiny ? 2 : 6); ++b) {
    std::atomic<std::uint64_t> job_ns{0};
    const Clock::time_point start = Clock::now();
    session.map<double>(jobs, [&](std::size_t j) {
      const Clock::time_point job_start = Clock::now();
      sc::graph::ExecConfig config;
      config.stream_length = 256;
      config.width = 8;
      config.seed = sc::engine::strided_seed32(seed, j);
      const double err =
          sc::graph::make_backend(sc::graph::BackendKind::kEngine)
              ->run(program, plan, config)
              .mean_abs_error;
      job_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               job_start)
              .count());
      return err;
    });
    const double batch_s = seconds_since(start);
    if (b == 0) continue;  // warm-up batch
    const double jobs_s = static_cast<double>(job_ns.load()) / 1e9;
    batch_ms.push_back(batch_s * 1e3);
    job_ms.push_back(jobs_s * 1e3 / static_cast<double>(jobs));
    busy.push_back(jobs_s / (batch_s * session.threads()));
  }
  report.add("engine.batch_ms", median(batch_ms), "ms");
  report.add("engine.job_ms", median(job_ms), "ms");
  report.add("engine.pool_busy_share", median(busy), "share");
}

/// One §IV frame for the simulated cost numbers (exact, scene-independent).
void image_layer(std::uint64_t seed, bool tiny, Report& report) {
  const std::size_t side = tiny ? 40 : 160;
  const sc::img::Image scene =
      sc::img::Image::synthetic_scene(side, side, derive(seed, kSceneStream));
  sc::engine::Session session(sc::engine::SessionConfig{bench_threads()});
  const sc::img::PipelineResult r = sc::img::run_pipeline_tiled(
      scene, sc::img::Variant::kSynchronizer, sc::img::PipelineConfig{},
      session);
  report.add("img.tiles", static_cast<double>(r.cost.tiles), "count");
  report.add("hw.energy_nj_per_frame", r.cost.energy_nj_frame, "nJ");
}

}  // namespace

void run_ladder(const Workload& workload, const Options& options,
                Report& report) {
  const double budget = options.tiny ? 0.002 : 0.1;
  const OperatingPoint p = workload.point();
  word_layers(p, budget, report);
  const std::size_t ratio_bits =
      options.tiny ? std::size_t{1} << 12 : std::size_t{1} << 16;
  report.add("kernel.decorrelator.w16_over_w8",
             decorrelator_rate(16, ratio_bits, budget) /
                 decorrelator_rate(8, ratio_bits, budget),
             "ratio");
  graph_layer(p, options.seed, options.tiny, budget, report);
  engine_layer(options.seed, options.tiny, report);
  image_layer(options.seed, options.tiny, report);
}

void loop_layer_metrics(const sc::obs::MetricsSnapshot& before,
                        const sc::obs::MetricsSnapshot& snap, std::size_t ops,
                        Report& report) {
  const auto wait = snap.histograms.find("engine.pool.task_wait_us");
  const auto depth = snap.gauges.find("engine.pool.queue_depth");
  const auto chunks = snap.counters.find("engine.chunks");
  const auto chunks_before = before.counters.find("engine.chunks");
  const auto peak = snap.gauges.find("engine.buffer.peak_bits");
  report.add("engine.pool.task_wait_ms_p50",
             wait == snap.histograms.end() ? 0.0
                                           : wait->second.quantile(0.5) / 1e3,
             "ms");
  report.add("engine.pool.queue_depth_max",
             depth == snap.gauges.end() ? 0.0 : depth->second.second, "count");
  double chunk_count = 0.0;
  if (chunks != snap.counters.end()) {
    chunk_count = static_cast<double>(chunks->second);
    if (chunks_before != before.counters.end()) {
      chunk_count -= static_cast<double>(chunks_before->second);
    }
  }
  report.add("engine.chunks",
             ops == 0 ? 0.0 : chunk_count / static_cast<double>(ops), "count");
  report.add("engine.buffer.peak_bits",
             peak == snap.gauges.end() ? 0.0 : peak->second.second, "bits");
}

}  // namespace scbench
