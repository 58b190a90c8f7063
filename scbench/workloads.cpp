/// \file workloads.cpp

#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <thread>

#include "common.hpp"
#include "core/decorrelator.hpp"
#include "core/desynchronizer.hpp"
#include "core/synchronizer.hpp"
#include "core/tfm.hpp"
#include "engine/batch.hpp"
#include "engine/chunked_stream.hpp"
#include "engine/session.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "img/image.hpp"
#include "img/sc_pipeline.hpp"
#include "obs/telemetry.hpp"
#include "rng/lfsr.hpp"

namespace scbench {

namespace {

using sc::graph::ExecConfig;
using sc::graph::ExecutionResult;

// Sub-seed streams of --seed, one per kind of input.
enum Stream : std::uint64_t {
  kProgramValues = 1,
  kOpSeeds = 2,
  kLaneInputs = 3,
  kScene = 4,
};

std::uint64_t digest_of(const ExecutionResult& result) {
  Digest d;
  for (const sc::Bitstream& s : result.streams) d.add(s);
  for (const double v : result.values) d.add(v);
  return d.value();
}

void flip_one_bit(ExecutionResult& result) {
  result.streams.back().word_data()[0] ^= 1;
}

/// Programs + plans (one per op input) and a session, shared by the graph
/// workloads.
struct GraphState {
  std::vector<sc::graph::Program> programs;
  std::vector<sc::graph::ProgramPlan> plans;
  std::unique_ptr<sc::engine::Session> session;
  std::unique_ptr<sc::graph::ExecutorBackend> backend;  // uses *session

  /// Drops the backend before the session it is bound to.
  void release() {
    backend.reset();
    session.reset();
  }
};

GraphState build_graph_state(std::uint64_t seed, std::size_t inputs,
                             sc::obs::Telemetry* telemetry) {
  GraphState state;
  sc::graph::PlannerConfig planner;
  planner.telemetry = telemetry;
  for (std::size_t k = 0; k < inputs; ++k) {
    state.programs.push_back(
        mixed_program(derive(derive(seed, kProgramValues), k)));
    state.plans.push_back(sc::graph::plan_program(
        state.programs.back(), sc::graph::Strategy::kManipulation, planner));
  }
  sc::engine::SessionConfig config;
  config.threads = bench_threads();
  config.telemetry = telemetry;
  state.session = std::make_unique<sc::engine::Session>(config);
  return state;
}

// ------------------------------------------------------------ graph_natural

/// One op = one run of the mixed program on an engine backend bound to the
/// session, width 16, N = 2^16 (one LFSR period), fresh ExecConfig::seed.
class GraphNatural final : public Workload {
 public:
  explicit GraphNatural(const Options& options)
      : seed_(options.seed),
        width_(options.tiny ? 12 : 16),
        inputs_(options.tiny ? 2 : 16) {
    SeedStream s(derive(seed_, kOpSeeds));
    for (std::size_t k = 0; k < inputs_; ++k) op_seeds_.push_back(s.seed32());
  }

  void setup(sc::obs::Telemetry* telemetry) override {
    state_.release();
    telemetry_ = telemetry;
    state_ = build_graph_state(seed_, inputs_, telemetry);
    state_.backend = sc::graph::make_engine_backend(*state_.session);
    for (std::size_t i = 0; i < 2; ++i) run_op(i);
  }

  void prepare_oracle() override {
    const auto reference =
        sc::graph::make_backend(sc::graph::BackendKind::kReference);
    double error = 0.0;
    for (std::size_t k = 0; k < inputs_; ++k) {
      ExecConfig config = config_for(k);
      config.telemetry = nullptr;
      const ExecutionResult r =
          reference->run(state_.programs[k], state_.plans[k], config);
      oracle_.push_back(digest_of(r));
      error += r.mean_abs_error;
    }
    error_ = error / static_cast<double>(inputs_);
  }

  void run_op(std::size_t op) override {
    const std::size_t k = op % inputs_;
    last_ = state_.backend->run(state_.programs[k], state_.plans[k],
                                config_for(k));
  }
  bool check_op(std::size_t op) const override {
    return digest_of(last_) == oracle_[op % inputs_];
  }
  void corrupt_output() override { flip_one_bit(last_); }

  double sim_bits_per_op() const override {
    return static_cast<double>(bits()) *
           static_cast<double>(state_.programs.front().node_count());
  }
  double mean_abs_error() const override { return error_; }
  unsigned threads() const override { return bench_threads(); }
  OperatingPoint point() const override {
    return {width_, bits(), width_, bits(), bench_threads()};
  }

 private:
  std::size_t bits() const { return std::size_t{1} << width_; }
  ExecConfig config_for(std::size_t k) const {
    ExecConfig config;
    config.stream_length = bits();
    config.width = width_;
    config.seed = op_seeds_[k];
    config.telemetry = telemetry_;
    return config;
  }

  std::uint64_t seed_;
  unsigned width_;
  std::size_t inputs_;
  std::vector<std::uint32_t> op_seeds_;
  sc::obs::Telemetry* telemetry_ = nullptr;
  GraphState state_;
  std::vector<std::uint64_t> oracle_;
  double error_ = 0.0;
  ExecutionResult last_;
};

// -------------------------------------------------------------- graph_sweep

/// One op = a batch of 256 seeded runs of the mixed program at width 8,
/// N = 256, fanned out by Session::map; each job constructs and runs an
/// unthreaded engine backend.
class GraphSweep final : public Workload {
 public:
  explicit GraphSweep(const Options& options)
      : seed_(options.seed),
        jobs_(options.tiny ? 16 : 256),
        inputs_(options.tiny ? 2 : 4) {
    SeedStream s(derive(seed_, kOpSeeds));
    for (std::size_t k = 0; k < inputs_; ++k) batch_seeds_.push_back(s.next());
  }

  void setup(sc::obs::Telemetry* telemetry) override {
    state_.release();
    telemetry_ = telemetry;
    state_ = build_graph_state(seed_, inputs_, telemetry);
    for (std::size_t i = 0; i < 2; ++i) run_op(i);
  }

  void prepare_oracle() override {
    const auto reference =
        sc::graph::make_backend(sc::graph::BackendKind::kReference);
    double error = 0.0;
    for (std::size_t k = 0; k < inputs_; ++k) {
      std::vector<std::uint64_t> digests;
      for (std::size_t j = 0; j < jobs_; ++j) {
        ExecConfig config = config_for(k, j);
        config.telemetry = nullptr;
        const ExecutionResult r =
            reference->run(state_.programs[k], state_.plans[k], config);
        digests.push_back(digest_of(r));
        error += r.mean_abs_error;
      }
      oracle_.push_back(std::move(digests));
    }
    error_ = error / static_cast<double>(inputs_ * jobs_);
  }

  void run_op(std::size_t op) override {
    const std::size_t k = op % inputs_;
    last_ = state_.session->map<ExecutionResult>(
        jobs_, [this, k](std::size_t j) {
          const auto backend =
              sc::graph::make_backend(sc::graph::BackendKind::kEngine);
          return backend->run(state_.programs[k], state_.plans[k],
                              config_for(k, j));
        });
  }
  bool check_op(std::size_t op) const override {
    const std::vector<std::uint64_t>& expected = oracle_[op % inputs_];
    if (last_.size() != expected.size()) return false;
    for (std::size_t j = 0; j < last_.size(); ++j) {
      if (digest_of(last_[j]) != expected[j]) return false;
    }
    return true;
  }
  void corrupt_output() override { flip_one_bit(last_.front()); }

  double sim_bits_per_op() const override {
    return static_cast<double>(jobs_) * static_cast<double>(kBits) *
           static_cast<double>(state_.programs.front().node_count());
  }
  double mean_abs_error() const override { return error_; }
  unsigned threads() const override { return bench_threads(); }
  OperatingPoint point() const override {
    return {kWidth, kBits, kWidth, kBits, 0};
  }

 private:
  static constexpr unsigned kWidth = 8;
  static constexpr std::size_t kBits = 256;

  ExecConfig config_for(std::size_t k, std::size_t job) const {
    ExecConfig config;
    config.stream_length = kBits;
    config.width = kWidth;
    config.seed = sc::engine::strided_seed32(batch_seeds_[k], job);
    config.telemetry = telemetry_;
    return config;
  }

  std::uint64_t seed_;
  std::size_t jobs_;
  std::size_t inputs_;
  std::vector<std::uint64_t> batch_seeds_;
  sc::obs::Telemetry* telemetry_ = nullptr;
  GraphState state_;
  std::vector<std::vector<std::uint64_t>> oracle_;
  double error_ = 0.0;
  std::vector<ExecutionResult> last_;
};

// -------------------------------------------------------------- stream_long

/// One op = one engine::run_chunked_lanes call over four independent
/// 2^24-bit SNG pairs at width 16, one lane per circuit, each reduced by a
/// PairStatsSink.  No planner, no pool.
class StreamLong final : public Workload {
 public:
  explicit StreamLong(const Options& options)
      : lane_bits_(options.tiny ? std::size_t{1} << 16 : std::size_t{1} << 24),
        inputs_(options.tiny ? 1 : 2) {
    SeedStream s(derive(options.seed, kLaneInputs));
    const double full = static_cast<double>(1u << kWidth);
    for (std::size_t k = 0; k < inputs_; ++k) {
      std::array<LaneInput, kLanes> lanes{};
      for (LaneInput& lane : lanes) {
        // Levels jitter around 0.6 / 0.4 (as the operands of mixed_program
        // do), so the lanes' residual SCC error is comparable across seeds.
        lane.level_x = static_cast<std::uint64_t>(s.uniform(0.57, 0.63) * full);
        lane.level_y = static_cast<std::uint64_t>(s.uniform(0.37, 0.43) * full);
        lane.seed_x = s.seed32();
        lane.seed_y = s.seed32();
        lane.aux_x = s.seed32();
        lane.aux_y = s.seed32();
      }
      inputs_set_.push_back(lanes);
    }
  }

  void setup(sc::obs::Telemetry* telemetry) override {
    telemetry_ = telemetry;
    run_op(0);
  }

  void prepare_oracle() override {
    double error = 0.0;
    for (std::size_t k = 0; k < inputs_; ++k) {
      std::array<sc::OverlapCounts, kLanes> counts{};
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        counts[lane] = serial_lane(k, lane);
        error += std::fabs(sc::scc(counts[lane]) - kTargets[lane]);
      }
      oracle_.push_back(counts);
    }
    error_ = error / static_cast<double>(inputs_ * kLanes);
  }

  void run_op(std::size_t op) override {
    const std::size_t k = op % inputs_;
    std::vector<std::unique_ptr<sc::engine::SngChunkSource>> sources;
    std::vector<std::unique_ptr<sc::core::PairTransform>> transforms;
    std::array<sc::engine::PairStatsSink, kLanes> sinks;
    std::vector<sc::engine::PairLane> lanes;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const LaneInput& in = inputs_set_[k][lane];
      sources.push_back(std::make_unique<sc::engine::SngChunkSource>(
          source_x(in), in.level_x, lane_bits_));
      sources.push_back(std::make_unique<sc::engine::SngChunkSource>(
          source_y(lane, in), in.level_y, lane_bits_));
      transforms.push_back(make_transform(lane, in));
      lanes.push_back({sources[2 * lane].get(), sources[2 * lane + 1].get(),
                       transforms.back().get(), &sinks[lane]});
    }
    const std::vector<sc::engine::ChunkedRunStats> stats =
        sc::engine::run_chunked_lanes(lanes);
    std::size_t chunks = 0;
    std::size_t peak = 0;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      last_[lane] = sinks[lane].counts();
      chunks += stats[lane].chunks;
      peak = std::max(peak, stats[lane].peak_buffer_bits);
    }
    if (telemetry_ != nullptr) {
      // The same accounting Session::note_chunked records for bound runs;
      // this workload has no session.
      telemetry_->metrics().counter("engine.chunks").add(chunks);
      telemetry_->metrics()
          .gauge("engine.buffer.peak_bits")
          .set(static_cast<double>(peak));
    }
  }
  bool check_op(std::size_t op) const override {
    const std::array<sc::OverlapCounts, kLanes>& expected =
        oracle_[op % inputs_];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const sc::OverlapCounts& a = last_[lane];
      const sc::OverlapCounts& b = expected[lane];
      if (a.a != b.a || a.b != b.b || a.c != b.c || a.d != b.d) return false;
    }
    return true;
  }
  void corrupt_output() override { last_[0].a ^= 1; }

  double sim_bits_per_op() const override {
    return static_cast<double>(kLanes) * static_cast<double>(lane_bits_);
  }
  double mean_abs_error() const override { return error_; }
  unsigned threads() const override { return 1; }
  OperatingPoint point() const override {
    return {kWidth, lane_bits_, kWidth, std::size_t{1} << kWidth, 0};
  }

 private:
  static constexpr unsigned kWidth = 16;
  static constexpr std::size_t kLanes = 4;
  /// 8-bit TFM estimate (its aux LFSRs are 8 bits wide by the tfm.hpp
  /// contract), the precision the word-parallel TFM datapath serves.
  static constexpr unsigned kTfmPrecision = 8;
  enum Lane : std::size_t { kSync = 0, kDesync = 1, kDecorrelate = 2, kTfm = 3 };
  /// Target SCC of each lane's output pair.
  static constexpr std::array<double, kLanes> kTargets = {1.0, -1.0, 0.0, 0.0};

  struct LaneInput {
    std::uint64_t level_x;
    std::uint64_t level_y;
    std::uint32_t seed_x;
    std::uint32_t seed_y;
    std::uint32_t aux_x;
    std::uint32_t aux_y;
  };

  static sc::rng::RandomSourcePtr source_x(const LaneInput& in) {
    return std::make_unique<sc::rng::Lfsr>(kWidth, in.seed_x);
  }
  /// The synchronizer and desynchronizer lanes start from independent
  /// streams; the decorrelator and TFM lanes from maximally correlated
  /// ones (one shared LFSR sequence), so every lane has work to do.
  static sc::rng::RandomSourcePtr source_y(std::size_t lane,
                                           const LaneInput& in) {
    const bool shared = lane == kDecorrelate || lane == kTfm;
    return std::make_unique<sc::rng::Lfsr>(kWidth,
                                           shared ? in.seed_x : in.seed_y);
  }
  static std::unique_ptr<sc::core::PairTransform> make_transform(
      std::size_t lane, const LaneInput& in) {
    switch (lane) {
      case kSync:
        return std::make_unique<sc::core::Synchronizer>(
            sc::core::Synchronizer::Config{2});
      case kDesync:
        return std::make_unique<sc::core::Desynchronizer>(
            sc::core::Desynchronizer::Config{2});
      case kDecorrelate:
        return std::make_unique<sc::core::Decorrelator>(
            8, std::make_unique<sc::rng::Lfsr>(kWidth, in.aux_x),
            std::make_unique<sc::rng::Lfsr>(kWidth, in.aux_y, 5));
      default:
        return std::make_unique<sc::core::TfmPair>(
            sc::core::TrackingForecastMemory::Config{kTfmPrecision, 3, 0.5},
            std::make_unique<sc::rng::Lfsr>(kTfmPrecision, in.aux_x),
            std::make_unique<sc::rng::Lfsr>(kTfmPrecision, in.aux_y, 5));
    }
  }

  /// Oracle: core::apply's semantics streamed in O(1) memory — one
  /// begin_stream(total), then one bit-serial step() per cycle on
  /// comparator bits drawn with RandomSource::next(), counting the overlap
  /// of the output pair.
  sc::OverlapCounts serial_lane(std::size_t k, std::size_t lane) const {
    const LaneInput& in = inputs_set_[k][lane];
    const sc::rng::RandomSourcePtr sx = source_x(in);
    const sc::rng::RandomSourcePtr sy = source_y(lane, in);
    const std::unique_ptr<sc::core::PairTransform> t = make_transform(lane, in);
    std::array<std::uint64_t, 4> counts{};  // indexed by (x << 1) | y
    t->begin_stream(lane_bits_);
    for (std::size_t i = 0; i < lane_bits_; ++i) {
      const bool x = sx->next() < in.level_x;
      const bool y = sy->next() < in.level_y;
      const sc::core::BitPair out = t->step(x, y);
      ++counts[(out.x ? 2 : 0) | (out.y ? 1 : 0)];
    }
    sc::OverlapCounts total;
    total.a = counts[3];
    total.b = counts[2];
    total.c = counts[1];
    total.d = counts[0];
    return total;
  }

  std::size_t lane_bits_;
  std::size_t inputs_;
  std::vector<std::array<LaneInput, kLanes>> inputs_set_;
  sc::obs::Telemetry* telemetry_ = nullptr;
  std::vector<std::array<sc::OverlapCounts, kLanes>> oracle_;
  double error_ = 0.0;
  std::array<sc::OverlapCounts, kLanes> last_{};
};

// -------------------------------------------------------------- image_frame

std::uint64_t digest_of(const sc::img::Image& image) {
  Digest d;
  for (const double v : image.pixels()) d.add(v);
  return d.value();
}

/// One op = one img::run_pipeline_tiled frame: §IV synchronizer variant,
/// N = 256, width 8, over a seeded 160x160 synthetic scene (256 tiles of
/// 10x10).  Ops cycle through eight scenes, each with its own frame seed.
class ImageFrame final : public Workload {
 public:
  explicit ImageFrame(const Options& options) : inputs_(options.tiny ? 1 : 8) {
    const std::size_t side = options.tiny ? 40 : 160;
    SeedStream s(derive(options.seed, kOpSeeds));
    for (std::size_t k = 0; k < inputs_; ++k) {
      scenes_.push_back(sc::img::Image::synthetic_scene(
          side, side, derive(derive(options.seed, kScene), k)));
      frame_seeds_.push_back(s.seed32());
    }
  }

  void setup(sc::obs::Telemetry* telemetry) override {
    session_.reset();
    sc::engine::SessionConfig config;
    config.threads = bench_threads();
    config.telemetry = telemetry;
    session_ = std::make_unique<sc::engine::Session>(config);
    run_op(0);
  }

  void prepare_oracle() override {
    sc::engine::Session serial(sc::engine::SessionConfig{1});
    double error = 0.0;
    for (std::size_t k = 0; k < inputs_; ++k) {
      const sc::img::PipelineResult r = sc::img::run_pipeline_tiled(
          scenes_[k], sc::img::Variant::kSynchronizer, config_for(k), serial);
      oracle_.push_back(digest_of(r.output));
      error += r.error;
    }
    error_ = error / static_cast<double>(inputs_);
  }

  void run_op(std::size_t op) override {
    const std::size_t k = op % inputs_;
    last_ = sc::img::run_pipeline_tiled(
        scenes_[k], sc::img::Variant::kSynchronizer, config_for(k), *session_);
  }
  bool check_op(std::size_t op) const override {
    return digest_of(last_.output) == oracle_[op % inputs_];
  }
  void corrupt_output() override {
    double& pixel = last_.output.at(0, 0);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &pixel, sizeof bits);
    bits ^= 1;
    std::memcpy(&pixel, &bits, sizeof bits);
  }

  double sim_bits_per_op() const override {
    return static_cast<double>(scenes_.front().pixel_count()) *
           static_cast<double>(kBits);
  }
  double mean_abs_error() const override { return error_; }
  unsigned threads() const override { return bench_threads(); }
  OperatingPoint point() const override {
    return {kWidth, kBits, kWidth, kBits, 0};
  }

 private:
  static constexpr unsigned kWidth = 8;
  static constexpr std::size_t kBits = 256;

  sc::img::PipelineConfig config_for(std::size_t k) const {
    sc::img::PipelineConfig config;
    config.stream_length = kBits;
    config.sng_width = kWidth;
    config.tile = 10;
    config.seed = frame_seeds_[k];
    return config;
  }

  std::size_t inputs_;
  std::vector<sc::img::Image> scenes_;
  std::vector<std::uint32_t> frame_seeds_;
  std::unique_ptr<sc::engine::Session> session_;
  std::vector<std::uint64_t> oracle_;
  double error_ = 0.0;
  sc::img::PipelineResult last_;
};

}  // namespace

unsigned bench_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(2u, hw);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "graph_natural", "graph_sweep", "stream_long", "image_frame"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "graph_natural") {
    return std::make_unique<GraphNatural>(options);
  }
  if (options.workload == "graph_sweep") {
    return std::make_unique<GraphSweep>(options);
  }
  if (options.workload == "stream_long") {
    return std::make_unique<StreamLong>(options);
  }
  if (options.workload == "image_frame") {
    return std::make_unique<ImageFrame>(options);
  }
  return nullptr;
}

sc::graph::Program mixed_program(std::uint64_t seed) {
  using sc::graph::GraphBuilder;
  using sc::graph::Value;
  // Operands jitter by +-0.005 around fixed centres: the seed moves every value, but
  // not far enough to change the shape of the computation (which pixel
  // differences dominate the edge, which operators saturate), so the
  // accuracy figure stays comparable across seeds.
  SeedStream s(derive(seed, kProgramValues));
  const auto near = [&s](double centre) {
    return s.uniform(centre - 0.005, centre + 0.005);
  };
  std::array<double, 16> pixels{};
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = near(0.1 + 0.05 * static_cast<double>(i % 10));
  }
  const sc::graph::Program window = sc::img::window_program(pixels);

  GraphBuilder b;
  std::vector<Value> args;
  for (unsigned i = 0; i < 16; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    args.push_back(b.input(name, pixels[i], i % 4));
  }
  const Value edge = b.append(window, args)[0];
  const Value x = b.input("x", near(0.62), 4);
  const Value y = b.input("y", near(0.35), 4);  // same group as x
  const Value prod = b.op("multiply", {x, y});
  const Value quot = b.op("divide", {y, x});
  const Value bip = b.op("multiply-bipolar", {prod, b.constant(near(0.8))});
  const Value nl = b.op("stanh-8", {b.op("scaled-add", {quot, bip})});
  const Value poly = b.op("bernstein-x2-3", {nl, nl, nl});
  b.output(b.op("saturating-add", {poly, edge}), "out");
  b.output(edge, "edge");
  return b.build();
}

}  // namespace scbench
