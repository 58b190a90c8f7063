/// Seed-stability regression corpus: thirteen representative registry
/// programs — every fix kind, a regeneration plan, a fault campaign, an
/// optimizer chain rewrite, and one program per accuracy-analysis
/// diagnostic id — executed on all three backend
/// configurations and checksummed bit-for-bit against tests/golden/
/// corpus.hpp.  A mismatch here with the differential suites green means
/// every backend shifted *together*: exactly the failure mode of the PR 3
/// seed-derivation migration, which silently moved all results at once.
/// The §IV image pipeline's output pixels are pinned the same way.
/// See tests/golden/README.md for the (intentional-change-only)
/// regeneration workflow.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "engine/session.hpp"
#include "fault/fault.hpp"
#include "fault_fixtures.hpp"
#include "golden/corpus.hpp"
#include "graph/backend.hpp"
#include "graph/planner.hpp"
#include "graph/program.hpp"
#include "graph_fixtures.hpp"
#include "img/image.hpp"
#include "img/sc_pipeline.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "opt/optimize.hpp"

namespace sc::golden {
namespace {

using graph::BackendKind;
using graph::ExecConfig;
using graph::ExecutionResult;
using graph::GraphBuilder;
using graph::Program;
using graph::ProgramPlan;
using graph::Strategy;
using graph::Value;

/// FNV-1a over every node stream (length + packed words) and the output
/// node list.  Word padding past size() is zeroed by Bitstream's
/// invariant, and the packed words are platform-independent functions of
/// the bit sequence, so the checksum is stable anywhere the bits are.
std::uint64_t checksum(const ExecutionResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ULL;
    }
  };
  mix(result.streams.size());
  for (const Bitstream& stream : result.streams) {
    mix(stream.size());
    for (const Bitstream::Word word : stream.words()) mix(word);
  }
  mix(result.output_nodes.size());
  for (const graph::NodeId node : result.output_nodes) mix(node);
  return hash;
}

struct Case {
  std::string name;
  Program program;
  ProgramPlan plan;
  ExecConfig config;
  // Owned here so config.fault_plan stays valid for the run.
  std::shared_ptr<fault::FaultPlan> faults;
};

using fault::fixtures::two_input;

std::vector<Case> corpus_cases() {
  // Fixed, hand-written values only — no std::uniform_real_distribution,
  // whose output is implementation-defined and would break the corpus
  // across standard libraries.
  ExecConfig base;
  base.stream_length = 333;  // odd: exercises tails everywhere
  base.width = 8;
  base.seed = 3;

  std::vector<Case> cases;
  const auto add = [&](std::string name, Program program, Strategy strategy) {
    Case c;
    c.name = std::move(name);
    c.plan = plan_program(program, strategy);
    c.program = std::move(program);
    c.config = base;
    cases.push_back(std::move(c));
  };

  add("multiply-decor", two_input("multiply", true), Strategy::kManipulation);
  add("max-resync", two_input("max", false), Strategy::kManipulation);
  add("satadd-desync", two_input("saturating-add", false),
      Strategy::kManipulation);
  {
    GraphBuilder b;
    const Value x = b.input("x", 0.5, 0);
    b.output(b.op("bernstein-x2-3", {x, x, x}), "fx");
    add("bernstein-fan", b.build(), Strategy::kManipulation);
  }
  add("divide-sync", two_input("divide", false), Strategy::kManipulation);
  add("regen-shared", two_input("multiply", true), Strategy::kRegeneration);
  {
    // Every edge-error kind plus an FSM wipe at once: pins the fault hash
    // scheme (fault_key / hash_at) and the injection order.
    Case c;
    c.name = "faulted-mixed";
    c.program = two_input("max", false);
    c.plan = plan_program(c.program, Strategy::kManipulation);
    c.config = base;
    c.faults = std::make_shared<fault::FaultPlan>();
    c.faults->seed = 0xFA170;
    c.faults->edges.push_back({"x", fault::ErrorKind::kBitFlip, 0.05, 16, 0});
    c.faults->edges.push_back({"y", fault::ErrorKind::kBurst, 0.1, 24, 1});
    fault::EdgeFault stuck;
    stuck.edge = "x";
    stuck.kind = fault::ErrorKind::kStuckAt1;
    stuck.begin = 300;
    stuck.end = 320;
    c.faults->edges.push_back(stuck);
    fault::EdgeFault dead;
    dead.edge = "out";
    dead.kind = fault::ErrorKind::kStuckAt0;
    dead.begin = 50;
    dead.end = 60;
    c.faults->edges.push_back(dead);
    c.faults->fsms.push_back({"out", 150, 0, -1});
    c.config.fault_plan = c.faults.get();
    cases.push_back(std::move(c));
  }
  {
    // The optimizer's chain rewrite on the 16-way fan-out: pins the
    // chain pass, seed_tag preservation, and the rebuild paths.
    Case c;
    c.name = "optimized-chain";
    c.program = graph::fixtures::fanout16_program();
    c.plan = plan_program(c.program, Strategy::kManipulation);
    c.config = base;
    c.config.optimize = true;
    cases.push_back(std::move(c));
  }
  // One program per accuracy-analysis diagnostic id (mirrors the
  // examples/programs/ lint corpus): their bit-level streams are pinned
  // here, their diagnostic JSON by AccuracyDiagnosticJsonIsByteStable.
  {
    GraphBuilder b;
    b.output(b.op("stanh-8", {b.input("x", 0.3, 0)}), "t");
    add("precision-stanh", b.build(), Strategy::kManipulation);
  }
  {
    GraphBuilder b;
    const Value a = b.input("a", 0.95, 0);
    const Value y = b.input("b", 0.9, 1);
    b.output(b.op("saturating-add", {a, y}), "s");
    add("saturation-or", b.build(), Strategy::kManipulation);
  }
  {
    GraphBuilder b;
    const Value a = b.input("a", 0.5, 0);
    const Value y = b.input("b", 0.5, 0);
    b.output(b.op("subtract", {a, y}), "d");
    add("corrbias-xor", b.build(), Strategy::kManipulation);
  }
  {
    GraphBuilder b;
    const Value x = b.input("x", 0.8, 0);
    const Value y = b.input("y", 0.6, 0);
    b.output(b.op("multiply", {x, y}), "p");
    add("shortstream-mul", b.build(), Strategy::kManipulation);
  }
  {
    Case c;
    c.name = "chain-unrec";
    GraphBuilder b;
    const Value x = b.input("x", 0.7, 0);
    b.output(b.op("bernstein-x2-3", {x, x, x}), "poly");
    c.program = b.build();
    c.plan = plan_program(c.program, Strategy::kManipulation);
    c.config = base;
    c.config.optimize = true;
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(GoldenCorpus, BitLevelResultsMatchTheCommittedChecksums) {
  const bool print = std::getenv("SC_GOLDEN_PRINT") != nullptr;
  if (print) std::printf("inline constexpr GoldenEntry kGoldenCorpus[] = {\n");

  for (const Case& c : corpus_cases()) {
    engine::Session session({1, /*chunk_bits=*/128, 0x5eed});
    const struct {
      const char* label;
      std::unique_ptr<graph::ExecutorBackend> backend;
    } backends[] = {
        {"reference", graph::make_backend(BackendKind::kReference)},
        {"engine", graph::make_backend(BackendKind::kEngine)},
        {"engine-chunked", graph::make_engine_backend(session)},
    };
    for (const auto& entry : backends) {
      const std::uint64_t got =
          checksum(entry.backend->run(c.program, c.plan, c.config));
      if (print) {
        std::printf("    {\"%s\", \"%s\", 0x%016llXULL},\n", c.name.c_str(),
                    entry.label, static_cast<unsigned long long>(got));
        continue;
      }
      bool found = false;
      for (const GoldenEntry& golden : kGoldenCorpus) {
        if (c.name != golden.program ||
            std::string(entry.label) != golden.backend) {
          continue;
        }
        found = true;
        EXPECT_EQ(got, golden.checksum)
            << c.name << " on " << entry.label
            << ": bit-level results changed.  If every row moved together "
               "this is a seeding/derivation migration; see "
               "tests/golden/README.md before regenerating.";
      }
      EXPECT_TRUE(found) << "no golden entry for " << c.name << " on "
                         << entry.label;
    }
  }
  if (print) {
    std::printf("};\n");
    GTEST_SKIP() << "SC_GOLDEN_PRINT set: printed the corpus instead of "
                    "checking it";
  }
}

/// FNV-1a over the image size and every pixel's IEEE-754 bit pattern: an
/// output pixel is a popcount over N, so any moved stream bit moves it.
std::uint64_t checksum(const img::Image& image) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (unsigned byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ULL;
    }
  };
  mix(image.width());
  mix(image.height());
  for (const double pixel : image.pixels()) {
    mix(std::bit_cast<std::uint64_t>(pixel));
  }
  return hash;
}

// The §IV image pipeline's output bits: both entry points x all three
// variants on one odd-size scene (partial tiles on both axes), at the
// paper's operating point and at a length that leaves a partial last word
// with a narrower RNG, a 3-bank input LFSR array and depth-1
// synchronizers.  Regenerate with SC_GOLDEN_PRINT=1 like the graph corpus.
TEST(GoldenCorpus, PipelineOutputsMatchTheCommittedChecksums) {
  const bool print = std::getenv("SC_GOLDEN_PRINT") != nullptr;
  if (print) {
    std::printf("inline constexpr GoldenEntry kPipelineGolden[] = {\n");
  }
  const img::Image scene = img::Image::synthetic_scene(23, 17, 5);
  img::PipelineConfig paper;  // N = 256, w = 8, 8 banks, depth 2
  paper.tile = 10;
  img::PipelineConfig partial = paper;
  partial.stream_length = 100;
  partial.sng_width = 7;
  partial.input_banks = 3;
  partial.sync_depth = 1;
  partial.seed = 19;
  const struct {
    const char* name;
    img::PipelineConfig config;
  } points[] = {{"n256-w8", paper}, {"n100-w7", partial}};
  const img::Variant variants[] = {img::Variant::kNoManipulation,
                                   img::Variant::kRegeneration,
                                   img::Variant::kSynchronizer};

  engine::Session session({2, /*chunk_bits=*/128, 0x5eed});
  for (const auto& point : points) {
    for (const img::Variant variant : variants) {
      const std::string name =
          std::string(point.name) + " " + img::to_string(variant);
      const struct {
        const char* label;
        std::uint64_t got;
      } runs[] = {
          {"serial",
           checksum(img::run_pipeline(scene, variant, point.config).output)},
          {"tiled", checksum(img::run_pipeline_tiled(scene, variant,
                                                     point.config, session)
                                 .output)},
      };
      for (const auto& run : runs) {
        if (print) {
          std::printf("    {\"%s\", \"%s\", 0x%016llXULL},\n", name.c_str(),
                      run.label, static_cast<unsigned long long>(run.got));
          continue;
        }
        bool found = false;
        for (const GoldenEntry& golden : kPipelineGolden) {
          if (name != golden.program || std::string(run.label) != golden.backend) {
            continue;
          }
          found = true;
          EXPECT_EQ(run.got, golden.checksum)
              << name << " (" << run.label
              << "): pipeline output bits changed";
        }
        EXPECT_TRUE(found) << "no golden entry for " << name << " ("
                           << run.label << ")";
      }
    }
  }
  if (print) {
    std::printf("};\n");
    GTEST_SKIP() << "SC_GOLDEN_PRINT set: printed the corpus instead of "
                    "checking it";
  }
}

// Telemetry neutrality at golden granularity: the full corpus — faults,
// regeneration, the optimizer rewrite — re-run with tracing, metrics, and
// a stream-health probe attached must reproduce the exact checksums of
// the bare runs on every backend.  Observation may never move a bit.
TEST(GoldenCorpus, TelemetryEnabledRunsKeepIdenticalChecksums) {
  for (const Case& c : corpus_cases()) {
    obs::Telemetry telemetry;  // tracing on, in-memory
    telemetry.add_probe({"x", "out", 128});

    engine::Session bare_session({1, /*chunk_bits=*/128, 0x5eed});
    engine::Session traced_session(
        {1, /*chunk_bits=*/128, 0x5eed, &telemetry});
    const struct {
      const char* label;
      std::unique_ptr<graph::ExecutorBackend> bare;
      std::unique_ptr<graph::ExecutorBackend> traced;
    } backends[] = {
        {"reference", graph::make_backend(BackendKind::kReference),
         graph::make_backend(BackendKind::kReference)},
        {"engine", graph::make_backend(BackendKind::kEngine),
         graph::make_backend(BackendKind::kEngine)},
        {"engine-chunked", graph::make_engine_backend(bare_session),
         graph::make_engine_backend(traced_session)},
    };
    for (const auto& entry : backends) {
      ExecConfig with = c.config;
      with.telemetry = &telemetry;
      const std::uint64_t bare =
          checksum(entry.bare->run(c.program, c.plan, c.config));
      const std::uint64_t traced =
          checksum(entry.traced->run(c.program, c.plan, with));
      EXPECT_EQ(bare, traced)
          << c.name << " on " << entry.label
          << ": attaching telemetry changed bit-level results";
    }
    // The observed runs actually observed something.
    EXPECT_NE(telemetry.snapshot().counters.count("backend.runs"), 0u);
  }
}

// Always-on profiling at golden granularity: a deliberately tiny trace
// ring (64 events — the corpus overflows it, exercising overwrite-oldest
// on every run) with the call-tree profiler aggregating after each run
// must also reproduce the exact bare checksums.  Dropping trace events
// may never drop bits.
TEST(GoldenCorpus, ProfiledRunsWithTinyRingKeepIdenticalChecksums) {
  for (const Case& c : corpus_cases()) {
    obs::TelemetryConfig tconfig;
    tconfig.trace_capacity = 64;
    obs::Telemetry telemetry(tconfig);

    engine::Session bare_session({1, /*chunk_bits=*/128, 0x5eed});
    engine::Session profiled_session(
        {1, /*chunk_bits=*/128, 0x5eed, &telemetry});
    const struct {
      const char* label;
      std::unique_ptr<graph::ExecutorBackend> bare;
      std::unique_ptr<graph::ExecutorBackend> profiled;
    } backends[] = {
        {"reference", graph::make_backend(BackendKind::kReference),
         graph::make_backend(BackendKind::kReference)},
        {"engine", graph::make_backend(BackendKind::kEngine),
         graph::make_backend(BackendKind::kEngine)},
        {"engine-chunked", graph::make_engine_backend(bare_session),
         graph::make_engine_backend(profiled_session)},
    };
    for (const auto& entry : backends) {
      ExecConfig with = c.config;
      with.telemetry = &telemetry;
      const std::uint64_t bare =
          checksum(entry.bare->run(c.program, c.plan, c.config));
      const std::uint64_t profiled =
          checksum(entry.profiled->run(c.program, c.plan, with));
      EXPECT_EQ(bare, profiled)
          << c.name << " on " << entry.label
          << ": profiling with a saturated ring changed bit-level results";
      // Aggregate after every run, the way an always-on profiler would.
      const obs::Profile profile = obs::build_profile(*telemetry.tracer());
      EXPECT_LE(profile.span_count, 64u);
      EXPECT_FALSE(profile.to_collapsed().empty());
    }
  }
}

// Machine-output stability: sc_lint's --json is a CI contract
// (validate_lint.py --expect pins per-file diagnostic-id sets), so the
// JSON an analysis produces must be byte-identical across runs — no
// map-iteration, float-formatting, or diagnostic-ordering drift.  One
// program per accuracy diagnostic id, each analyzed twice from scratch
// exactly the way tools/sc_lint.cpp does.
TEST(GoldenCorpus, AccuracyDiagnosticJsonIsByteStable) {
  struct LintCase {
    const char* name;
    bool optimize;
    double target_rmse;
    const char* expect_id;
  };
  const LintCase lint_cases[] = {
      {"precision-stanh", false, 0.0, "precision-loss"},
      {"saturation-or", false, 0.0, "saturation-risk"},
      {"corrbias-xor", false, 0.0, "correlation-bias"},
      {"shortstream-mul", false, 0.05, "insufficient-stream-length"},
      {"chain-unrec", true, 0.0, "chain-unrecoverable"},
  };
  std::vector<Case> cases = corpus_cases();
  for (const LintCase& lc : lint_cases) {
    const auto it =
        std::find_if(cases.begin(), cases.end(),
                     [&](const Case& c) { return c.name == lc.name; });
    ASSERT_NE(it, cases.end()) << lc.name;
    analysis::AnalyzerConfig config;
    config.stream_length = 256;  // sc_lint's default operating point
    config.target_rmse = lc.target_rmse;
    const auto lint_json = [&]() {
      if (!lc.optimize) {
        return analysis::analyze(it->program, it->plan, config)
            .to_json(lc.name);
      }
      opt::OptConfig opt_config;
      opt_config.dead_fix_elimination = true;
      const opt::OptResult optimized =
          opt::optimize(it->program, it->plan, opt_config);
      return analysis::analyze(optimized.program, optimized.plan, config)
          .to_json(lc.name);
    };
    const std::string first = lint_json();
    const std::string second = lint_json();
    EXPECT_EQ(first, second)
        << lc.name << ": analysis JSON changed between two identical runs";
    EXPECT_NE(first.find(std::string("\"id\": \"") + lc.expect_id + "\""),
              std::string::npos)
        << lc.name << " must emit " << lc.expect_id << "; got:\n"
        << first;
  }
}

}  // namespace
}  // namespace sc::golden
