/// Reproduces paper Table IV: the Gaussian-blur -> Roberts-cross SC image
/// accelerator in its three correlation-management configurations, plus
/// the floating-point reference.  Reports area, energy per frame, and mean
/// absolute image error for each design on a synthetic benchmark scene
/// (the paper's claims are relative to the float pipeline on the same
/// image, so scene content only needs realistic structure).  Exits 1 when
/// a Table IV ordering breaks: no-manipulation error above both manipulated
/// variants, synchronizer energy per frame below regeneration's.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "img/image.hpp"
#include "img/kernels.hpp"
#include "img/sc_pipeline.hpp"

using namespace sc;
using namespace sc::img;
using bench::cell;

namespace {

// Image dumps are qualitative aids; a failed write should warn, not abort.
void save_or_warn(const sc::img::Image& image, const std::string& path) {
  if (!image.save_pgm(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t side =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 40;

  const Image scene = Image::synthetic_scene(side, side, 11);
  PipelineConfig config;  // N = 256, 10x10 tiles, D = 2 synchronizers

  std::printf(
      "=== Table IV: GB + ED image pipeline (input %zux%zu, N = %zu, "
      "%zux%zu tiles) ===\n\n",
      side, side, config.stream_length, config.tile, config.tile);

  const PipelineResult none =
      run_pipeline(scene, Variant::kNoManipulation, config);
  const PipelineResult regen =
      run_pipeline(scene, Variant::kRegeneration, config);
  const PipelineResult sync =
      run_pipeline(scene, Variant::kSynchronizer, config);

  bench::Table table({"Design", "Area um2", "Energy nJ/frame", "Abs error",
                      "paper area/energy/err"},
                     {20, 10, 15, 10, 22});
  table.print_header();
  table.print_row({"Floating point", "-", "-", cell(0.0), "- / - / 0"});
  table.print_row({to_string(none.variant).c_str(),
                   cell(none.cost.report.area_um2, 0),
                   cell(none.cost.energy_nj_frame, 1), cell(none.error),
                   "24313 / 1383 / 0.076"});
  table.print_row({to_string(regen.variant).c_str(),
                   cell(regen.cost.report.area_um2, 0),
                   cell(regen.cost.energy_nj_frame, 1), cell(regen.error),
                   "34802 / 1971 / 0.019"});
  table.print_row({to_string(sync.variant).c_str(),
                   cell(sync.cost.report.area_um2, 0),
                   cell(sync.cost.energy_nj_frame, 1), cell(sync.error),
                   "36202 / 1505 / 0.020"});
  table.print_rule();

  std::printf(
      "\nHeadline relationships (paper Table IV):\n"
      "  error:  no-manip / regen  = %.1fx   (paper 4.0x)\n"
      "          no-manip / sync   = %.1fx   (paper 3.8x)\n"
      "  energy: sync saves vs regen = %.0f%% (paper 24%%)\n"
      "  area:   regen / no-manip  = %.2fx  (paper 1.43x)\n"
      "          sync  / no-manip  = %.2fx  (paper 1.49x)\n",
      none.error / regen.error, none.error / sync.error,
      100.0 * (1.0 - sync.cost.energy_nj_frame / regen.cost.energy_nj_frame),
      regen.cost.report.area_um2 / none.cost.report.area_um2,
      sync.cost.report.area_um2 / none.cost.report.area_um2);

  // Dump the images so the qualitative "Image Result" row of Table IV can
  // be inspected visually.
  save_or_warn(scene, "/tmp/scorr_input.pgm");
  save_or_warn(none.reference, "/tmp/scorr_float.pgm");
  save_or_warn(none.output, "/tmp/scorr_none.pgm");
  save_or_warn(regen.output, "/tmp/scorr_regen.pgm");
  save_or_warn(sync.output, "/tmp/scorr_sync.pgm");
  std::printf(
      "\nImage results written to /tmp/scorr_{input,float,none,regen,sync}"
      ".pgm\n");

  // The Table IV orderings this reproduction stands on; a smoke run fails
  // when the simulated pipeline stops showing them.
  int status = 0;
  if (!(none.error > regen.error && none.error > sync.error)) {
    std::fprintf(stderr,
                 "FAIL: no-manipulation error %.4f must exceed regeneration "
                 "%.4f and synchronizer %.4f\n",
                 none.error, regen.error, sync.error);
    status = 1;
  }
  if (!(sync.cost.energy_nj_frame < regen.cost.energy_nj_frame)) {
    std::fprintf(stderr,
                 "FAIL: synchronizer energy %.1f nJ/frame must be below "
                 "regeneration %.1f\n",
                 sync.cost.energy_nj_frame, regen.cost.energy_nj_frame);
    status = 1;
  }
  return status;
}
