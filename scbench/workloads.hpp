/// \file workloads.hpp
/// The four scbench workloads.  Each is closed loop: the benchmark's main
/// thread issues op i+1 only after op i returned.  A workload derives every
/// input from the run's seed, builds its program / session / backend in
/// setup(), precomputes oracle results for its input set in
/// prepare_oracle(), and then runs ops that cycle through that input set.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/program.hpp"

namespace sc::obs {
class Telemetry;
}

namespace scbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizing: every workload shrunk to a fraction of a second.
  bool tiny = false;
  /// Flip one bit of this op's output before the oracle check (-1 = none);
  /// the self-test uses it to prove the check fires.
  long corrupt_op = -1;
};

/// Where the traced ladder measures a workload's layers.
struct OperatingPoint {
  unsigned width = 8;       ///< word layers: rng, convert, kernel, core
  std::size_t bits = 256;
  unsigned graph_width = 8;  ///< graph ladder
  std::size_t graph_bits = 256;
  /// Graph ladder backend: 0 = unthreaded engine backend, else an engine
  /// backend bound to a session of this many threads.
  unsigned graph_threads = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds program, plan, session and backend, then runs the warm-up ops
  /// that fill lazy caches.  Timed as setup_s; may be called repeatedly
  /// (each call replaces the previous state).  `telemetry` (may be null)
  /// is attached through the library's ExecConfig / SessionConfig /
  /// PlannerConfig pointers.
  virtual void setup(sc::obs::Telemetry* telemetry) = 0;
  /// Computes oracle results for every input of the op set.
  virtual void prepare_oracle() = 0;
  /// The timed call: runs op `op` and keeps its output.
  virtual void run_op(std::size_t op) = 0;
  /// True when the kept output equals the oracle's for op `op`.
  [[nodiscard]] virtual bool check_op(std::size_t op) const = 0;
  /// Flips one bit of the kept output (self-test of the oracle check).
  virtual void corrupt_output() = 0;

  /// Simulated stream bits one op advances.
  [[nodiscard]] virtual double sim_bits_per_op() const = 0;
  /// SC accuracy over the oracle input set (exact for a fixed seed).
  [[nodiscard]] virtual double mean_abs_error() const = 0;
  /// Session threads the op uses (1 when it has no pool).
  [[nodiscard]] virtual unsigned threads() const = 0;
  [[nodiscard]] virtual OperatingPoint point() const = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> make_workload(const Options& options);

/// Names accepted by make_workload, in documentation order.
const std::vector<std::string>& workload_names();

/// The 31-node mixed program: the §IV window stage plus multiply, divide,
/// bipolar multiply, stanh-8, Bernstein and saturating-add, with operand
/// values drawn from `seed`.
sc::graph::Program mixed_program(std::uint64_t seed);

/// Pool size for every session: min(2, hardware threads).  Two workers keep
/// the pool's fan-out and queueing in the measurement while leaving the
/// host's other cores free, so timings follow the program rather than the
/// scheduler of a shared machine.
unsigned bench_threads();

}  // namespace scbench
