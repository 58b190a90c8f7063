/// \file common.hpp
/// Shared pieces of the scbench binary: seeded input derivation, output
/// digests, timing, quantiles, and the metric report printed at the end of
/// every run.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bitstream/bitstream.hpp"

namespace scbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64 stream: every input the benchmark feeds the library is drawn
/// from one of these, seeded from --seed, so a seed fixes the inputs.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Nonzero 32-bit value (LFSR seeds).
  std::uint32_t seed32();

 private:
  std::uint64_t state_;
};

/// Independent sub-seed of `seed` for a named purpose (`stream`).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a style 64-bit digest of outputs, used to compare a timed op's
/// result with its oracle without keeping whole streams around.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const sc::Bitstream& stream);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Value at quantile q of `values` (nearest rank; 0 for an empty set).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// One line of the host stamp printed on every output: hardware threads,
/// threads used, SIMD tier and SC_SIMD override, compiler, build type.
std::string host_stamp(unsigned threads);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric table: printed as aligned rows for people, then as the
/// "metrics" object of the final JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void print_table() const;
  [[nodiscard]] std::string metrics_json() const;

 private:
  std::vector<Metric> rows_;
};

}  // namespace scbench
