/// \file common.cpp

#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/simd.hpp"

namespace scbench {

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeedStream::uniform(double lo, double hi) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * unit;
}

std::uint32_t SeedStream::seed32() {
  const auto v = static_cast<std::uint32_t>(next());
  return v == 0 ? 1 : v;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  SeedStream s(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return s.next();
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const sc::Bitstream& stream) {
  add(static_cast<std::uint64_t>(stream.size()));
  for (const sc::Bitstream::Word w : stream.words()) add(w);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_stamp(unsigned threads) {
  const char* env = std::getenv("SC_SIMD");
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " threads=" + std::to_string(threads) +
         " simd=" + sc::simd::tier_name(sc::simd::active_tier()) +
         " SC_SIMD=" + (env != nullptr ? env : "(unset)") +
         " compiler=\"" + compiler + "\" build=" + SCBENCH_BUILD_TYPE;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  rows_.push_back({name, value, unit});
}

void Report::print_table() const {
  for (const Metric& m : rows_) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string Report::metrics_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + rows_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           rows_[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace scbench
