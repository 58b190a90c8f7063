/// \file bitops.hpp
/// C++17 portability shims for <bit> operations the codebase relies on.

#pragma once

#include <cstdint>

namespace sc {

/// Population count of a 64-bit word (std::popcount is C++20-only).
inline int popcount64(std::uint64_t w) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(w);
#else
  int n = 0;
  while (w) {
    w &= w - 1;
    ++n;
  }
  return n;
#endif
}

inline int popcount32(std::uint32_t w) noexcept {
  return popcount64(w);
}

/// Number of bits needed to represent w (std::bit_width is C++20-only).
/// bit_width(0) == 0, bit_width(5) == 3.
constexpr unsigned bit_width64(std::uint64_t w) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return w == 0 ? 0u : 64u - static_cast<unsigned>(__builtin_clzll(w));
#else
  unsigned n = 0;
  while (w) {
    w >>= 1;
    ++n;
  }
  return n;
#endif
}

/// Number of trailing zero bits (std::countr_zero is C++20-only).
/// countr_zero64(0) == 64.
inline unsigned countr_zero64(std::uint64_t w) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return w == 0 ? 64u : static_cast<unsigned>(__builtin_ctzll(w));
#else
  if (w == 0) return 64u;
  unsigned n = 0;
  while (!(w & 1)) {
    w >>= 1;
    ++n;
  }
  return n;
#endif
}

}  // namespace sc
