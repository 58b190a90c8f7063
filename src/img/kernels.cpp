#include "img/kernels.hpp"

#include <algorithm>
#include <cmath>

namespace sc::img {

namespace {

/// Visits every pixel of `input` row by row with a tap function for a
/// window reaching `lo` pixels left/up and `hi` pixels right/down:
/// interior pixels read their taps directly, border pixels through
/// Image::at_clamped.  `body(x, y, tap)` computes the output from
/// tap(dx, dy) and sees the same tap values in both cases, so a fixed tap
/// order rounds identically on the border and in the interior.
template <typename Body>
void for_each_window(const Image& input, std::size_t lo, std::size_t hi,
                     Body&& body) {
  const std::size_t width = input.width();
  const std::size_t height = input.height();
  const auto stride = static_cast<std::ptrdiff_t>(width);
  for (std::size_t y = 0; y < height; ++y) {
    const bool row_inside = y >= lo && y + hi < height;
    const double* row = input.pixels().data() + y * width;
    for (std::size_t x = 0; x < width; ++x) {
      if (row_inside && x >= lo && x + hi < width) {
        const double* center = row + x;
        body(x, y, [center, stride](int dx, int dy) {
          return center[dy * stride + dx];
        });
      } else {
        const auto ix = static_cast<std::ptrdiff_t>(x);
        const auto iy = static_cast<std::ptrdiff_t>(y);
        body(x, y, [&input, ix, iy](int dx, int dy) {
          return input.at_clamped(ix + dx, iy + dy);
        });
      }
    }
  }
}

}  // namespace

Image gaussian_blur3(const Image& input) {
  Image out(input.width(), input.height());
  for_each_window(input, 1, 1, [&](std::size_t x, std::size_t y, auto tap) {
    double acc = 0.0;
    int k = 0;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        acc += static_cast<double>(kGaussianWeights16[k]) * tap(dx, dy);
        ++k;
      }
    }
    out.at(x, y) = acc / 16.0;
  });
  return out;
}

Image roberts_cross(const Image& input) {
  Image out(input.width(), input.height());
  for_each_window(input, 0, 1, [&](std::size_t x, std::size_t y, auto tap) {
    const double a = tap(0, 0);
    const double d = tap(1, 1);
    const double b = tap(1, 0);
    const double c = tap(0, 1);
    out.at(x, y) = 0.5 * (std::abs(a - d) + std::abs(b - c));
  });
  return out;
}

Image reference_pipeline(const Image& input) {
  return roberts_cross(gaussian_blur3(input));
}

Image median3x3(const Image& input) {
  Image out(input.width(), input.height());
  for (std::size_t y = 0; y < input.height(); ++y) {
    for (std::size_t x = 0; x < input.width(); ++x) {
      std::array<double, 9> window;
      int k = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          window[static_cast<std::size_t>(k++)] =
              input.at_clamped(static_cast<std::ptrdiff_t>(x) + dx,
                               static_cast<std::ptrdiff_t>(y) + dy);
        }
      }
      std::nth_element(window.begin(), window.begin() + 4, window.end());
      out.at(x, y) = window[4];
    }
  }
  return out;
}

}  // namespace sc::img
