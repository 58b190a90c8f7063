#include "kernel/apply.hpp"

#include <stdexcept>
#include <string>

#include "kernel/kernels.hpp"

namespace sc::kernel {

sc::StreamPair apply(core::PairTransform& transform, const Bitstream& x,
                     const Bitstream& y) {
  if (x.size() != y.size()) {
    // Explicit check, not an assert: under NDEBUG the kernel would write
    // x.size() bits through the shorter stream's words (heap corruption).
    throw std::invalid_argument("sc::kernel::apply: stream sizes differ (" +
                                std::to_string(x.size()) + " vs " +
                                std::to_string(y.size()) + ")");
  }
  // Mirror core::apply: announce the length first, so the kernel captures
  // the transform's state exactly as the first serial step would see it.
  transform.begin_stream(x.size());
  std::unique_ptr<PairKernel> kernel = make_pair_kernel(transform);
  if (!kernel) {
    // core::apply re-announces the length; begin_stream is idempotent.
    return core::apply(transform, x, y);
  }
  sc::StreamPair out{x, y};
  kernel->process(out.x.word_data(), out.y.word_data(), out.x.size());
  kernel->finish();
  return out;
}

void ChunkedPairApplier::begin(std::size_t total_length) {
  transform_->begin_stream(total_length);
  kernel_ = make_pair_kernel(*transform_);
}

void ChunkedPairApplier::advance(Bitstream& x, Bitstream& y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument(
        "ChunkedPairApplier::advance: chunk sizes differ (" +
        std::to_string(x.size()) + " vs " + std::to_string(y.size()) + ")");
  }
  if (kernel_ != nullptr) {
    kernel_->process(x.word_data(), y.word_data(), x.size());
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const core::BitPair out = transform_->step(x.get(i), y.get(i));
    x.set(i, out.x);
    y.set(i, out.y);
  }
}

void ChunkedPairApplier::finish() {
  if (kernel_ != nullptr) {
    kernel_->finish();
    kernel_.reset();
  }
}

Bitstream apply(core::StreamTransform& transform, const Bitstream& x) {
  transform.begin_stream(x.size());
  std::unique_ptr<StreamKernel> kernel = make_stream_kernel(transform);
  if (!kernel) {
    return core::apply(transform, x);
  }
  Bitstream out = x;
  kernel->process(out.word_data(), out.size());
  kernel->finish();
  return out;
}

}  // namespace sc::kernel
