#include "obs/trace.h"

#include "util/check.h"

namespace xhc::obs {

namespace {

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Recorder::Recorder(int n_ranks, std::size_t capacity) {
  XHC_REQUIRE(n_ranks > 0, "recorder needs at least one rank");
  XHC_REQUIRE(capacity > 0, "recorder needs a non-zero ring");
  const std::size_t cap = pow2_at_least(capacity);
  mask_ = cap - 1;
  rings_ = std::vector<Ring>(static_cast<std::size_t>(n_ranks));
  for (auto& ring : rings_) {
    ring.slots = std::make_unique_for_overwrite<Span[]>(cap);
  }
}

std::vector<Span> Recorder::spans(int rank) const {
  const Ring& ring = rings_[static_cast<std::size_t>(rank)];
  const std::size_t cap = mask_ + 1;
  const std::size_t n =
      ring.head < cap ? static_cast<std::size_t>(ring.head) : cap;
  std::vector<Span> out;
  out.reserve(n);
  // Oldest retained span first: with a wrapped ring that is slot head&mask.
  const std::uint64_t first = ring.head - n;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring.slots[(first + i) & mask_]);
  }
  return out;
}

std::uint64_t Recorder::dropped(int rank) const noexcept {
  const Ring& ring = rings_[static_cast<std::size_t>(rank)];
  const std::size_t cap = mask_ + 1;
  return ring.head > cap ? ring.head - cap : 0;
}

}  // namespace xhc::obs
