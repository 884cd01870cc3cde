// Host memory behind Machine::alloc.
//
// Both machines take their blocks from host_alloc, so rounding, zeroing and
// the residency hint are one policy (DESIGN.md § Host data plane). Blocks
// come from the C heap exactly where glibc places them; the huge-page hint
// changes how the kernel backs a block's pages, never its address, so
// registry keys, regcache hits and every modeled number are independent of
// it.
#pragma once

#include <cstddef>

namespace xhc::mach {

/// Transparent huge page size the residency hint is aligned to.
inline constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// Blocks of at least this many bytes get the huge-page hint when asked.
inline constexpr std::size_t kHugePageHintMin = std::size_t{4} << 20;

/// A block from host_alloc; `bytes` is the size to register.
struct HostBlock {
  void* p = nullptr;
  std::size_t bytes = 0;
};

/// Allocates `bytes` rounded up to a multiple of `align` (raised to at
/// least one cache line; a zero-byte request gets one `align` unit) at an
/// `align`-aligned address, zero-filled when `zero` is set. With `hint`, a
/// block of at least kHugePageHintMin bytes is advised MADV_HUGEPAGE over
/// its kHugePage-aligned interior before anything touches it. A block whose
/// payload is never written (the simulator's timing-only plane) goes
/// without: the hint outlives the block, and the allocator's chunk headers
/// later written inside a freed hinted window each fault a whole huge page.
/// Release with std::free. Throws util::Error when the rounded size
/// overflows size_t or the allocation fails.
HostBlock host_alloc(std::size_t bytes, std::size_t align, bool zero,
                     bool hint);

}  // namespace xhc::mach
