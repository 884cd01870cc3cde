#include "mach/host_alloc.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include "util/check.h"

namespace xhc::mach {

namespace {

/// Asks the kernel to back [p, p + bytes)'s huge-page-aligned interior with
/// transparent huge pages. Only the interior: by the time the allocator
/// returns it has written chunk headers just before and just after the
/// block, so the windows straddling the block's ends are already faulted in
/// 4 KiB pages and a hint over them buys nothing. Best effort — a host
/// without THP support refuses and the block stays on base pages.
void hint_huge_pages(void* p, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (base + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t hi = (base + bytes) & ~(kHugePage - 1);
  if (hi > lo) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

HostBlock host_alloc(std::size_t bytes, std::size_t align, bool zero,
                     bool hint) {
  if (align < 64) align = 64;
  XHC_REQUIRE(bytes <= SIZE_MAX - (align - 1), "allocation of bytes=", bytes,
              " rounded up to align=", align, " overflows size_t");
  const std::size_t rounded = (bytes + align - 1) / align * align;
  HostBlock b;
  b.bytes = rounded ? rounded : align;
  b.p = std::aligned_alloc(align, b.bytes);
  XHC_CHECK(b.p != nullptr, "allocation of ", bytes, " bytes failed");
  if (hint && b.bytes >= kHugePageHintMin) hint_huge_pages(b.p, b.bytes);
  if (zero) std::memset(b.p, 0, b.bytes);
  return b;
}

}  // namespace xhc::mach
