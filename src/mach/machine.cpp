#include "mach/machine.h"

#include <algorithm>

#include "util/check.h"

namespace xhc::mach {

std::uint64_t AllocRegistry::insert(void* p, std::size_t bytes,
                                    int owner_rank) {
  std::lock_guard<std::mutex> lock(mu_);
  Block b;
  b.base = static_cast<std::byte*>(p);
  b.bytes = bytes;
  b.owner_rank = owner_rank;
  b.id = next_id_++;
  blocks_[p] = b;
  return b.id;
}

void AllocRegistry::erase(void* p) {
  std::lock_guard<std::mutex> lock(mu_);
  blocks_.erase(p);
}

const AllocRegistry::Block* AllocRegistry::find(const void* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.upper_bound(p);
  if (it == blocks_.begin()) return nullptr;
  --it;
  const Block& b = it->second;
  const auto* addr = static_cast<const std::byte*>(p);
  if (addr >= b.base && addr < b.base + b.bytes) return &b;
  return nullptr;
}

void Machine::attach(EventSink* s) {
  if (s == nullptr) return;
  const auto slot = std::find(sinks_.begin(), sinks_.end(), nullptr);
  XHC_REQUIRE(slot != sinks_.end(), "more than ", kMaxSinks,
              " event sinks attached");
  *slot = s;
}

void Machine::detach(EventSink* s) noexcept {
  // Keeps the rest in attach order.
  if (s != nullptr) {
    std::fill(std::remove(sinks_.begin(), sinks_.end(), s), sinks_.end(),
              nullptr);
  }
}

EventSinks Machine::run_sinks() {
  EventSinks out;
  if (verify_ledger().enabled()) out.add(&verify_ledger());
  for (EventSink* s : sinks_) {
    if (s != nullptr) out.add(s);
  }
  return out;
}

}  // namespace xhc::mach
