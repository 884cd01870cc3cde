#include "svc/arbiter.h"

#include <algorithm>

#include "smsc/mechanism.h"

namespace xhc::svc {

namespace {

/// CICO pool + control-plane bytes a communicator with `n` ranks charges.
std::size_t seg_cost(int n, const coll::Tuning& t) {
  return static_cast<std::size_t>(n) *
         (t.cico_segment_bytes + Arbiter::kCtlBytesPerRank);
}

/// Registration-cache entries the communicator's endpoints may pin. Only
/// mapping mechanisms (XPMEM) hold cached attachments; per-operation kernel
/// copies (CMA/KNEM) and the CICO bounce hold none.
std::size_t reg_cost(int n, const coll::Tuning& t) {
  if (!t.reg_cache || !smsc::costs_for(t.mechanism).mapping) return 0;
  return static_cast<std::size_t>(n) * t.reg_cache_entries;
}

void note(std::string* trail, const std::string& line) {
  if (trail == nullptr) return;
  if (!trail->empty()) *trail += "; ";
  *trail += line;
}

}  // namespace

coll::Tuning Arbiter::admit(const std::string& comm, int n_ranks,
                            coll::Tuning t, std::string* trail) {
  XHC_REQUIRE(n_ranks > 0, "communicator needs at least one rank");
  std::lock_guard<std::mutex> lock(mu_);
  XHC_REQUIRE(charges_.find(comm) == charges_.end(), "communicator '", comm,
              "' already admitted");

  // Segment budget: halve the CICO segment toward the floor the component
  // itself enforces (segments must hold two thresholds' worth of staging),
  // mirroring the shm-fault degradation chain.
  const std::size_t floor =
      std::max<std::size_t>(4096, 2 * t.cico_threshold);
  while (seg_cost(n_ranks, t) > seg_free_ && t.cico_segment_bytes / 2 >= floor) {
    t.cico_segment_bytes /= 2;
    note(trail, "cico segment halved to " +
                    std::to_string(t.cico_segment_bytes));
  }
  if (seg_cost(n_ranks, t) > seg_free_) {
    throw AdmissionError(
        comm, "create",
        "segment budget exhausted: need " +
            std::to_string(seg_cost(n_ranks, t)) + " bytes at the " +
            std::to_string(t.cico_segment_bytes) +
            "-byte segment floor, " + std::to_string(seg_free_) + " free");
  }

  // Registration-cache budget: shrink the per-endpoint cache, then drop the
  // mapping mechanism entirely (XPMEM→CMA holds no cached attachments; the
  // endpoint's own chain continues CMA→CICO under runtime faults).
  while (reg_cost(n_ranks, t) > reg_free_ &&
         t.reg_cache_entries / 2 >= kMinRegEntries) {
    t.reg_cache_entries /= 2;
    note(trail, "regcache shrunk to " + std::to_string(t.reg_cache_entries) +
                    " entries");
  }
  if (reg_cost(n_ranks, t) > reg_free_) {
    t.mechanism = smsc::next_mechanism(t.mechanism);
    t.reg_cache = false;
    note(trail, std::string("mechanism degraded to ") +
                    smsc::to_string(t.mechanism));
  }
  XHC_CHECK(reg_cost(n_ranks, t) == 0 || reg_cost(n_ranks, t) <= reg_free_,
            "regcache degradation chain failed to fit");

  Charge c;
  c.seg = seg_cost(n_ranks, t);
  c.reg = reg_cost(n_ranks, t);
  seg_free_ -= c.seg;
  reg_free_ -= c.reg;
  charges_.emplace(comm, c);
  return t;
}

void Arbiter::release(const std::string& comm) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = charges_.find(comm);
  if (it == charges_.end()) return;
  seg_free_ += it->second.seg;
  reg_free_ += it->second.reg;
  charges_.erase(it);
}

std::size_t Arbiter::segment_bytes_free() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seg_free_;
}

}  // namespace xhc::svc
