#include "core/ctl.h"

#include <new>
#include <string>
#include <type_traits>

#include "util/check.h"
#include "verify/verify.h"

namespace xhc::core {

namespace {

constexpr std::size_t kLine = util::kCacheLine;

std::size_t round_line(std::size_t n) {
  return (n + kLine - 1) / kLine * kLine;
}

/// Layout-lint identity of a per-slot flag's own slot (the rank in it).
constexpr int kSlot = -4;

/// One field of a block kind. Its element type comes from the block's
/// member: a cache-line-padded value, or a bare flag packed several to a
/// line (deliberately: the Fig. 10 "shared" array).
struct Field {
  const char* name;      ///< ledger name "<prefix>.<name>[i]"
  bool CtlReads::*need;  ///< the read that makes a block carry it
  bool per_slot = true;  ///< [slots], or a single "<prefix>.<name>"
  verify::WriterPolicy policy = verify::WriterPolicy::kFixed;
  int writer = kSlot;  ///< layout-lint identities
  int spinner = verify::kAny;
};

using verify::kLeader;
using P = verify::WriterPolicy;

// The field lists, in placement order: a block's lines keep their relative
// order (the coherence report breaks ties by line). `f` is called with
// each member and its Field.
//
// seq/announce slot i is published only by the rank occupying slot i while
// it leads the group for the current root — a fixed writer even under
// rotating roots (GroupCtl). The Fig. 10 per-member announces are written by
// whoever leads; `atomic_ctr` is the whitelisted Fig. 4 multi-writer.
template <typename F>
void fields_of(GroupCtl& c, F&& f) {
  f(c.seq, {"seq", &CtlReads::groups});
  f(c.announce, {"announce", &CtlReads::announce});
  f(c.atomic_ctr, {"atomic_ctr", &CtlReads::atomic_ctr, false, P::kShared,
                   verify::kNone});
  f(c.info, {"info", &CtlReads::groups});
  f(c.ack, {"ack", &CtlReads::ack, true, P::kFixed, kSlot, kLeader});
  f(c.member_seq,
    {"member_seq", &CtlReads::groups, true, P::kFixed, kSlot, kLeader});
  f(c.minfo, {"minfo", &CtlReads::groups});
  f(c.reduce_ready,
    {"reduce_ready", &CtlReads::groups, true, P::kFixed, kSlot, kLeader});
  f(c.reduce_done, {"reduce_done", &CtlReads::groups});
  f(c.announce_sep, {"announce_sep", &CtlReads::announce_sep, true,
                     P::kRotating, kLeader, kSlot});
  f(c.announce_shared, {"announce_shared", &CtlReads::announce_shared, true,
                        P::kRotating, kLeader, kSlot});
}

// Slot i belongs to global rank i on every communicator view — shard and
// stripe ownership follows the rank, not an elected role — so the writer is
// fixed even under rotating roots.
template <typename F>
void fields_of(ShardCtl& c, F&& f) {
  f(c.shard_seq, {"shard_seq", &CtlReads::shards});
  f(c.sinfo, {"sinfo", &CtlReads::shards});
  f(c.prog, {"prog", &CtlReads::shards});
  f(c.stripe_ready, {"stripe_ready", &CtlReads::stripe_ready});
}

const mach::Flag* flag_at(const util::CachePadded<mach::Flag>& f) {
  return &*f;
}
const mach::Flag* flag_at(const mach::Flag& f) { return &f; }

/// Bytes of a block: each carried field rounded up to whole lines.
template <typename Block>
std::size_t block_bytes(Block block, const CtlReads& reads) {
  std::size_t bytes = 0;
  fields_of(block, [&](auto* p, const Field& f) {
    if (!(reads.*f.need)) return;
    bytes += round_line(sizeof(*p) * (f.per_slot ? block.slots : 1));
  });
  return bytes;
}

/// Places the carried fields at `at` in list order, registers their flags
/// under `prefix` with the machine's ledger and lints the block's lines.
template <typename Block>
void place_fields(Block& block, std::byte* at, const CtlReads& reads,
                  mach::Machine& m, const std::string& prefix) {
  verify::Ledger& ledger = m.verify_ledger();
  std::vector<verify::LintItem> items;
  fields_of(block, [&](auto*& p, const Field& f) {
    using T = std::remove_reference_t<decltype(*p)>;
    if (!(reads.*f.need)) return;
    const int n = f.per_slot ? block.slots : 1;
    p = reinterpret_cast<T*>(at);
    for (int i = 0; i < n; ++i) new (p + i) T();
    at += round_line(sizeof(T) * static_cast<std::size_t>(n));
    if constexpr (requires { flag_at(*p); }) {
      for (int i = 0; i < n; ++i) {
        ledger.register_flag(flag_at(p[i]),
                             f.per_slot ? prefix + "." + f.name + "[" +
                                              std::to_string(i) + "]"
                                        : prefix + "." + f.name,
                             f.policy);
        items.push_back({flag_at(p[i]), f.writer == kSlot ? i : f.writer,
                         f.spinner == kSlot ? i : f.spinner, f.name,
                         std::is_same_v<T, mach::Flag>});
      }
    }
  });
  verify::lint_layout(ledger, m.topology(), items, prefix);
}

}  // namespace

CtlArena::~CtlArena() {
  // Flags and info structs are trivially destructible; just release memory.
  for (auto& a : allocations_) {
    if (a.machine != nullptr && a.p != nullptr) a.machine->free(a.p);
  }
}

std::byte* CtlArena::allocate(mach::Machine& m, int home_rank,
                              std::size_t bytes) {
  if (bytes == 0) return nullptr;
  void* raw = m.alloc(home_rank, bytes, kLine);
  allocations_.push_back({&m, raw});
  total_bytes_ += bytes;
  return static_cast<std::byte*>(raw);
}

GroupCtl CtlArena::add_group(mach::Machine& m, int home_rank, int slots,
                             const CtlReads& reads, const std::string& scope) {
  XHC_REQUIRE(slots > 0, "group needs at least one slot");
  // The allocation index keys diagnostics; addresses disambiguate across
  // arenas.
  const std::string prefix = scope + "ctl" +
                             std::to_string(allocations_.size()) + "/h" +
                             std::to_string(home_rank);
  GroupCtl ctl;
  ctl.slots = slots;
  place_fields(ctl, allocate(m, home_rank, block_bytes(ctl, reads)), reads, m,
               prefix);
  return ctl;
}

ShardCtl CtlArena::add_shard_plane(mach::Machine& m, int slots,
                                   const CtlReads& reads,
                                   const std::string& scope) {
  XHC_REQUIRE(slots > 0, "shard plane needs at least one slot");
  ShardCtl ctl;
  ctl.slots = slots;
  place_fields(ctl, allocate(m, 0, block_bytes(ctl, reads)), reads, m,
               scope + "shards");
  return ctl;
}

}  // namespace xhc::core
