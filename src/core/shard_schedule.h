// Nested shard schedule of the large-message allreduce (DESIGN.md
// § Large-message paths).
//
// The latency path concentrates every byte of reduction and fan-out on one
// leader per level; a flat Rabenseifner reduce-scatter spreads the work but
// floods the shared cross-socket link (every shard crosses it once per
// reader). This schedule does the paper-faithful middle: at each level of
// the machine's domain nest, the payload range a rank owns is sub-sharded
// among that level's *domains*, so every read stays inside the smallest
// domain that contains both ends. The nest is the component's sensitivity
// with the LLC level added innermost (shard_domains), so full-payload reads
// stay inside an LLC group, 1/(LLC width) of the payload crosses a NUMA
// node, and only 1/(socket width) crosses the socket link, once. The flag
// tree keeps no L3 level: a shared LLC already fans flags out (paper
// Fig. 10), and an extra flag level costs the latency path a hop.
//
// Stage k of rank r reduces `range_k = partition(range_{k-1}, m_k, c_k(r))`,
// reading the same range from one peer per sibling child-domain of its
// level-k domain; the peers are the ranks at r's own "address" (digit path)
// inside each sibling. Because sibling domains are isomorphic on every
// supported topology, peers own byte-identical ranges and the whole
// schedule is computable by any rank for any rank — which is what lets a
// single cumulative progress flag per rank synchronize the entire pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mach/machine.h"
#include "topo/hierarchy.h"

namespace xhc::core {

/// Element range [lo, hi).
struct ElemRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t size() const noexcept { return hi - lo; }
};

/// Contiguous i-th of n pieces of `parent`, remainder spread over the low
/// pieces (XBRC's split, lifted to subranges).
ElemRange partition(ElemRange parent, std::size_t n, std::size_t i);

/// One level of the nested reduce-scatter.
struct ShardStage {
  /// Owners of `parent` across the level's child domains, ascending by
  /// child-domain order; peers[my_idx] is the rank itself.
  std::vector<int> peers;
  int my_idx = 0;
  ElemRange parent;  ///< range owned before this stage (shared by all peers)
  ElemRange range;   ///< partition(parent, peers.size(), my_idx)
};

/// Per-rank schedule plus the progress-flag timeline. The timeline divides
/// a rank's `prog` flag into 2L slots of `bytes` each: RS stage k occupies
/// slot k, allgather stage u (executed u = L-1 .. 0) occupies slot
/// L + (L-1-u). Within an RS slot the flag advances by bytes produced; at
/// every slot boundary it snaps to `base + (slot+1) * bytes`, so peers
/// compute exact wait thresholds without knowing each other's deeper digit
/// paths (ranges can differ by partition remainders, slots cannot).
struct ShardSchedule {
  std::vector<ShardStage> stages;  ///< innermost (level 0) first
  std::size_t bytes = 0;           ///< payload bytes (slot width)
  std::size_t elem = 0;            ///< element bytes

  int n_stages() const noexcept { return static_cast<int>(stages.size()); }
  /// prog value at the *start* of RS stage k.
  std::uint64_t rs_slot(int k) const noexcept {
    return static_cast<std::uint64_t>(k) * bytes;
  }
  /// prog value at the *start* of allgather stage u.
  std::uint64_t ag_slot(int u) const noexcept {
    const auto l = static_cast<std::uint64_t>(stages.size());
    return (l + (l - 1 - static_cast<std::uint64_t>(u))) * bytes;
  }
  /// Total prog advance of one operation: 2 * L * bytes.
  std::uint64_t total() const noexcept {
    return 2 * static_cast<std::uint64_t>(stages.size()) * bytes;
  }
};

/// The domains a component's shard plan nests over: its flag-tree
/// `sensitivity` with topo::Domain::kLlc added innermost when `llc` is set,
/// unless the sensitivity is flat or already has that level. The hierarchy
/// drops an LLC level that adds nothing (no shared LLC, or one LLC per NUMA
/// node), so the plan is unchanged on such machines.
std::vector<topo::Domain> shard_domains(std::vector<topo::Domain> sensitivity,
                                        bool llc);

/// Root-independent schedule factory over `machine`'s domain nest under
/// `domains` (topo::domain_nest). Built once per component; `schedule()` is
/// then a cheap per-op computation.
class ShardPlan {
 public:
  ShardPlan(const mach::Machine& machine,
            const std::vector<topo::Domain>& domains);

  /// True when every level's domains are pairwise isomorphic (equal child
  /// counts level by level), which the nested partition requires to align
  /// peer shards. False routes large payloads back to the latency path.
  bool uniform() const noexcept { return uniform_; }
  int n_stages() const noexcept { return static_cast<int>(children_.size()); }

  /// The schedule of `rank` for a `count`-element payload. Requires
  /// uniform().
  ShardSchedule schedule(int rank, std::size_t count, std::size_t elem) const;

  /// Lowest level whose domain holds both `a` and `b` (-1 when a == b): the
  /// stage at which their shard timelines meet. Requires uniform().
  int meet_level(int a, int b) const;
  /// Index of `rank`'s child domain inside its level-l domain, which is the
  /// index of the stage-l peer that lives in that child domain.
  int child_index(int l, int rank) const {
    return child_pos_[static_cast<std::size_t>(l)]
                     [static_cast<std::size_t>(rank)];
  }

 private:
  /// Rank at digit path d[0..l] inside the level-l group `g`.
  int resolve(int l, int g, const std::vector<int>& digits) const;

  bool uniform_ = false;
  /// children_[0][g] = ranks of leaf group g; children_[l][g] = level-(l-1)
  /// group indices inside level-l group g. All lists ascending.
  std::vector<std::vector<std::vector<int>>> children_;
  /// group_of_[l][rank] = index of the level-l group whose domain holds rank.
  std::vector<std::vector<int>> group_of_;
  /// child_pos_[l][rank] = rank's child index inside its level-l group
  /// (digit d_l of its address).
  std::vector<std::vector<int>> child_pos_;
};

}  // namespace xhc::core
