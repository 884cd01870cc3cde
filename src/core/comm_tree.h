// Communicator tree: hierarchy shapes, per-root views and control blocks.
//
// The *partition* of ranks into groups depends only on the topology and the
// sensitivity list, never on the operation root — only leader election does
// (the root leads every group it belongs to, paper §IV). CommTree therefore
// allocates one control block per (level, group) up front, sized for every
// rank that could ever be a member, and builds cheap per-root Views lazily.
//
// Next to this flag tree it can hold the cache tree (DESIGN.md § Cache
// tree): the groups of the {LLC} domain nest, one per shared LLC plus a top
// group whose domain is every rank — the flag tree's top group, whose
// control block both trees share. One-chunk bcasts fan out flat through
// the top group and gather acks through the LLC groups.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/ctl.h"
#include "mach/machine.h"
#include "topo/hierarchy.h"

namespace xhc::core {

/// Root-independent description of one group.
struct GroupShape {
  int level = 0;
  int index_in_level = 0;
  int ctl_id = 0;                ///< index into CommTree::ctl()
  std::vector<int> domain_ranks; ///< sorted; every possible member
  int home_rank = 0;             ///< owns the control block allocation

  /// Slot of `rank` in the per-member arrays; -1 if not in the domain.
  int slot_of(int rank) const;
};

/// Per-root view: which groups a rank belongs to and who leads them.
class CommView {
 public:
  struct Membership {
    int level = 0;
    int ctl_id = 0;            ///< control block / shape id
    int leader = 0;            ///< leader rank for this root
    std::vector<int> members;  ///< actual members, ascending
    int my_slot = 0;           ///< this rank's slot in the shape
    int leader_slot = 0;       ///< leader's slot in the shape
    bool is_leader = false;
  };

  /// Groups `rank` participates in, ordered innermost level first. A rank
  /// appears at level l+1 only if it leads its level-l group; the last entry
  /// is the rank's "member level" (where it is a non-leader member), except
  /// for the root, which leads everything.
  const std::vector<Membership>& memberships(int rank) const {
    return per_rank_[static_cast<std::size_t>(rank)];
  }

  int root() const noexcept { return root_; }
  int n_levels() const noexcept { return n_levels_; }

 private:
  friend class CommTree;
  std::vector<std::vector<Membership>> per_rank_;
  int root_ = 0;
  int n_levels_ = 0;
};

class CommTree {
 public:
  /// Builds shapes and control blocks, holding the fields `reads` names,
  /// for `machine`'s rank map under the given sensitivity (empty = flat).
  /// `scope` prefixes every ledger flag name of the tree's control planes
  /// (see CtlArena::add_group); empty keeps the historical
  /// single-communicator names. With `cache_tree` it also builds the cache
  /// tree, where one pays: on a machine whose cores share an LLC, under a
  /// flag tree of at least two levels.
  CommTree(mach::Machine& machine, std::vector<topo::Domain> sensitivity,
           const CtlReads& reads, std::string scope = {},
           bool cache_tree = false);

  int n_ranks() const noexcept { return machine_->n_ranks(); }
  /// Levels of the flag tree.
  int n_levels() const noexcept { return n_levels_; }
  /// Groups of both trees; ctl ids of the cache tree's LLC groups follow
  /// the flag tree's.
  int n_groups() const noexcept { return static_cast<int>(shapes_.size()); }
  bool has_cache_tree() const noexcept {
    return n_groups() > n_flag_groups_;
  }

  const GroupShape& shape(int ctl_id) const {
    return shapes_[static_cast<std::size_t>(ctl_id)];
  }
  GroupCtl& ctl(int ctl_id) { return ctls_[static_cast<std::size_t>(ctl_id)]; }

  /// Per-root view; built on first use (thread-safe, deterministic).
  const CommView& view(int root);

  /// Per-root view of the cache tree, built like view(). Its memberships
  /// report flag-tree levels: an LLC group level 0 (the LLC lies inside the
  /// innermost flag domain), the top group — the flag tree's — its top
  /// level. Requires has_cache_tree().
  const CommView& cache_view(int root);

  /// Large-message shard/stripe plane: one slot per global rank, written
  /// only by that rank regardless of root, so it serves any shard nest.
  ShardCtl& shard_ctl() noexcept { return shard_ctl_; }

  /// Arena accounting (observability gauges).
  const CtlArena& arena() const noexcept { return arena_; }

 private:
  /// Appends one shape and control block per domain, at `level`.
  void add_level(const std::vector<std::vector<int>>& domains, int level,
                 const CtlReads& reads);
  std::unique_ptr<CommView> build_view(int root, bool cache) const;
  const CommView& cached_view(int root, bool cache);

  mach::Machine* machine_;
  std::vector<topo::Domain> sensitivity_;
  std::string scope_;
  int n_levels_ = 0;
  int n_flag_groups_ = 0;
  std::vector<GroupShape> shapes_;
  std::vector<GroupCtl> ctls_;
  ShardCtl shard_ctl_;
  CtlArena arena_;

  std::mutex views_mu_;
  /// Keyed by (cache tree?, root).
  std::map<std::pair<bool, int>, std::unique_ptr<CommView>> views_;
};

}  // namespace xhc::core
