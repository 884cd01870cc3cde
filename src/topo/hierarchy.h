// Hierarchy construction (paper §III-A, Fig. 2).
//
// A sensitivity list (e.g. "numa+socket") groups ranks by successively wider
// topological domains; each group elects a leader, and the leaders of one
// level become the members of the next. The final level is a single group
// containing the outermost leaders (the operation root is its leader).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "topo/mapping.h"
#include "topo/topology.h"

namespace xhc::topo {

/// A grouping criterion for one hierarchy level.
enum class Domain {
  kLlc,     ///< group ranks sharing a last-level cache
  kNuma,    ///< group ranks on the same NUMA node
  kSocket,  ///< group ranks on the same socket
};

const char* to_string(Domain d);

/// Parses "flat", "numa", "socket", "l3", or '+'-joined combinations such as
/// "numa+socket" and "l3+numa+socket" (inner to outer).
std::vector<Domain> parse_sensitivity(std::string_view s);

/// One communication group at some level of the hierarchy.
struct Group {
  int level = 0;            ///< 0 = innermost
  std::vector<int> ranks;   ///< member ranks, ascending
  int leader = -1;          ///< rank exchanging data on the group's behalf
  int id = -1;              ///< index of this group within its level
};

/// A complete hierarchy for a communicator over a rank map.
class Hierarchy {
 public:
  /// Builds the hierarchy. `root` becomes the leader of every group that
  /// contains it, so the broadcast source and the allreduce internal root
  /// sit at the top of the tree regardless of the root's rank number.
  Hierarchy(const Topology& topo, const RankMap& map,
            const std::vector<Domain>& sensitivity, int root);

  /// Flat hierarchy: one group holding all ranks.
  static Hierarchy make_flat(int n_ranks, int root);

  int n_levels() const noexcept { return static_cast<int>(levels_.size()); }
  int n_ranks() const noexcept { return n_ranks_; }
  int root() const noexcept { return root_; }

  const std::vector<Group>& level(int l) const;

  /// Group containing `rank` at level `l`, or nullptr when the rank does not
  /// participate at that level (i.e. it is not a leader of level l-1).
  const Group* group_of(int l, int rank) const;

  /// True when `rank` is the leader of its group at level `l`.
  bool is_leader(int l, int rank) const;

  /// Human-readable dump (one line per group), used by examples/tests.
  std::string describe() const;

 private:
  Hierarchy() = default;
  void index_levels();

  std::vector<std::vector<Group>> levels_;
  // member_group_[l][rank] = group index at level l, or -1.
  std::vector<std::vector<int>> member_group_;
  int n_ranks_ = 0;
  int root_ = 0;
};

/// Root-independent domain partition of a hierarchy: `[l][g]` holds, sorted,
/// every rank that can reach level-l group g through leader elections below
/// it (the ranks of the level's domain). Levels innermost first, groups in
/// Hierarchy order; the domains of one level partition the ranks.
using DomainNest = std::vector<std::vector<std::vector<int>>>;

/// The DomainNest of the hierarchy `sensitivity` builds over `map`.
DomainNest domain_nest(const Topology& topo, const RankMap& map,
                       const std::vector<Domain>& sensitivity);

}  // namespace xhc::topo
