#include "topo/hierarchy.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/check.h"
#include "util/str.h"

namespace xhc::topo {

const char* to_string(Domain d) {
  switch (d) {
    case Domain::kLlc:
      return "l3";
    case Domain::kNuma:
      return "numa";
    case Domain::kSocket:
      return "socket";
  }
  return "?";
}

std::vector<Domain> parse_sensitivity(std::string_view s) {
  if (s == "flat" || s.empty()) return {};
  std::vector<Domain> out;
  for (const auto& part : util::split(s, '+')) {
    if (part == "l3" || part == "llc") {
      out.push_back(Domain::kLlc);
    } else if (part == "numa") {
      out.push_back(Domain::kNuma);
    } else if (part == "socket") {
      out.push_back(Domain::kSocket);
    } else {
      XHC_REQUIRE(false, "unknown sensitivity token '", part, "'");
    }
  }
  return out;
}

namespace {

int domain_id(const Topology& topo, const RankMap& map, Domain d, int rank) {
  const CorePlace& place = topo.core(map.core_of(rank));
  switch (d) {
    case Domain::kLlc:
      return place.llc;
    case Domain::kNuma:
      return place.numa;
    case Domain::kSocket:
      return place.socket;
  }
  return 0;
}

// Elects the group leader: the root if present, otherwise the lowest rank.
int elect_leader(const std::vector<int>& ranks, int root) {
  for (const int r : ranks) {
    if (r == root) return root;
  }
  return ranks.front();
}

}  // namespace

Hierarchy::Hierarchy(const Topology& topo, const RankMap& map,
                     const std::vector<Domain>& sensitivity, int root) {
  n_ranks_ = map.n_ranks();
  root_ = root;
  XHC_REQUIRE(root >= 0 && root < n_ranks_, "root ", root, " out of range");

  std::vector<int> members(static_cast<std::size_t>(n_ranks_));
  for (int r = 0; r < n_ranks_; ++r) members[static_cast<std::size_t>(r)] = r;

  for (const Domain d : sensitivity) {
    // Partition current members by their domain id.
    std::map<int, std::vector<int>> buckets;
    for (const int r : members) {
      buckets[domain_id(topo, map, d, r)].push_back(r);
    }
    if (buckets.size() == members.size()) {
      // Degenerate level: every group would be a singleton (e.g. an "l3"
      // level on a machine without shared LLCs). Skip it.
      continue;
    }
    std::vector<Group> level;
    std::vector<int> leaders;
    for (auto& [id, ranks] : buckets) {
      Group g;
      g.level = static_cast<int>(levels_.size());
      g.ranks = std::move(ranks);
      std::sort(g.ranks.begin(), g.ranks.end());
      g.leader = elect_leader(g.ranks, root);
      leaders.push_back(g.leader);
      level.push_back(std::move(g));
    }
    if (level.size() == 1 && !levels_.empty() &&
        level.front().ranks == levels_.back().front().ranks &&
        levels_.back().size() == 1) {
      // Same single group as the previous level — nothing new, skip.
      continue;
    }
    levels_.push_back(std::move(level));
    std::sort(leaders.begin(), leaders.end());
    members = std::move(leaders);
  }

  if (members.size() > 1 || levels_.empty()) {
    // Final flat level joining the outermost leaders (or all ranks when no
    // sensitivity produced a level).
    Group g;
    g.level = static_cast<int>(levels_.size());
    g.ranks = members;
    g.leader = elect_leader(g.ranks, root);
    levels_.push_back({std::move(g)});
  }
  index_levels();
}

Hierarchy Hierarchy::make_flat(int n_ranks, int root) {
  XHC_REQUIRE(n_ranks > 0, "need ranks");
  XHC_REQUIRE(root >= 0 && root < n_ranks, "root out of range");
  Hierarchy h;
  h.n_ranks_ = n_ranks;
  h.root_ = root;
  Group g;
  g.level = 0;
  g.ranks.resize(static_cast<std::size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r) g.ranks[static_cast<std::size_t>(r)] = r;
  g.leader = root;
  h.levels_.push_back({std::move(g)});
  h.index_levels();
  return h;
}

void Hierarchy::index_levels() {
  member_group_.assign(levels_.size(),
                       std::vector<int>(static_cast<std::size_t>(n_ranks_), -1));
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    for (std::size_t gi = 0; gi < levels_[l].size(); ++gi) {
      levels_[l][gi].id = static_cast<int>(gi);
      for (const int r : levels_[l][gi].ranks) {
        member_group_[l][static_cast<std::size_t>(r)] = static_cast<int>(gi);
      }
    }
  }
  // The root must lead every group it belongs to, all the way to the top.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const Group* g = group_of(static_cast<int>(l), root_);
    XHC_CHECK(g != nullptr && g->leader == root_,
              "root is not the leader of its group at level ", l);
  }
}

const std::vector<Group>& Hierarchy::level(int l) const {
  XHC_REQUIRE(l >= 0 && l < n_levels(), "level ", l, " out of range");
  return levels_[static_cast<std::size_t>(l)];
}

const Group* Hierarchy::group_of(int l, int rank) const {
  XHC_REQUIRE(l >= 0 && l < n_levels(), "level ", l, " out of range");
  XHC_REQUIRE(rank >= 0 && rank < n_ranks_, "rank ", rank, " out of range");
  const int gi = member_group_[static_cast<std::size_t>(l)]
                              [static_cast<std::size_t>(rank)];
  if (gi < 0) return nullptr;
  return &levels_[static_cast<std::size_t>(l)][static_cast<std::size_t>(gi)];
}

DomainNest domain_nest(const Topology& topo, const RankMap& map,
                       const std::vector<Domain>& sensitivity) {
  // The partition is root-independent; build it from the root-0 hierarchy,
  // bottom-up: a child group feeds a group if its leader is a member there.
  const Hierarchy hier(topo, map, sensitivity, 0);
  DomainNest nest(static_cast<std::size_t>(hier.n_levels()));
  for (int l = 0; l < hier.n_levels(); ++l) {
    const auto& groups = hier.level(l);
    auto& domains = nest[static_cast<std::size_t>(l)];
    domains.resize(groups.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      std::vector<int>& ranks = domains[gi];
      if (l == 0) {
        ranks = groups[gi].ranks;
        continue;
      }
      for (const auto& child : hier.level(l - 1)) {
        if (std::binary_search(groups[gi].ranks.begin(),
                               groups[gi].ranks.end(), child.leader)) {
          const auto& child_ranks = nest[static_cast<std::size_t>(l - 1)]
                                        [static_cast<std::size_t>(child.id)];
          ranks.insert(ranks.end(), child_ranks.begin(), child_ranks.end());
        }
      }
      std::sort(ranks.begin(), ranks.end());
    }
  }
  return nest;
}

bool Hierarchy::is_leader(int l, int rank) const {
  const Group* g = group_of(l, rank);
  return g != nullptr && g->leader == rank;
}

std::string Hierarchy::describe() const {
  std::ostringstream os;
  for (int l = 0; l < n_levels(); ++l) {
    os << "level " << l << ":";
    for (const Group& g : level(l)) {
      os << " [";
      for (std::size_t i = 0; i < g.ranks.size(); ++i) {
        if (i) os << ",";
        if (g.ranks[i] == g.leader) os << "*";
        os << g.ranks[i];
      }
      os << "]";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace xhc::topo
