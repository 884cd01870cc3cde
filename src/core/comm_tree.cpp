#include "core/comm_tree.h"

#include <algorithm>

#include "util/check.h"

namespace xhc::core {

int GroupShape::slot_of(int rank) const {
  const auto it =
      std::lower_bound(domain_ranks.begin(), domain_ranks.end(), rank);
  if (it == domain_ranks.end() || *it != rank) return -1;
  return static_cast<int>(it - domain_ranks.begin());
}

CommTree::CommTree(mach::Machine& machine,
                   std::vector<topo::Domain> sensitivity,
                   const CtlReads& reads, std::string scope, bool cache_tree)
    : machine_(&machine),
      sensitivity_(std::move(sensitivity)),
      scope_(std::move(scope)) {
  const topo::Topology& topo = machine_->topology();
  const topo::DomainNest nest =
      topo::domain_nest(topo, machine_->map(), sensitivity_);
  n_levels_ = static_cast<int>(nest.size());
  for (int l = 0; l < n_levels_; ++l) {
    add_level(nest[static_cast<std::size_t>(l)], l, reads);
  }
  n_flag_groups_ = n_groups();
  shard_ctl_ =
      arena_.add_shard_plane(*machine_, machine_->n_ranks(), reads, scope_);
  if (cache_tree && topo.has_shared_llc() && n_levels_ >= 2) {
    // Two levels unless this rank map puts every rank in one LLC, or each
    // in its own (the hierarchy then drops the LLC level). The top level's
    // domain is every rank, like the flag tree's top group, whose control
    // block it shares; only the LLC groups are new.
    const topo::DomainNest llc =
        topo::domain_nest(topo, machine_->map(), {topo::Domain::kLlc});
    if (llc.size() == 2) add_level(llc.front(), 0, reads);
  }
}

void CommTree::add_level(const std::vector<std::vector<int>>& domains,
                         int level, const CtlReads& reads) {
  for (std::size_t gi = 0; gi < domains.size(); ++gi) {
    GroupShape shape;
    shape.level = level;
    shape.index_in_level = static_cast<int>(gi);
    shape.ctl_id = n_groups();
    shape.domain_ranks = domains[gi];
    shape.home_rank = shape.domain_ranks.front();
    ctls_.push_back(arena_.add_group(
        *machine_, shape.home_rank,
        static_cast<int>(shape.domain_ranks.size()), reads, scope_));
    shapes_.push_back(std::move(shape));
  }
}

std::unique_ptr<CommView> CommTree::build_view(int root, bool cache) const {
  const std::vector<topo::Domain> domains =
      cache ? std::vector<topo::Domain>{topo::Domain::kLlc} : sensitivity_;
  const topo::Hierarchy hier(machine_->topology(), machine_->map(), domains,
                             root);
  const int levels = hier.n_levels();
  XHC_CHECK(levels == (cache ? 2 : n_levels_),
            "hierarchy level count changed with root");

  auto view = std::make_unique<CommView>();
  view->root_ = root;
  view->n_levels_ = n_levels_;
  view->per_rank_.resize(static_cast<std::size_t>(machine_->n_ranks()));

  // ctl ids are level-major in shape build order, which matches the
  // hierarchy's per-level group indices (both sorted by domain id). The
  // cache tree's LLC groups follow the flag tree's groups, and its top
  // group is the flag tree's, the last of those.
  std::vector<int> level_offset;
  if (cache) {
    XHC_CHECK(static_cast<int>(hier.level(0).size()) ==
                      n_groups() - n_flag_groups_ &&
                  hier.level(1).size() == 1,
              "cache tree group count changed with root");
    level_offset = {n_flag_groups_, n_flag_groups_ - 1};
  } else {
    int off = 0;
    for (int l = 0; l < levels; ++l) {
      level_offset.push_back(off);
      off += static_cast<int>(hier.level(l).size());
    }
    XHC_CHECK(off == n_flag_groups_, "group count changed with root");
  }

  for (int r = 0; r < machine_->n_ranks(); ++r) {
    auto& ms = view->per_rank_[static_cast<std::size_t>(r)];
    for (int l = 0; l < levels; ++l) {
      const topo::Group* g = hier.group_of(l, r);
      if (g == nullptr) break;
      CommView::Membership m;
      m.ctl_id = level_offset[static_cast<std::size_t>(l)] + g->id;
      const GroupShape& shape = shapes_[static_cast<std::size_t>(m.ctl_id)];
      m.level = shape.level;
      m.leader = g->leader;
      m.members = g->ranks;
      m.my_slot = shape.slot_of(r);
      m.leader_slot = shape.slot_of(g->leader);
      XHC_CHECK(m.my_slot >= 0 && m.leader_slot >= 0,
                "rank missing from group domain");
      m.is_leader = (g->leader == r);
      ms.push_back(std::move(m));
      if (!ms.back().is_leader) break;  // not a member above this level
    }
  }
  return view;
}

const CommView& CommTree::view(int root) { return cached_view(root, false); }

const CommView& CommTree::cache_view(int root) {
  XHC_CHECK(has_cache_tree(), "communicator has no cache tree");
  return cached_view(root, true);
}

const CommView& CommTree::cached_view(int root, bool cache) {
  std::lock_guard<std::mutex> lock(views_mu_);
  auto it = views_.find({cache, root});
  if (it == views_.end()) {
    it = views_.emplace(std::make_pair(cache, root), build_view(root, cache))
             .first;
  }
  return *it->second;
}

}  // namespace xhc::core
