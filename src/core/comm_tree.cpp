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
                   std::vector<topo::Domain> sensitivity, std::string scope)
    : machine_(&machine),
      sensitivity_(std::move(sensitivity)),
      scope_(std::move(scope)) {
  build_shapes();
  shard_ctl_ =
      arena_.add_shard_plane(*machine_, machine_->n_ranks(), scope_);
}

void CommTree::build_shapes() {
  const topo::DomainNest nest =
      topo::domain_nest(machine_->topology(), machine_->map(), sensitivity_);
  n_levels_ = static_cast<int>(nest.size());
  for (int l = 0; l < n_levels_; ++l) {
    const auto& domains = nest[static_cast<std::size_t>(l)];
    for (std::size_t gi = 0; gi < domains.size(); ++gi) {
      GroupShape shape;
      shape.level = l;
      shape.index_in_level = static_cast<int>(gi);
      shape.ctl_id = static_cast<int>(shapes_.size());
      shape.domain_ranks = domains[gi];
      shape.home_rank = shape.domain_ranks.front();
      ctls_.push_back(arena_.add_group(
          *machine_, shape.home_rank,
          static_cast<int>(shape.domain_ranks.size()), scope_));
      shapes_.push_back(std::move(shape));
    }
  }
}

std::unique_ptr<CommView> CommTree::build_view(int root) const {
  const topo::Hierarchy hier(machine_->topology(), machine_->map(),
                             sensitivity_, root);
  XHC_CHECK(hier.n_levels() == n_levels_,
            "hierarchy level count changed with root");

  auto view = std::make_unique<CommView>();
  view->root_ = root;
  view->n_levels_ = n_levels_;
  view->per_rank_.resize(static_cast<std::size_t>(machine_->n_ranks()));

  // ctl ids are level-major in shape build order, which matches the
  // hierarchy's per-level group indices (both sorted by domain id).
  std::vector<int> level_offset(static_cast<std::size_t>(n_levels_), 0);
  {
    int off = 0;
    for (int l = 0; l < n_levels_; ++l) {
      level_offset[static_cast<std::size_t>(l)] = off;
      off += static_cast<int>(hier.level(l).size());
    }
    XHC_CHECK(off == static_cast<int>(shapes_.size()),
              "group count changed with root");
  }

  for (int r = 0; r < machine_->n_ranks(); ++r) {
    auto& ms = view->per_rank_[static_cast<std::size_t>(r)];
    for (int l = 0; l < n_levels_; ++l) {
      const topo::Group* g = hier.group_of(l, r);
      if (g == nullptr) break;
      CommView::Membership m;
      m.level = l;
      m.ctl_id = level_offset[static_cast<std::size_t>(l)] + g->id;
      m.leader = g->leader;
      m.members = g->ranks;
      const GroupShape& shape = shapes_[static_cast<std::size_t>(m.ctl_id)];
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

const CommView& CommTree::view(int root) {
  std::lock_guard<std::mutex> lock(views_mu_);
  auto it = views_.find(root);
  if (it == views_.end()) {
    it = views_.emplace(root, build_view(root)).first;
  }
  return *it->second;
}

}  // namespace xhc::core
