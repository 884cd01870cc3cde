#include "core/shard_schedule.h"

#include <algorithm>

#include "util/check.h"

namespace xhc::core {

ElemRange partition(ElemRange parent, std::size_t n, std::size_t i) {
  const std::size_t len = parent.size();
  const std::size_t q = len / n;
  const std::size_t rem = len % n;
  ElemRange r;
  r.lo = parent.lo + q * i + std::min(i, rem);
  r.hi = r.lo + q + (i < rem ? 1 : 0);
  return r;
}

std::vector<topo::Domain> shard_domains(std::vector<topo::Domain> sensitivity,
                                        bool llc) {
  if (llc && !sensitivity.empty() &&
      std::find(sensitivity.begin(), sensitivity.end(), topo::Domain::kLlc) ==
          sensitivity.end()) {
    sensitivity.insert(sensitivity.begin(), topo::Domain::kLlc);
  }
  return sensitivity;
}

ShardPlan::ShardPlan(const mach::Machine& machine,
                     const std::vector<topo::Domain>& domains) {
  const topo::DomainNest nest =
      topo::domain_nest(machine.topology(), machine.map(), domains);
  const int n_ranks = machine.n_ranks();
  const int n_levels = static_cast<int>(nest.size());

  children_.resize(static_cast<std::size_t>(n_levels));
  group_of_.assign(static_cast<std::size_t>(n_levels),
                   std::vector<int>(static_cast<std::size_t>(n_ranks), -1));
  child_pos_.assign(static_cast<std::size_t>(n_levels),
                    std::vector<int>(static_cast<std::size_t>(n_ranks), -1));

  for (int l = 0; l < n_levels; ++l) {
    const auto& groups = nest[static_cast<std::size_t>(l)];
    auto& kids = children_[static_cast<std::size_t>(l)];
    auto& group_of = group_of_[static_cast<std::size_t>(l)];
    auto& child_pos = child_pos_[static_cast<std::size_t>(l)];
    kids.resize(groups.size());
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      for (const int r : groups[gi]) {
        group_of[static_cast<std::size_t>(r)] = static_cast<int>(gi);
      }
    }
    if (l == 0) {
      for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        kids[gi] = groups[gi];
        for (std::size_t j = 0; j < groups[gi].size(); ++j) {
          child_pos[static_cast<std::size_t>(groups[gi][j])] =
              static_cast<int>(j);
        }
      }
      continue;
    }
    // A level-(l-1) domain is a child of the level-l domain that contains
    // it; domains at one level partition the ranks, so the first rank
    // identifies the parent.
    const auto& lower = nest[static_cast<std::size_t>(l - 1)];
    for (std::size_t ci = 0; ci < lower.size(); ++ci) {
      const int gi = group_of[static_cast<std::size_t>(lower[ci].front())];
      if (gi < 0) continue;
      kids[static_cast<std::size_t>(gi)].push_back(static_cast<int>(ci));
    }
    for (const auto& group : kids) {
      for (std::size_t j = 0; j < group.size(); ++j) {
        for (const int r : lower[static_cast<std::size_t>(group[j])]) {
          child_pos[static_cast<std::size_t>(r)] = static_cast<int>(j);
        }
      }
    }
  }

  // Uniformity: equal child counts within each level, and every rank mapped
  // at every level. Remainder-uneven partitions are fine; unequal *widths*
  // would misalign peer shards.
  uniform_ = true;
  for (int l = 0; l < n_levels && uniform_; ++l) {
    const auto& groups = children_[static_cast<std::size_t>(l)];
    for (std::size_t gi = 0; gi + 1 < groups.size(); ++gi) {
      if (groups[gi].size() != groups[gi + 1].size()) uniform_ = false;
    }
    for (int r = 0; r < n_ranks; ++r) {
      if (group_of_[static_cast<std::size_t>(l)][static_cast<std::size_t>(
              r)] < 0 ||
          child_pos_[static_cast<std::size_t>(l)][static_cast<std::size_t>(
              r)] < 0) {
        uniform_ = false;
      }
    }
  }
}

int ShardPlan::resolve(int l, int g, const std::vector<int>& digits) const {
  int cur = g;
  for (int t = l; t >= 0; --t) {
    cur = children_[static_cast<std::size_t>(t)][static_cast<std::size_t>(
        cur)][static_cast<std::size_t>(digits[static_cast<std::size_t>(t)])];
  }
  return cur;
}

int ShardPlan::meet_level(int a, int b) const {
  XHC_REQUIRE(uniform_, "shard schedule on a non-uniform hierarchy");
  if (a == b) return -1;
  for (int l = 0; l < n_stages(); ++l) {
    const auto& group_of = group_of_[static_cast<std::size_t>(l)];
    if (group_of[static_cast<std::size_t>(a)] ==
        group_of[static_cast<std::size_t>(b)]) {
      return l;
    }
  }
  XHC_CHECK(false, "ranks ", a, " and ", b, " share no shard domain");
  return -1;
}

ShardSchedule ShardPlan::schedule(int rank, std::size_t count,
                                  std::size_t elem) const {
  XHC_REQUIRE(uniform_, "shard schedule on a non-uniform hierarchy");
  const int n_levels = n_stages();

  std::vector<int> digits(static_cast<std::size_t>(n_levels));
  for (int l = 0; l < n_levels; ++l) {
    digits[static_cast<std::size_t>(l)] =
        child_pos_[static_cast<std::size_t>(l)][static_cast<std::size_t>(
            rank)];
  }

  ShardSchedule s;
  s.bytes = count * elem;
  s.elem = elem;
  s.stages.reserve(static_cast<std::size_t>(n_levels));
  ElemRange cur{0, count};
  for (int k = 0; k < n_levels; ++k) {
    const int g =
        group_of_[static_cast<std::size_t>(k)][static_cast<std::size_t>(rank)];
    const auto& kids =
        children_[static_cast<std::size_t>(k)][static_cast<std::size_t>(g)];
    ShardStage st;
    st.parent = cur;
    st.my_idx = digits[static_cast<std::size_t>(k)];
    st.peers.reserve(kids.size());
    for (const int kid : kids) {
      st.peers.push_back(k == 0 ? kid : resolve(k - 1, kid, digits));
    }
    XHC_CHECK(st.peers[static_cast<std::size_t>(st.my_idx)] == rank,
              "shard schedule self-resolution mismatch for rank ", rank);
    st.range = partition(cur, kids.size(), static_cast<std::size_t>(st.my_idx));
    cur = st.range;
    s.stages.push_back(std::move(st));
  }
  return s;
}

}  // namespace xhc::core
