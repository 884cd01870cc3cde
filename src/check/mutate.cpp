#include "check/mutate.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/prng.h"
#include "verify/verify.h"

namespace xhc::check {

const char* to_string(MutationKind k) noexcept {
  switch (k) {
    case MutationKind::kThresholdLow:
      return "threshold-low";
    case MutationKind::kThresholdHigh:
      return "threshold-high";
    case MutationKind::kDroppedPublish:
      return "dropped-publish";
    case MutationKind::kSwappedStageOrder:
      return "swapped-stage-order";
    case MutationKind::kWidenedWriter:
      return "widened-writer";
  }
  return "?";
}

bool MutantInfo::killed_by(const Finding& f) const {
  if (std::find(expect.begin(), expect.end(), f.property) == expect.end()) {
    return false;
  }
  if (!flag.empty() && f.flag != flag) return false;
  if (rank >= 0 && f.rank != rank) return false;
  return true;
}

namespace {

struct Ref {
  int rank = -1;
  int idx = -1;
};

Event& at(Schedule& m, Ref ref) {
  return m.per_rank[static_cast<std::size_t>(ref.rank)]
                   [static_cast<std::size_t>(ref.idx)];
}

struct Use {
  std::vector<Ref> pubs;  ///< (rank, idx) order = writer program order
  std::vector<Ref> rmws;
  verify::WriterPolicy policy = verify::WriterPolicy::kFixed;
  std::string name;
};

std::map<const mach::Flag*, Use> index_flags(const Schedule& m,
                                             const verify::Ledger& names) {
  std::map<const mach::Flag*, Use> out;
  for (int r = 0; r < m.n_ranks; ++r) {
    const auto& stream = m.per_rank[static_cast<std::size_t>(r)];
    for (int i = 0; i < static_cast<int>(stream.size()); ++i) {
      const Event& e = stream[static_cast<std::size_t>(i)];
      if (!e.is_flag()) continue;
      Use& u = out[e.flag];
      if (u.name.empty()) {
        u.name = names.flag_name(e.flag);
        u.policy = names.flag_policy(e.flag).value_or(
            verify::WriterPolicy::kFixed);
      }
      if (e.kind == EvKind::kPublish) u.pubs.push_back(Ref{r, i});
      if (e.kind == EvKind::kRmw) u.rmws.push_back(Ref{r, i});
    }
  }
  return out;
}

/// "r3#17": rank and program index of an event.
std::string pos(Ref ref) {
  return "r" + std::to_string(ref.rank) + "#" + std::to_string(ref.idx);
}

/// Deterministic scan of every wait event, innermost loop over ranks then
/// program order, feeding the per-kind candidate filters below.
template <typename Fn>
void each_wait(Schedule& m, Fn&& fn) {
  for (int r = 0; r < m.n_ranks; ++r) {
    const int n =
        static_cast<int>(m.per_rank[static_cast<std::size_t>(r)].size());
    for (int i = 0; i < n; ++i) {
      if (at(m, Ref{r, i}).kind == EvKind::kWait) fn(Ref{r, i});
    }
  }
}

/// The latest event of `writer` that `reader` is already ordered after by
/// its own waits before `wait`: the writer's publishes that satisfy them
/// (-1: none). What the writer does before that point stays ordered with
/// the reader whatever the threshold of `wait`.
int synced_before(const Schedule& m,
                  const std::map<const mach::Flag*, Use>& flags, int writer,
                  int reader, int wait) {
  int synced = -1;
  const auto& rs = m.per_rank[static_cast<std::size_t>(reader)];
  for (int j = 0; j < wait; ++j) {
    const Event& e = rs[static_cast<std::size_t>(j)];
    if (e.kind != EvKind::kWait) continue;
    for (const Ref p : flags.at(e.flag).pubs) {
      if (m.per_rank[static_cast<std::size_t>(p.rank)]
                    [static_cast<std::size_t>(p.idx)]
              .value < e.value) {
        continue;
      }
      if (p.rank == writer) synced = std::max(synced, p.idx);
      break;
    }
  }
  return synced;
}

/// True when `writer` accesses, strictly between its events `from` and `to`,
/// bytes that rank `reader` also accesses after its wait `wait` and before
/// its next wait, at least one of the two a write: the accesses a wait
/// lowered from `to` to `from` stops ordering. A write by the writer read
/// too early is a premature read; a read by the writer that the waiter's
/// next write overtakes is a premature return.
bool conflicts_window(const Schedule& m, int writer, int from, int to,
                      int reader, int wait) {
  const auto& ws = m.per_rank[static_cast<std::size_t>(writer)];
  const auto& rs = m.per_rank[static_cast<std::size_t>(reader)];
  for (int i = from + 1; i < to; ++i) {
    const Event& w = ws[static_cast<std::size_t>(i)];
    if (w.kind != EvKind::kWrite && w.kind != EvKind::kRead) continue;
    for (std::size_t j = static_cast<std::size_t>(wait) + 1;
         j < rs.size() && rs[j].kind != EvKind::kWait; ++j) {
      const Event& r = rs[j];
      if ((r.kind == EvKind::kWrite || r.kind == EvKind::kRead) &&
          (r.kind == EvKind::kWrite || w.kind == EvKind::kWrite) &&
          r.block == w.block && r.lo < w.hi && w.lo < r.hi) {
        return true;
      }
    }
  }
  return false;
}

MutantInfo threshold_low(Schedule& m, std::uint64_t seed,
                         std::map<const mach::Flag*, Use>& flags) {
  std::vector<Ref> cands;
  each_wait(m, [&](Ref w) {
    const Event& we = at(m, w);
    const Use& u = flags[we.flag];
    if (u.policy == verify::WriterPolicy::kShared || u.pubs.empty()) return;
    const Ref first = u.pubs.front();
    if (first.rank == w.rank || at(m, first).value >= we.value) return;
    for (const Ref p : u.pubs) {
      if (p.rank != first.rank) return;  // not a single-writer flag
      if (at(m, p).value < we.value) continue;
      const int from = std::max(
          first.idx, synced_before(m, flags, first.rank, w.rank, w.idx));
      if (conflicts_window(m, first.rank, from, p.idx, w.rank, w.idx)) {
        cands.push_back(w);
      }
      return;
    }
  });
  MutantInfo info;
  info.kind = MutationKind::kThresholdLow;
  if (cands.empty()) return info;
  const Ref w = cands[util::SplitMix64(seed).next_below(cands.size())];
  Event& we = at(m, w);
  const Use& u = flags[we.flag];
  const std::uint64_t old = we.value;
  we.value = at(m, u.pubs.front()).value;
  info.applied = true;
  info.flag = u.name;
  info.rank = w.rank;
  info.expect = {Property::kRace};
  info.detail = "lowered " + pos(w) + " wait on " + u.name + " from " +
                std::to_string(old) + " to " + std::to_string(we.value);
  return info;
}

MutantInfo threshold_high(Schedule& m, std::uint64_t seed,
                          std::map<const mach::Flag*, Use>& flags) {
  std::vector<Ref> cands;
  each_wait(m, [&](Ref w) { cands.push_back(w); });
  MutantInfo info;
  info.kind = MutationKind::kThresholdHigh;
  if (cands.empty()) return info;
  const Ref w = cands[util::SplitMix64(seed).next_below(cands.size())];
  Event& we = at(m, w);
  const Use& u = flags[we.flag];
  std::uint64_t reach = 0;
  if (u.policy == verify::WriterPolicy::kShared) {
    for (const Ref p : u.rmws) reach += at(m, p).value;
  } else {
    for (const Ref p : u.pubs) reach = std::max(reach, at(m, p).value);
  }
  const std::uint64_t old = we.value;
  we.value = reach + 1;
  info.applied = true;
  info.flag = u.name;
  info.rank = w.rank;
  info.expect = {Property::kUnreachableThreshold};
  info.detail = "raised " + pos(w) + " wait on " + u.name + " from " +
                std::to_string(old) + " to " + std::to_string(we.value);
  return info;
}

MutantInfo dropped_publish(Schedule& m, std::uint64_t seed,
                           std::map<const mach::Flag*, Use>& flags) {
  std::vector<Ref> cands;
  each_wait(m, [&](Ref w) {
    const Event& we = at(m, w);
    const Use& u = flags[we.flag];
    if (u.policy == verify::WriterPolicy::kShared) return;
    for (const Ref p : u.pubs) {
      if (at(m, p).value >= we.value) {
        cands.push_back(w);
        return;
      }
    }
  });
  MutantInfo info;
  info.kind = MutationKind::kDroppedPublish;
  if (cands.empty()) return info;
  const Ref w = cands[util::SplitMix64(seed).next_below(cands.size())];
  const Event& we = at(m, w);
  const mach::Flag* flag = we.flag;
  const std::uint64_t threshold = we.value;
  const Use& u = flags[flag];
  info.applied = true;
  info.flag = u.name;
  info.rank = w.rank;
  info.expect = {Property::kUnreachableThreshold};
  info.detail = "dropped every publish >= " + std::to_string(threshold) +
                " on " + u.name;
  // Erase highest index first so earlier refs stay valid; all publishes of
  // a single-writer flag live in one rank's stream.
  std::vector<Ref> drop;
  for (const Ref p : u.pubs) {
    if (at(m, p).value >= threshold) drop.push_back(p);
  }
  std::sort(drop.begin(), drop.end(), [](const Ref& a, const Ref& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.idx > b.idx;
  });
  for (const Ref p : drop) {
    auto& stream = m.per_rank[static_cast<std::size_t>(p.rank)];
    stream.erase(stream.begin() + p.idx);
  }
  return info;
}

MutantInfo swapped_stage_order(Schedule& m, std::uint64_t seed,
                               std::map<const mach::Flag*, Use>& flags) {
  // Candidate: publish P (rank r) that is the ONLY satisfier of wait W
  // (rank q != r), with a later wait V of r whose earliest satisfier is a
  // publish of q issued after W. Moving P behind V makes the two ranks
  // wait on each other.
  struct Cand {
    Ref pub;
    Ref wait;
  };
  std::vector<Cand> cands;
  each_wait(m, [&](Ref w) {
    const Event& we = at(m, w);
    const Use& u = flags[we.flag];
    if (u.policy == verify::WriterPolicy::kShared) return;
    Ref p{-1, -1};
    int n_sat = 0;
    for (const Ref cand : u.pubs) {
      if (at(m, cand).value >= we.value) {
        p = cand;
        ++n_sat;
      }
    }
    if (n_sat != 1 || p.rank == w.rank) return;
    const int r = p.rank;
    const int q = w.rank;
    const auto& rs = m.per_rank[static_cast<std::size_t>(r)];
    for (int i = p.idx + 1; i < static_cast<int>(rs.size()); ++i) {
      const Event& ve = rs[static_cast<std::size_t>(i)];
      if (ve.kind != EvKind::kWait || ve.flag == we.flag) continue;
      const Use& vu = flags[ve.flag];
      if (vu.policy == verify::WriterPolicy::kShared) continue;
      for (const Ref vp : vu.pubs) {
        if (at(m, vp).value < ve.value) continue;
        if (vp.rank == q && vp.idx > w.idx) cands.push_back(Cand{p, w});
        break;  // earliest satisfier decided
      }
      if (!cands.empty() && cands.back().pub.rank == p.rank &&
          cands.back().pub.idx == p.idx) {
        return;  // one candidate per W is enough
      }
    }
  });
  MutantInfo info;
  info.kind = MutationKind::kSwappedStageOrder;
  if (cands.empty()) return info;
  const Cand c = cands[util::SplitMix64(seed).next_below(cands.size())];
  auto& stream = m.per_rank[static_cast<std::size_t>(c.pub.rank)];
  Event moved = std::move(stream[static_cast<std::size_t>(c.pub.idx)]);
  const Use& u = flags[moved.flag];
  info.applied = true;
  info.expect = {Property::kWaitCycle};
  info.detail = "deferred " + pos(c.pub) + " publish of " + u.name +
                " past its dependent waits";
  stream.erase(stream.begin() + c.pub.idx);
  stream.push_back(std::move(moved));
  return info;
}

MutantInfo widened_writer(Schedule& m, std::uint64_t seed,
                          std::map<const mach::Flag*, Use>& flags) {
  std::vector<Ref> cands;
  for (int r = 0; r < m.n_ranks; ++r) {
    const int n =
        static_cast<int>(m.per_rank[static_cast<std::size_t>(r)].size());
    for (int i = 0; i < n; ++i) {
      const Event& e = at(m, Ref{r, i});
      if (e.kind != EvKind::kPublish) continue;
      if (flags[e.flag].policy == verify::WriterPolicy::kShared) continue;
      cands.push_back(Ref{r, i});
    }
  }
  MutantInfo info;
  info.kind = MutationKind::kWidenedWriter;
  if (cands.empty()) return info;
  util::SplitMix64 rng(seed);
  const Ref p = cands[rng.next_below(cands.size())];
  const int other =
      (p.rank + 1 +
       static_cast<int>(rng.next_below(
           static_cast<std::uint64_t>(m.n_ranks - 1)))) %
      m.n_ranks;
  Event dup = at(m, p);
  const Use& u = flags[dup.flag];
  const int owner_pubs = static_cast<int>(std::count_if(
      u.pubs.begin(), u.pubs.end(),
      [&](const Ref ref) { return ref.rank == p.rank; }));
  info.applied = true;
  info.flag = u.name;
  // The analyzer blames the minority writer (fewest publishes, lowest rank
  // on a tie); predict the same rank here.
  info.rank = owner_pubs > 1 ? other : std::min(p.rank, other);
  info.expect = {Property::kSingleWriter};
  info.detail = "duplicated " + pos(p) + " publish of " + u.name +
                " into rank " + std::to_string(other);
  m.per_rank[static_cast<std::size_t>(other)].push_back(std::move(dup));
  return info;
}

}  // namespace

MutantInfo apply_mutation(Schedule& m, MutationKind kind,
                          std::uint64_t seed, const verify::Ledger& names) {
  auto flags = index_flags(m, names);
  switch (kind) {
    case MutationKind::kThresholdLow:
      return threshold_low(m, seed, flags);
    case MutationKind::kThresholdHigh:
      return threshold_high(m, seed, flags);
    case MutationKind::kDroppedPublish:
      return dropped_publish(m, seed, flags);
    case MutationKind::kSwappedStageOrder:
      return swapped_stage_order(m, seed, flags);
    case MutationKind::kWidenedWriter:
      return widened_writer(m, seed, flags);
  }
  return MutantInfo{};
}

}  // namespace xhc::check
