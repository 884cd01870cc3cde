#include "check/explore.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "util/prng.h"

namespace xhc::check {

namespace {

constexpr std::size_t kMaxSegmentAccesses = 256;
constexpr std::size_t kMaxWitnesses = 8;

/// One memory access of a scheduling segment (flag word or payload range).
struct Access {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  bool write = false;
};

/// Everything one rank touched between two scheduling decisions. Overflowed
/// segments conservatively conflict with everything (pruning is disabled
/// for them, never soundness).
struct Segment {
  std::vector<Access> acc;
  bool overflow = false;

  void add(std::uintptr_t lo, std::size_t n, bool write) {
    if (overflow) return;
    if (acc.size() >= kMaxSegmentAccesses) {
      overflow = true;
      acc.clear();
      return;
    }
    acc.push_back(Access{lo, lo + n, write});
  }
};

bool independent(const Segment& a, const Segment& b) {
  if (a.overflow || b.overflow) return false;
  for (const Access& x : a.acc) {
    for (const Access& y : b.acc) {
      if (x.lo < y.hi && y.lo < x.hi && (x.write || y.write)) return false;
    }
  }
  return true;
}

class Recorder final : public mach::EventSink {
 public:
  Segment* seg = nullptr;  ///< null disables recording (random walks)

  /// A flag access is its word; a wait's return repeats its start.
  void on_event(const mach::Event& e) override {
    using K = mach::Event::Kind;
    if (seg == nullptr || e.kind == K::kWaitEnd) return;
    if (e.kind == K::kDataRead || e.kind == K::kDataWrite) {
      seg->add(reinterpret_cast<std::uintptr_t>(e.data), e.bytes,
               e.kind == K::kDataWrite);
    } else {
      seg->add(reinterpret_cast<std::uintptr_t>(e.flag), 8,
               e.kind == K::kStore || e.kind == K::kRmw);
    }
  }
};

/// One materialized decision point on the current DFS path.
struct Node {
  std::vector<int> candidates;
  std::vector<int> sleep;  ///< inherited + explored choices to skip
  std::vector<int> tried;
  int chosen = -1;  ///< -1: fully pruned node, defer to default policy
  /// First-step segment of each explored choice, for the independence
  /// relation when siblings inherit the sleep set.
  std::map<int, Segment> seg;
};

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

ExploreStats explore(const Runner& run, const ExploreOptions& opts) {
  ExploreStats st;
  std::vector<Node> trail;
  Recorder rec;
  Segment pending;

  const auto record_outcome = [&](const RunOutcome& out) {
    ++st.executions;
    if (out.failed) {
      ++st.failures;
      if (st.witnesses.size() < kMaxWitnesses) st.witnesses.push_back(out.diag);
    }
  };

  // --- bounded-depth DFS with stateless replay -----------------------------
  while (st.executions < opts.max_executions) {
    int depth = 0;
    bool diverged = false;
    pending = Segment{};
    rec.seg = &pending;

    const sim::VirtualScheduler::PickHook hook =
        [&](const std::vector<int>& cands) -> int {
      // Forced moves don't branch: no depth spent, and the pending segment
      // keeps accumulating so a recorded step spans the whole stretch
      // between real branch points (shorter segments would over-prune).
      if (cands.size() <= 1) return -1;
      // The segment since the previous branch belongs to that branch's
      // choice; keep the first deterministic recording.
      if (depth > 0 && depth <= static_cast<int>(trail.size())) {
        Node& pn = trail[static_cast<std::size_t>(depth) - 1];
        if (pn.chosen >= 0 && pn.seg.find(pn.chosen) == pn.seg.end()) {
          pn.seg.emplace(pn.chosen, pending);
        }
      }
      pending = Segment{};
      if (diverged || depth >= opts.max_branch_depth) {
        ++depth;
        return -1;
      }
      if (depth < static_cast<int>(trail.size())) {  // replaying the prefix
        Node& n = trail[static_cast<std::size_t>(depth)];
        if (n.chosen >= 0 && !contains(n.candidates, n.chosen)) {
          // Shouldn't happen on the deterministic engine; degrade safely.
          diverged = true;
          ++st.divergences;
          ++depth;
          return -1;
        }
        ++depth;
        return n.chosen;
      }
      Node n;
      n.candidates = cands;
      if (depth > 0) {
        // Sleep-set inheritance: a sleeping sibling stays asleep only when
        // its recorded first step is independent of the step just taken.
        const Node& pn = trail[static_cast<std::size_t>(depth) - 1];
        const auto bs = pn.chosen >= 0 ? pn.seg.find(pn.chosen) : pn.seg.end();
        if (bs != pn.seg.end()) {
          for (const int s : pn.sleep) {
            const auto it = pn.seg.find(s);
            if (it != pn.seg.end() && independent(it->second, bs->second)) {
              n.sleep.push_back(s);
            }
          }
        }
      }
      n.chosen = -1;
      for (const int c : cands) {
        if (!contains(n.sleep, c)) {
          n.chosen = c;
          n.tried.push_back(c);
          break;
        }
      }
      trail.push_back(std::move(n));
      ++st.branch_points;
      ++depth;
      return trail.back().chosen;  // -1 when every candidate sleeps
    };

    record_outcome(run(hook, &rec));

    // Backtrack to the deepest node with an unexplored, awake sibling.
    bool more = false;
    while (!trail.empty()) {
      Node& n = trail.back();
      if (n.chosen >= 0 && !contains(n.sleep, n.chosen)) {
        n.sleep.push_back(n.chosen);  // explored: siblings may skip it
      }
      int next = -1;
      for (const int c : n.candidates) {
        if (!contains(n.tried, c) && !contains(n.sleep, c)) {
          next = c;
          break;
        }
      }
      if (next >= 0) {
        n.chosen = next;
        n.tried.push_back(next);
        more = true;
        break;
      }
      st.pruned += static_cast<int>(n.candidates.size() - n.tried.size());
      trail.pop_back();
    }
    if (!more) {
      st.exhausted = true;
      break;
    }
  }

  // --- seeded random-walk fallback -----------------------------------------
  rec.seg = nullptr;
  util::SplitMix64 rng(opts.seed);
  const int walks = st.exhausted ? 0 : opts.random_walks;
  for (int i = 0; i < walks; ++i) {
    const sim::VirtualScheduler::PickHook hook =
        [&](const std::vector<int>& cands) -> int {
      if (cands.size() <= 1) return -1;
      return cands[rng.next_below(cands.size())];
    };
    record_outcome(run(hook, &rec));
  }
  return st;
}

}  // namespace xhc::check
