// Shared state machine of the virtual-time scheduler backends.
//
// SchedState holds everything that determines the simulation's event order:
// per-rank clocks and statuses, the ready min-heap, the channel→waiters
// map, and the barrier accumulator. It performs no blocking and no locking
// — each backend wraps it in its own handoff mechanics (fiber stack
// switches vs mutex+condvars) — so both backends make exactly the same
// scheduling decisions and produce bit-identical virtual timestamps.
//
// Complexity: the ready set is an explicit binary min-heap keyed by
// (vtime, rank) — push/pop O(log n), peek O(1) — and notify() touches only
// the ranks actually blocked on the channel via an unordered_map of waiter
// lists. The previous implementation scanned all n ranks for both.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.h"

namespace xhc::sim::detail {

enum class Status : unsigned char {
  kNotStarted,
  kReady,
  kRunning,
  kBlocked,
  kDone,
};

struct RankState {
  double vtime = 0.0;
  Status status = Status::kNotStarted;
  const void* channel = nullptr;
  VirtualScheduler::PredFn pred_fn = nullptr;  ///< non-owning; caller frame
  void* pred_ctx = nullptr;                    ///< outlives the suspension
  bool dirty = false;      ///< channel notified since last predicate check
  int waiter_idx = -1;     ///< position in the channel's waiter list
};

/// Binary min-heap of ready ranks keyed by (vtime, rank). Keys are unique
/// (rank breaks ties), so the minimum — and therefore the schedule — is
/// total-order deterministic.
class ReadyHeap {
 public:
  void reserve(std::size_t n) { h_.reserve(n); }
  bool empty() const noexcept { return h_.empty(); }
  std::size_t size() const noexcept { return h_.size(); }

  void push(double vtime, int rank) {
    h_.push_back({vtime, rank});
    std::size_t i = h_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(h_[i], h_[parent])) break;
      std::swap(h_[i], h_[parent]);
      i = parent;
    }
  }

  /// (vtime, rank) of the minimum; heap must be non-empty.
  double top_vtime() const noexcept { return h_[0].vtime; }
  int top_rank() const noexcept { return h_[0].rank; }

  /// True when key (vtime, rank) precedes-or-equals the heap minimum,
  /// i.e. a running rank with that key may keep the token.
  bool at_most_top(double vtime, int rank) const noexcept {
    if (h_.empty()) return true;
    return vtime < h_[0].vtime ||
           (vtime == h_[0].vtime && rank < h_[0].rank);
  }

  int pop() {
    const int rank = h_[0].rank;
    h_[0] = h_.back();
    h_.pop_back();
    sift_down(0);
    return rank;
  }

  /// Removes a specific rank, wherever it sits (linear scan + sift).
  /// Only the exploration pick hook uses this — never the default path —
  /// and only on tiny topologies, so O(n) is fine.
  void extract(int rank) {
    std::size_t i = 0;
    while (i < h_.size() && h_[i].rank != rank) ++i;
    if (i == h_.size()) return;
    h_[i] = h_.back();
    h_.pop_back();
    if (i == h_.size()) return;
    // Restore heap order from i: the replacement may violate either way.
    std::size_t j = i;
    while (j > 0) {
      const std::size_t parent = (j - 1) / 2;
      if (!less(h_[j], h_[parent])) break;
      std::swap(h_[j], h_[parent]);
      j = parent;
    }
    if (j == i) sift_down(i);
  }

  /// Appends every ready rank to `out` (heap order, not sorted).
  void ranks_into(std::vector<int>& out) const {
    for (const Entry& e : h_) out.push_back(e.rank);
  }

 private:
  struct Entry {
    double vtime;
    int rank;
  };
  static bool less(const Entry& a, const Entry& b) noexcept {
    return a.vtime < b.vtime || (a.vtime == b.vtime && a.rank < b.rank);
  }
  void sift_down(std::size_t i) {
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t m = i;
      if (l < h_.size() && less(h_[l], h_[m])) m = l;
      if (r < h_.size() && less(h_[r], h_[m])) m = r;
      if (m == i) break;
      std::swap(h_[i], h_[m]);
      i = m;
    }
  }
  std::vector<Entry> h_;
};

class SchedState {
 public:
  /// Returned by the pick methods when no rank is ready.
  static constexpr int kAllDone = -1;
  /// No rank is ready but not every rank is done: the caller must raise
  /// the deadlock report.
  static constexpr int kDeadlock = -2;

  SchedState(int n, double epoch) : ranks_(static_cast<std::size_t>(n)) {
    for (auto& r : ranks_) r.vtime = epoch;
    heap_.reserve(static_cast<std::size_t>(n));
    barrier_waiters_.reserve(static_cast<std::size_t>(n));
  }

  int n() const noexcept { return static_cast<int>(ranks_.size()); }
  RankState& rank(int r) { return ranks_[static_cast<std::size_t>(r)]; }
  const RankState& rank(int r) const {
    return ranks_[static_cast<std::size_t>(r)];
  }
  const void* barrier_channel() const noexcept { return &barrier_gen_; }

  /// NotStarted -> Ready. Returns true once every rank has attached (the
  /// token is granted only then, so the first runner is deterministic
  /// regardless of host thread start order).
  bool attach(int r) {
    RankState& self = rank(r);
    self.status = Status::kReady;
    heap_.push(self.vtime, r);
    return heap_.size() + static_cast<std::size_t>(n_done_) ==
           ranks_.size();
  }

  /// Installs the exploration hook (see VirtualScheduler::PickHook). Null
  /// — the default — leaves every decision to the minimal-(vtime, rank)
  /// policy, bit-identical to the unhooked engine.
  void set_pick_hook(VirtualScheduler::PickHook hook) {
    pick_hook_ = std::move(hook);
  }

  /// Pops the minimal ready rank and marks it Running.
  int begin_first() { return take_next(); }

  /// Scheduling point of a rank that stays runnable (advance / lift /
  /// post-wait resume): promotes notified waiters, then either keeps the
  /// token (returns r) or marks r Ready and returns the new minimum, which
  /// is marked Running.
  int yield_point(int r) {
    promote_dirty();
    RankState& self = rank(r);
    if (pick_hook_ && !heap_.empty()) {
      const int ch = consult_hook(r);
      if (ch >= 0) {
        if (ch == r) return r;
        self.status = Status::kReady;
        heap_.push(self.vtime, r);
        heap_.extract(ch);
        rank(ch).status = Status::kRunning;
        return ch;
      }
    }
    if (heap_.at_most_top(self.vtime, r)) return r;
    self.status = Status::kReady;
    heap_.push(self.vtime, r);
    const int next = heap_.pop();
    rank(next).status = Status::kRunning;
    return next;
  }

  /// Blocks r on (channel, pred) and picks the next rank to run. Returns a
  /// rank id or kDeadlock (never kAllDone — r itself is not done).
  int block(int r, const void* channel, VirtualScheduler::PredFn fn,
            void* ctx) {
    RankState& self = rank(r);
    self.status = Status::kBlocked;
    self.channel = channel;
    self.pred_fn = fn;
    self.pred_ctx = ctx;
    self.dirty = false;
    add_waiter(channel, r);
    promote_dirty();
    return pick_or_deadlock();
  }

  /// Done-bookkeeping without a pick: used while unwinding an aborted run.
  void mark_done(int r) {
    rank(r).status = Status::kDone;
    ++n_done_;
  }

  /// Marks r Done and picks the next rank. Returns a rank id, kAllDone, or
  /// kDeadlock.
  int finish(int r) {
    mark_done(r);
    promote_dirty();
    if (heap_.empty()) {
      return n_done_ == n() ? kAllDone : kDeadlock;
    }
    return take_next();
  }

  /// Marks every rank blocked on `channel` dirty (O(waiters)).
  void notify(const void* channel) {
    auto it = waiters_.find(channel);
    if (it == waiters_.end()) return;
    for (const int w : it->second) {
      if (!rank(w).dirty) {
        rank(w).dirty = true;
        dirty_.push_back(w);
      }
    }
  }

  struct BarrierResult {
    bool blocked;  ///< r parked; `next` is the rank to switch to
    int next;      ///< rank id, or kDeadlock when blocked with nobody ready
  };

  /// Barrier arrival of r: the last live arriver releases everyone at
  /// (max arrival + extra_cost) and then yields normally; earlier arrivers
  /// park on the internal barrier channel.
  BarrierResult barrier_arrive(int r, double extra_cost) {
    RankState& self = rank(r);
    barrier_max_time_ = std::max(barrier_max_time_, self.vtime);
    ++barrier_arrived_;
    const int live = n() - n_done_;
    if (barrier_arrived_ >= live) {
      const double release = barrier_max_time_ + extra_cost;
      barrier_arrived_ = 0;
      barrier_max_time_ = 0.0;
      ++barrier_gen_;
      for (const int w : barrier_waiters_) {
        RankState& ws = rank(w);
        ws.vtime = std::max(ws.vtime, release);
        ws.status = Status::kReady;
        ws.channel = nullptr;
        ws.dirty = false;
        heap_.push(ws.vtime, w);
      }
      barrier_waiters_.clear();
      self.vtime = std::max(self.vtime, release);
      return {false, yield_point(r)};
    }
    self.status = Status::kBlocked;
    self.channel = barrier_channel();
    self.dirty = false;
    barrier_waiters_.push_back(r);
    promote_dirty();
    return {true, pick_or_deadlock()};
  }

  /// Names wait channels in the deadlock report (the machine wires the
  /// verifier's flag registry in); empty result falls back to the address.
  void set_channel_namer(std::function<std::string(const void*)> namer) {
    namer_ = std::move(namer);
  }

  /// Human-readable dump of every rank's state, for the deadlock report.
  std::string describe() const {
    std::string os = "virtual-time deadlock; rank states:";
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
      const RankState& t = ranks_[i];
      os += " [" + std::to_string(i) + ":";
      switch (t.status) {
        case Status::kNotStarted:
          os += "unstarted";
          break;
        case Status::kReady:
          os += "ready";
          break;
        case Status::kRunning:
          os += "running";
          break;
        case Status::kBlocked: {
          std::string chan;
          if (t.channel == barrier_channel()) {
            chan = "barrier";
          } else {
            if (namer_) chan = namer_(t.channel);
            if (!chan.empty()) {
              chan = "'" + chan + "'";
            } else {
              char buf[32];
              std::snprintf(buf, sizeof buf, "%p", t.channel);
              chan = buf;
            }
          }
          os += "blocked@" + chan;
          break;
        }
        case Status::kDone:
          os += "done";
          break;
      }
      char tb[32];
      std::snprintf(tb, sizeof tb, "%g", t.vtime);
      os += std::string(" t=") + tb + "]";
    }
    return os;
  }

 private:
  int pick_or_deadlock() {
    if (heap_.empty()) return kDeadlock;
    return take_next();
  }

  /// Takes the next rank off the ready heap — the hook's choice when one is
  /// installed and answers with a rank, the minimum otherwise — and marks
  /// it Running. Heap must be non-empty.
  int take_next() {
    if (pick_hook_) {
      const int ch = consult_hook(-1);
      if (ch >= 0) {
        heap_.extract(ch);
        rank(ch).status = Status::kRunning;
        return ch;
      }
    }
    const int next = heap_.pop();
    rank(next).status = Status::kRunning;
    return next;
  }

  /// Presents the runnable candidates (ready heap plus `extra` when >= 0,
  /// ascending) to the hook. Returns the hook's choice, or -1 for "use the
  /// default policy" — which is also the answer for a choice that is not
  /// actually a candidate, so a buggy hook degrades to the deterministic
  /// schedule instead of corrupting the heap.
  int consult_hook(int extra) {
    cand_.clear();
    heap_.ranks_into(cand_);
    if (extra >= 0) cand_.push_back(extra);
    std::sort(cand_.begin(), cand_.end());
    const int ch = pick_hook_(cand_);
    if (ch < 0) return -1;
    for (const int c : cand_) {
      if (c == ch) return ch;
    }
    return -1;
  }

  /// Re-evaluates the predicates of notified blocked ranks; engaged ones
  /// become Ready at max(their clock, predicate resume time). Predicates
  /// are pure reads of simulation state, so the evaluation order cannot
  /// influence outcomes.
  void promote_dirty() {
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      const int w = dirty_[i];
      RankState& ws = rank(w);
      ws.dirty = false;
      if (ws.status != Status::kBlocked || ws.pred_fn == nullptr) continue;
      if (const auto resume = ws.pred_fn(ws.pred_ctx)) {
        ws.vtime = std::max(ws.vtime, *resume);
        ws.status = Status::kReady;
        remove_waiter(ws.channel, w);
        ws.channel = nullptr;
        ws.pred_fn = nullptr;
        ws.pred_ctx = nullptr;
        heap_.push(ws.vtime, w);
      }
    }
    dirty_.clear();
  }

  void add_waiter(const void* channel, int r) {
    auto& list = waiters_[channel];
    rank(r).waiter_idx = static_cast<int>(list.size());
    list.push_back(r);
  }

  void remove_waiter(const void* channel, int r) {
    auto it = waiters_.find(channel);
    auto& list = it->second;
    const int idx = rank(r).waiter_idx;
    list[static_cast<std::size_t>(idx)] = list.back();
    rank(list.back()).waiter_idx = idx;
    list.pop_back();
    rank(r).waiter_idx = -1;
    if (list.empty()) waiters_.erase(it);
  }

  std::vector<RankState> ranks_;
  std::function<std::string(const void*)> namer_;
  VirtualScheduler::PickHook pick_hook_;
  std::vector<int> cand_;  ///< scratch candidate list for the hook
  ReadyHeap heap_;
  std::unordered_map<const void*, std::vector<int>> waiters_;
  std::vector<int> dirty_;  ///< notified ranks pending re-evaluation
  int n_done_ = 0;

  // Barrier accumulator; barrier_gen_'s address doubles as the channel.
  std::vector<int> barrier_waiters_;
  int barrier_arrived_ = 0;
  double barrier_max_time_ = 0.0;
  std::uint64_t barrier_gen_ = 0;
};

}  // namespace xhc::sim::detail
