#include "check/analyzer.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

#include "verify/verify.h"

namespace xhc::check {

const char* to_string(Property p) noexcept {
  switch (p) {
    case Property::kSingleWriter:
      return "single-writer";
    case Property::kMonotonicity:
      return "monotonicity";
    case Property::kUnreachableThreshold:
      return "unreachable-threshold";
    case Property::kWaitCycle:
      return "wait-cycle";
    case Property::kRace:
      return "race";
  }
  return "?";
}

namespace {

const char* kind_name(EvKind k) {
  static constexpr const char* kNames[] = {"publish", "wait", "rmw", "read",
                                           "write"};
  return kNames[static_cast<int>(k)];
}

struct Ref {
  int rank = -1;
  int idx = -1;
};

/// All events touching one flag, in (rank, program-index) order — which is
/// the writer's program order whenever the flag really has one writer.
struct FlagUse {
  std::string name;
  verify::WriterPolicy policy = verify::WriterPolicy::kFixed;
  std::vector<Ref> publishes;
  std::vector<Ref> rmws;
  std::vector<Ref> waits;
};

class Analysis {
 public:
  Analysis(const Schedule& s, const verify::Ledger& ledger)
      : s_(s), ledger_(ledger) {}

  AnalysisReport run() {
    index();
    check_writers();
    check_monotone();
    resolve_satisfiers();
    // A cycle leaves happens-before without an order to clock; the
    // wait-cycle finding already names the deadlock.
    if (check_cycles()) check_races();
    finish();
    return std::move(rep_);
  }

 private:
  int node_id(Ref ref) const {
    return offset_[static_cast<std::size_t>(ref.rank)] + ref.idx;
  }
  Ref ref_of(int node) const {
    const int rank = rank_of_[static_cast<std::size_t>(node)];
    return Ref{rank, node - offset_[static_cast<std::size_t>(rank)]};
  }
  const Event& ev(Ref ref) const {
    return s_.per_rank[static_cast<std::size_t>(ref.rank)]
                      [static_cast<std::size_t>(ref.idx)];
  }
  const Event& ev(int node) const { return ev(ref_of(node)); }

  /// "r3#17 in bcast/512/r0": rank, program index and op of an event.
  std::string where(Ref ref) const {
    return "r" + std::to_string(ref.rank) + "#" + std::to_string(ref.idx) +
           " in " + to_string(s_.ops[static_cast<std::size_t>(ev(ref).op)]);
  }

  void index() {
    const auto n = static_cast<std::size_t>(s_.n_ranks);
    offset_.assign(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
      offset_[r + 1] = offset_[r] + static_cast<int>(s_.per_rank[r].size());
    }
    n_nodes_ = offset_.back();
    rank_of_.resize(static_cast<std::size_t>(n_nodes_));
    last_wait_.assign(static_cast<std::size_t>(n_nodes_), -1);
    for (int r = 0; r < s_.n_ranks; ++r) {
      const auto& stream = s_.per_rank[static_cast<std::size_t>(r)];
      int last_wait = -1;
      for (int i = 0; i < static_cast<int>(stream.size()); ++i) {
        const Event& e = stream[static_cast<std::size_t>(i)];
        const Ref ref{r, i};
        const int node = node_id(ref);
        rank_of_[static_cast<std::size_t>(node)] = r;
        if (!e.is_flag()) {
          ++rep_.n_accesses;
          last_wait_[static_cast<std::size_t>(node)] = last_wait;
          continue;
        }
        FlagUse& fu = flags_[e.flag];
        if (fu.name.empty()) {
          fu.name = ledger_.flag_name(e.flag);
          if (fu.name.empty()) {
            fu.name = "unregistered#" + std::to_string(flags_.size());
          }
          fu.policy = ledger_.flag_policy(e.flag).value_or(
              verify::WriterPolicy::kFixed);
        }
        switch (e.kind) {
          case EvKind::kPublish:
            fu.publishes.push_back(ref);
            break;
          case EvKind::kRmw:
            fu.rmws.push_back(ref);
            break;
          default:
            fu.waits.push_back(ref);
            last_wait = node;
            ++rep_.n_waits;
            break;
        }
        last_wait_[static_cast<std::size_t>(node)] = last_wait;
      }
    }
    rep_.n_events = static_cast<std::size_t>(n_nodes_);
    rep_.n_flags = flags_.size();
  }

  void add(Property p, const std::string& flag, int rank,
           std::string detail) {
    rep_.findings.push_back(Finding{p, flag, rank, std::move(detail)});
  }

  // --- single-writer / RMW discipline --------------------------------------
  void check_writers() {
    for (auto& [flag, fu] : flags_) {
      if (fu.policy == verify::WriterPolicy::kShared) {
        // The whitelisted multi-writer counters: publishes (plain stores)
        // are unexpected but legal per the ledger; nothing to check here.
        continue;
      }
      // Distinct publishing ranks, with publish counts for minority pick.
      std::map<int, int> by_rank;
      for (const Ref ref : fu.publishes) ++by_rank[ref.rank];
      if (by_rank.size() > 1) {
        // Name the minority writer (fewest publishes, then lowest rank):
        // the protocol's real writer publishes the stream, an interloper
        // typically contributes one store.
        int culprit = -1;
        int best = -1;
        std::string all;
        for (const auto& [rank, count] : by_rank) {
          if (culprit < 0 || count < best) {
            culprit = rank;
            best = count;
          }
          if (!all.empty()) all += ",";
          all += std::to_string(rank);
        }
        Ref at;
        for (const Ref ref : fu.publishes) {
          if (ref.rank == culprit) {
            at = ref;
            break;
          }
        }
        add(Property::kSingleWriter, fu.name, culprit,
            "flag published by ranks {" + all + "}, first by r" +
                std::to_string(culprit) + " at " + where(at));
      }
      for (const Ref ref : fu.rmws) {
        add(Property::kSingleWriter, fu.name, ref.rank,
            "RMW on a flag not whitelisted as shared at " + where(ref));
      }
    }
  }

  // --- per-writer monotone publish values ----------------------------------
  void check_monotone() {
    for (auto& [flag, fu] : flags_) {
      std::map<int, std::uint64_t> last;
      for (const Ref ref : fu.publishes) {
        const Event& e = ev(ref);
        auto it = last.find(ref.rank);
        if (it != last.end() && e.value < it->second) {
          add(Property::kMonotonicity, fu.name, ref.rank,
              "publish " + std::to_string(e.value) + " after " +
                  std::to_string(it->second) + " at " + where(ref));
        }
        last[ref.rank] = std::max(it == last.end() ? 0 : it->second, e.value);
      }
    }
  }

  // --- happens-before edges into each wait, and their reachability -------
  void resolve_satisfiers() {
    sats_.assign(static_cast<std::size_t>(n_nodes_), {});
    for (auto& [flag, fu] : flags_) {
      const bool shared = fu.policy == verify::WriterPolicy::kShared;
      // kShared: the sum of the anonymous increments; otherwise the
      // largest published value.
      std::uint64_t reach = 0;
      for (const Ref p : shared ? fu.rmws : fu.publishes) {
        reach = shared ? reach + ev(p).value : std::max(reach, ev(p).value);
      }
      for (const Ref w : fu.waits) {
        const std::uint64_t t = ev(w).value;
        if (t > reach) {
          add(Property::kUnreachableThreshold, fu.name, w.rank,
              "threshold " + std::to_string(t) +
                  (shared ? " exceeds RMW total " + std::to_string(reach)
                          : " above any publish (max " +
                                std::to_string(reach) + ")") +
                  " at " + where(w));
          continue;
        }
        if (t == 0) continue;
        auto& sat = sats_[static_cast<std::size_t>(node_id(w))];
        if (shared) {
          // An increment orders the wait only when the threshold is out of
          // reach without it.
          for (const Ref p : fu.rmws) {
            if (reach - ev(p).value < t) sat.push_back(node_id(p));
          }
          continue;
        }
        for (const Ref p : fu.publishes) {
          if (ev(p).value >= t) {
            sat.push_back(node_id(p));
            break;
          }
        }
      }
    }
  }

  // --- acyclicity of happens-before ----------------------------------------
  /// Returns true when the graph is acyclic; order_ then holds a
  /// topological order of every node.
  bool check_cycles() {
    const auto nn = static_cast<std::size_t>(n_nodes_);
    std::vector<std::vector<int>> adj(nn);
    std::vector<int> deg(nn, 0);
    std::size_t edges = 0;
    const auto link = [&](int from, int to) {
      adj[static_cast<std::size_t>(from)].push_back(to);
      ++deg[static_cast<std::size_t>(to)];
      ++edges;
    };
    for (int v = 0; v < n_nodes_; ++v) {
      const Ref ref = ref_of(v);
      if (ref.idx > 0) link(v - 1, v);
      for (const int p : sats_[static_cast<std::size_t>(v)]) link(p, v);
    }
    rep_.n_edges = edges;

    // Kahn; anything left sits on a cycle.
    order_.clear();
    for (int v = 0; v < n_nodes_; ++v) {
      if (deg[static_cast<std::size_t>(v)] == 0) order_.push_back(v);
    }
    std::size_t done = 0;
    while (done < order_.size()) {
      const int v = order_[done++];
      for (const int to : adj[static_cast<std::size_t>(v)]) {
        if (--deg[static_cast<std::size_t>(to)] == 0) order_.push_back(to);
      }
    }
    if (done == nn) return true;

    // Extract one concrete cycle deterministically: from the smallest
    // remaining node, repeatedly step to its smallest remaining predecessor
    // until a node repeats.
    std::vector<char> left(nn, 1);
    for (const int v : order_) left[static_cast<std::size_t>(v)] = 0;
    std::vector<std::vector<int>> radj(nn);
    for (int v = 0; v < n_nodes_; ++v) {
      if (left[static_cast<std::size_t>(v)] == 0) continue;
      for (const int to : adj[static_cast<std::size_t>(v)]) {
        if (left[static_cast<std::size_t>(to)] != 0) {
          radj[static_cast<std::size_t>(to)].push_back(v);
        }
      }
    }
    int start = 0;
    while (left[static_cast<std::size_t>(start)] == 0) ++start;
    std::vector<int> seen_at(nn, -1);
    std::vector<int> walk;
    int at = start;
    while (seen_at[static_cast<std::size_t>(at)] < 0) {
      seen_at[static_cast<std::size_t>(at)] = static_cast<int>(walk.size());
      walk.push_back(at);
      auto& preds = radj[static_cast<std::size_t>(at)];
      at = *std::min_element(preds.begin(), preds.end());
    }
    std::vector<int> cycle(
        walk.begin() + seen_at[static_cast<std::size_t>(at)], walk.end());
    std::reverse(cycle.begin(), cycle.end());  // happens-before order

    // Anchor the finding at the cycle's first wait.
    Ref anchor = ref_of(cycle.front());
    for (const int v : cycle) {
      if (ev(v).kind == EvKind::kWait) {
        anchor = ref_of(v);
        break;
      }
    }
    std::string desc = "cycle:";
    const std::size_t shown = std::min<std::size_t>(cycle.size(), 12);
    for (std::size_t i = 0; i < shown; ++i) {
      const Ref ref = ref_of(cycle[i]);
      desc += " r" + std::to_string(ref.rank) + "#" +
              std::to_string(ref.idx) + ":" + kind_name(ev(ref).kind);
    }
    if (cycle.size() > shown) {
      desc += " ... (" + std::to_string(cycle.size()) + " nodes)";
    }
    add(Property::kWaitCycle, flags_[ev(anchor).flag].name, anchor.rank,
        desc);
    return false;
  }

  // --- payload races --------------------------------------------------------
  /// The vector clock stored for wait node `wait`, one entry per rank.
  std::uint32_t* clock_row(int wait) {
    const int slot = wait_slot_[static_cast<std::size_t>(wait)];
    return vc_.data() + static_cast<std::size_t>(slot) *
                            static_cast<std::size_t>(s_.n_ranks);
  }

  /// How many of rank q's events happen before or at `node`. A rank's clock
  /// only grows at its waits, so this is the clock of its last wait at or
  /// before `node`.
  std::uint32_t clock(int node, int q) {
    const Ref ref = ref_of(node);
    if (ref.rank == q) return static_cast<std::uint32_t>(ref.idx) + 1;
    const int lw = last_wait_[static_cast<std::size_t>(node)];
    return lw < 0 ? 0 : clock_row(lw)[q];
  }

  bool before(int a, int b) {
    const Ref ra = ref_of(a);
    return clock(b, ra.rank) > static_cast<std::uint32_t>(ra.idx);
  }

  /// "r3#17 in bcast/512/r0 read b5@r0[0,4096)".
  std::string describe(int node) const {
    const Event& e = ev(node);
    return where(ref_of(node)) + " " + kind_name(e.kind) + " b" +
           std::to_string(e.block) + "@r" +
           std::to_string(s_.block_owner[static_cast<std::size_t>(e.block)]) +
           "[" + std::to_string(e.lo) + "," + std::to_string(e.hi) + ")";
  }

  void check_races() {
    const auto n = static_cast<std::size_t>(s_.n_ranks);
    wait_slot_.assign(static_cast<std::size_t>(n_nodes_), -1);
    int n_slots = 0;
    for (int v = 0; v < n_nodes_; ++v) {
      if (ev(v).kind == EvKind::kWait) {
        wait_slot_[static_cast<std::size_t>(v)] = n_slots++;
      }
    }
    vc_.assign(static_cast<std::size_t>(n_slots) * n, 0);
    // Topological order: a wait's predecessors are clocked before it.
    for (const int v : order_) {
      if (ev(v).kind != EvKind::kWait) continue;
      std::uint32_t* c = clock_row(v);
      const auto join = [&](int u) {
        for (std::size_t q = 0; q < n; ++q) {
          c[q] = std::max(c[q], clock(u, static_cast<int>(q)));
        }
      };
      const Ref at = ref_of(v);
      if (at.idx > 0) join(v - 1);
      for (const int u : sats_[static_cast<std::size_t>(v)]) join(u);
      c[static_cast<std::size_t>(at.rank)] =
          static_cast<std::uint32_t>(at.idx) + 1;
    }

    struct Access {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      int node = 0;
    };
    std::vector<std::vector<Access>> by_block(s_.block_owner.size());
    for (int v = 0; v < n_nodes_; ++v) {
      const Event& e = ev(v);
      if (e.is_flag()) continue;
      by_block[static_cast<std::size_t>(e.block)].push_back({e.lo, e.hi, v});
    }
    struct Race {
      std::size_t pairs = 0;
      std::string example;
    };
    std::map<std::pair<int, std::string>, Race> races;
    for (auto& acc : by_block) {
      std::sort(acc.begin(), acc.end(), [](const Access& a, const Access& b) {
        return a.lo != b.lo ? a.lo < b.lo : a.node < b.node;
      });
      for (std::size_t i = 0; i < acc.size(); ++i) {
        for (std::size_t j = i + 1; j < acc.size() && acc[j].lo < acc[i].hi;
             ++j) {
          const int a = acc[i].node;
          const int b = acc[j].node;
          if (rank_of_[static_cast<std::size_t>(a)] ==
              rank_of_[static_cast<std::size_t>(b)]) {
            continue;
          }
          if (ev(a).kind == EvKind::kRead && ev(b).kind == EvKind::kRead) {
            continue;
          }
          ++rep_.n_pairs;
          if (before(a, b) || before(b, a)) continue;
          // Blame the access that came second in the recorded run: the
          // order it relied on there is the one no wait guarantees.
          const bool a_late = ev(a).seq > ev(b).seq;
          const int late = a_late ? a : b;
          const int early = a_late ? b : a;
          const int lw = last_wait_[static_cast<std::size_t>(late)];
          Race& race =
              races[{rank_of_[static_cast<std::size_t>(late)],
                     lw < 0 ? std::string("-") : flags_[ev(lw).flag].name}];
          if (race.pairs++ == 0) {
            race.example =
                describe(late) + " unordered with " + describe(early);
          }
        }
      }
    }
    for (const auto& [key, race] : races) {
      add(Property::kRace, key.second, key.first,
          race.example + "; " + std::to_string(race.pairs) + " racy pair" +
              (race.pairs == 1 ? "" : "s"));
    }
  }

  void finish() {
    rep_.ops = s_.ops;
    rep_.n_ranks = s_.n_ranks;
    std::sort(rep_.findings.begin(), rep_.findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.flag != b.flag) return a.flag < b.flag;
                if (a.property != b.property) return a.property < b.property;
                if (a.rank != b.rank) return a.rank < b.rank;
                return a.detail < b.detail;
              });
    rep_.findings.erase(
        std::unique(rep_.findings.begin(), rep_.findings.end(),
                    [](const Finding& a, const Finding& b) {
                      return a.flag == b.flag && a.property == b.property &&
                             a.rank == b.rank && a.detail == b.detail;
                    }),
        rep_.findings.end());
  }

  const Schedule& s_;
  const verify::Ledger& ledger_;
  AnalysisReport rep_;
  std::vector<int> offset_;
  int n_nodes_ = 0;
  std::vector<int> rank_of_;    ///< per node
  std::vector<int> last_wait_;  ///< per node: last wait at or before it
  std::map<const mach::Flag*, FlagUse> flags_;
  std::vector<std::vector<int>> sats_;  ///< per wait: satisfier nodes
  std::vector<int> order_;              ///< topological order
  std::vector<int> wait_slot_;          ///< per wait: row of vc_
  std::vector<std::uint32_t> vc_;       ///< per wait: n_ranks clocks
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// The op labels joined by `sep`, each wrapped in `quote`.
std::string op_list(const std::vector<OpCall>& ops, const char* sep,
                    const char* quote) {
  std::string out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i != 0) out += sep;
    out += quote + to_string(ops[i]) + quote;
  }
  return out;
}

}  // namespace

std::string AnalysisReport::text() const {
  std::ostringstream os;
  os << "schedule-analysis ops=" << op_list(ops, ",", "")
     << " ranks=" << n_ranks << "\n";
  os << "events=" << n_events << " flags=" << n_flags << " waits=" << n_waits
     << " edges=" << n_edges << " accesses=" << n_accesses
     << " pairs=" << n_pairs << "\n";
  if (findings.empty()) {
    os << "result: CLEAN\n";
  } else {
    os << "result: " << findings.size() << " finding"
       << (findings.size() == 1 ? "" : "s") << "\n";
    for (const Finding& f : findings) {
      os << "finding property=" << check::to_string(f.property)
         << " flag=" << f.flag << " rank=" << f.rank << " detail=" << f.detail
         << "\n";
    }
  }
  return os.str();
}

std::string AnalysisReport::json() const {
  std::ostringstream os;
  os << "{\"ops\":[" << op_list(ops, ",", "\"") << "],\"ranks\":" << n_ranks
     << ",\"events\":" << n_events << ",\"flags\":" << n_flags
     << ",\"waits\":" << n_waits << ",\"edges\":" << n_edges
     << ",\"accesses\":" << n_accesses << ",\"pairs\":" << n_pairs
     << ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) os << ",";
    os << "{\"property\":\"" << check::to_string(f.property)
       << "\",\"flag\":\"" << json_escape(f.flag) << "\",\"rank\":" << f.rank
       << ",\"detail\":\"" << json_escape(f.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

AnalysisReport analyze(const Schedule& s, const verify::Ledger& ledger) {
  return Analysis(s, ledger).run();
}

}  // namespace xhc::check
