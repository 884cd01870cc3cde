#include "obs/critpath.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <ostream>

namespace xhc::obs {

namespace {

bool is_cat(const Span& s, const char* cat) noexcept {
  return s.cat != nullptr && std::strcmp(s.cat, cat) == 0;
}

std::string fmt_us(double seconds) {
  return util::Table::fmt_double(seconds * 1e6, 3);
}

/// Chain rendered compactly: "r5<-r1<-r0" (bound rank first).
std::string chain_string(const OpReport& op) {
  std::string out = "r" + std::to_string(op.bound_rank);
  int hops = 0;
  for (const ChainStep& step : op.chain) {
    if (step.peer < 0) break;
    if (++hops > 8) {
      out += "<-...";
      break;
    }
    out += "<-r" + std::to_string(step.peer);
  }
  return out;
}

}  // namespace

std::vector<OpReport> analyze_critical_paths(
    const std::vector<std::vector<Span>>& spans) {
  const int n = static_cast<int>(spans.size());
  std::vector<std::vector<std::size_t>> colls(static_cast<std::size_t>(n));
  std::size_t n_ops = std::numeric_limits<std::size_t>::max();
  bool any = false;
  for (int r = 0; r < n; ++r) {
    for (std::size_t i = 0; i < spans[r].size(); ++i) {
      if (is_cat(spans[r][i], "collective")) colls[r].push_back(i);
    }
    if (!colls[r].empty()) {
      any = true;
      n_ops = std::min(n_ops, colls[r].size());
    }
  }
  if (!any) return {};

  std::vector<OpReport> reports(n_ops);
  for (std::size_t k = 0; k < n_ops; ++k) {
    OpReport& rep = reports[k];
    rep.ranks.resize(static_cast<std::size_t>(n));
    // Wait spans of this op, per rank, in ring (i.e. close-time) order —
    // kept for the blocking-chain walk below.
    std::vector<std::vector<const Span*>> waits(static_cast<std::size_t>(n));

    bool first_rank = true;
    for (int r = 0; r < n; ++r) {
      if (colls[r].empty()) continue;  // non-participant
      // Rings drop oldest spans independently, so ops align from the END:
      // the last collective span of every participant is the same op.
      const std::size_t ci = colls[r].size() - n_ops + k;
      const std::size_t idx = colls[r][ci];
      const Span& c = spans[r][idx];

      const std::size_t lo = ci == 0 ? 0 : colls[r][ci - 1] + 1;
      RankBreakdown& rb = rep.ranks[static_cast<std::size_t>(r)];
      rb.total_s = c.t1 - c.t0;
      for (std::size_t i = lo; i < idx; ++i) {
        const Span& s = spans[r][i];
        // Spans opened before this op (stragglers of a partially-dropped
        // predecessor, inter-op activity) don't belong to it.
        if (s.t0 < c.t0) continue;
        const double dur = s.t1 - s.t0;
        if (is_cat(s, "wait")) {
          rb.wait_s += dur;
          const WaitArg wa = unpack_wait_arg(s.arg);
          LevelWait& lw = rep.levels[wa.level];
          lw.wait_s += dur;
          ++lw.waits;
          waits[static_cast<std::size_t>(r)].push_back(&s);
        } else {
          rep.phases[s.cat] += dur;
        }
      }

      if (first_rank || c.t0 < rep.t_start) rep.t_start = c.t0;
      if (first_rank || c.t1 > rep.t_end) {
        rep.t_end = c.t1;
        rep.bound_rank = r;
        rep.name = c.name != nullptr ? c.name : "?";
        rep.arg = c.arg;
      }
      first_rank = false;
    }

    // Blocking chain: from the latency-bound rank, repeatedly follow the
    // last wait that actually blocked backwards to the rank it waited on.
    // A wait whose flag was already published (an ack loop's tail behind
    // the straggler it just waited out) delayed nobody and is stepped over.
    // Virtual-time ties and unknown peers terminate the walk; a step cap
    // guards against pathological ping-pong.
    int b = rep.bound_rank;
    double cursor = std::numeric_limits<double>::infinity();
    const Span* last_pick = nullptr;
    for (int step = 0; step < 64 && b >= 0 && b < n; ++step) {
      const Span* pick = nullptr;
      for (const Span* w : waits[static_cast<std::size_t>(b)]) {
        if (unpack_wait_arg(w->arg).blocked && w->t1 <= cursor &&
            (pick == nullptr || w->t1 >= pick->t1)) {
          pick = w;
        }
      }
      if (pick == nullptr || pick == last_pick) break;
      const WaitArg wa = unpack_wait_arg(pick->arg);
      rep.chain.push_back({b, pick->name != nullptr ? pick->name : "?",
                           wa.level, wa.peer, pick->t1, pick->t1 - pick->t0});
      if (wa.peer < 0 || wa.peer >= n || wa.peer == b) break;
      cursor = pick->t1;
      last_pick = pick;
      b = wa.peer;
    }
  }
  return reports;
}

std::vector<OpReport> analyze_critical_paths(const Recorder& rec) {
  std::vector<std::vector<Span>> spans;
  for (int r = 0; r < rec.n_ranks(); ++r) spans.push_back(rec.spans(r));
  return analyze_critical_paths(spans);
}

util::Table critpath_table(const std::vector<OpReport>& ops) {
  util::Table t({"Op", "Name", "Bytes", "Lat(us)", "Bound", "Wait%", "Chain"});
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpReport& op = ops[i];
    const RankBreakdown* rb =
        op.bound_rank >= 0 &&
                static_cast<std::size_t>(op.bound_rank) < op.ranks.size()
            ? &op.ranks[static_cast<std::size_t>(op.bound_rank)]
            : nullptr;
    const double wait_pct = rb != nullptr && rb->total_s > 0.0
                                ? 100.0 * rb->wait_s / rb->total_s
                                : 0.0;
    t.add_row({std::to_string(i), op.name,
               util::Table::fmt_bytes(static_cast<std::size_t>(op.arg)),
               fmt_us(op.latency_s()), "r" + std::to_string(op.bound_rank),
               util::Table::fmt_double(wait_pct, 1), chain_string(op)});
  }
  return t;
}

util::Table critpath_chain_table(const OpReport& op) {
  util::Table t({"Rank", "Site", "Level", "Peer", "End(us)", "Wait(us)"});
  for (const ChainStep& step : op.chain) {
    t.add_row({"r" + std::to_string(step.rank), step.site,
               step.level < 0 ? "-" : std::to_string(step.level),
               step.peer < 0 ? "-" : "r" + std::to_string(step.peer),
               fmt_us(step.t_end - op.t_start), fmt_us(step.wait_s)});
  }
  return t;
}

util::Table critpath_level_table(const OpReport& op) {
  util::Table t({"Level", "Waits", "Wait(us)"});
  for (const auto& [level, lw] : op.levels) {
    t.add_row({level < 0 ? "-" : std::to_string(level),
               std::to_string(lw.waits), fmt_us(lw.wait_s)});
  }
  return t;
}

util::Table critpath_phase_table(const OpReport& op) {
  util::Table t({"Phase", "Time(us)"});
  double wait_total = 0.0;
  for (const RankBreakdown& rb : op.ranks) wait_total += rb.wait_s;
  for (const auto& [cat, secs] : op.phases) {
    t.add_row({cat, fmt_us(secs)});
  }
  t.add_row({"wait", fmt_us(wait_total)});
  return t;
}

void write_critpath_report(std::ostream& os,
                           const std::vector<OpReport>& ops) {
  os << "== Critical path: " << ops.size() << " op(s) ==\n";
  if (ops.empty()) return;
  critpath_table(ops).print(os);

  std::size_t slowest = 0;
  for (std::size_t i = 1; i < ops.size(); ++i) {
    if (ops[i].latency_s() > ops[slowest].latency_s()) slowest = i;
  }
  const OpReport& op = ops[slowest];
  os << "-- slowest op: #" << slowest << " " << op.name << " ("
     << util::Table::fmt_bytes(static_cast<std::size_t>(op.arg)) << "B, "
     << fmt_us(op.latency_s()) << " us, bound r" << op.bound_rank << ")\n";
  os << "blocking chain:\n";
  critpath_chain_table(op).print(os);
  os << "wait by level (all ranks):\n";
  critpath_level_table(op).print(os);
  os << "time by phase (all ranks):\n";
  critpath_phase_table(op).print(os);

  // The ranks that blocked longest — the first places to look for skew.
  std::vector<int> order;
  for (std::size_t r = 0; r < op.ranks.size(); ++r) {
    if (op.ranks[r].total_s > 0.0) order.push_back(static_cast<int>(r));
  }
  std::sort(order.begin(), order.end(), [&op](int a, int b) {
    const double wa = op.ranks[static_cast<std::size_t>(a)].wait_s;
    const double wb = op.ranks[static_cast<std::size_t>(b)].wait_s;
    if (wa != wb) return wa > wb;
    return a < b;
  });
  if (order.size() > 5) order.resize(5);
  os << "top waiting ranks:\n";
  util::Table t({"Rank", "Total(us)", "Self(us)", "Wait(us)"});
  for (int r : order) {
    const RankBreakdown& rb = op.ranks[static_cast<std::size_t>(r)];
    t.add_row({"r" + std::to_string(r), fmt_us(rb.total_s),
               fmt_us(rb.self_s()), fmt_us(rb.wait_s)});
  }
  t.print(os);
}

}  // namespace xhc::obs
