#include "verify/verify.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/coh_stats.h"
#include "sim/line_model.h"
#include "sim/params.h"
#include "topo/topology.h"
#include "util/cacheline.h"

namespace xhc::verify {

namespace {

/// Rounds of the modeled publish/spin protocol replayed per shared line.
/// One round is enough to expose writer alternation and spinner fan-out;
/// extra rounds amortize the cold first fetch so the packed-vs-separated
/// comparison reflects steady state.
constexpr int kReplayRounds = 3;

/// Deterministic core standing in for a lint identity. The exact placement
/// is immaterial — the lint only needs distinct identities to land on
/// distinct cores so the line model sees the protocol's sharing pattern.
int core_of_identity(int who, int n_cores) {
  if (who == kLeader) return 0;
  if (who >= 0) return (1 + who) % n_cores;
  return n_cores - 1;  // kAny: one representative remote reader
}

struct ReplayCost {
  std::uint64_t hitm_class = 0;  ///< dirty-owner services + spin re-fetches
  std::uint64_t transfers = 0;   ///< exclusive-ownership migrations
  std::uint64_t total() const noexcept { return hitm_class + transfers; }
};

/// Replays kReplayRounds of the protocol implied by the lint identities —
/// each flag published by its writer, every spinner whose watched line the
/// store touched re-fetching — through a private line model, and returns
/// the modeled coherence cost. `separated` substitutes one synthetic cache
/// line per flag (the CachePadded counter-factual baseline).
ReplayCost replay(const topo::Topology& topo, const sim::SimParams& params,
                  const std::vector<const LintItem*>& items, bool separated) {
  sim::LineModel lm(&topo, &params);
  sim::CohStats st;
  st.set_enabled(true);
  lm.set_stats(&st);
  const int n_cores = topo.n_cores();

  std::vector<const void*> addr(items.size());
  for (std::size_t k = 0; k < items.size(); ++k) {
    addr[k] = separated
                  ? reinterpret_cast<const void*>(
                        (k + 1) * 2 * static_cast<std::uintptr_t>(
                                          util::kCacheLine))
                  : items[k]->addr;
  }

  double t = 0.0;
  for (int round = 0; round < kReplayRounds; ++round) {
    for (std::size_t k = 0; k < items.size(); ++k) {
      // One publish of flag k. kNone identities are the whitelisted
      // multi-writer counters (Fig. 4): modeled as two contending RMWs.
      if (items[k]->writer == kNone) {
        t = lm.rmw(addr[k], 0, t);
        t = lm.rmw(addr[k], 1 % n_cores, t);
      } else {
        t = lm.write(addr[k], core_of_identity(items[k]->writer, n_cores), t);
      }
      // Every spinner whose watched line the store just invalidated
      // re-fetches. One fetch per distinct reader core serves every flag
      // on that line.
      std::set<int> readers;
      const std::uintptr_t line = util::line_of(addr[k]);
      for (std::size_t j = 0; j < items.size(); ++j) {
        if (util::line_of(addr[j]) != line) continue;
        const int rc = core_of_identity(items[j]->spinner, n_cores);
        if (readers.insert(rc).second) t = lm.read(addr[j], rc, t);
      }
    }
  }

  ReplayCost c;
  c.hitm_class = st.total(sim::CohEvent::kHitm) +
                 st.total(sim::CohEvent::kSpinRefetch);
  c.transfers = st.total(sim::CohEvent::kOwnershipTransfer);
  return c;
}

}  // namespace

void lint_layout(Ledger& ledger, const topo::Topology& topo,
                 const std::vector<LintItem>& items,
                 const std::string& prefix) {
  const sim::SimParams params = sim::params_for(topo);
  std::map<std::uintptr_t, std::vector<const LintItem*>> by_line;
  for (const LintItem& item : items) {
    by_line[util::line_of(item.addr)].push_back(&item);
  }
  for (const auto& [line, on_line] : by_line) {
    (void)line;
    if (on_line.size() < 2) continue;
    const ReplayCost packed = replay(topo, params, on_line, false);
    const ReplayCost sep = replay(topo, params, on_line, true);
    if (packed.total() <= sep.total()) continue;

    bool all_expected = true;
    std::set<std::string> fields;
    for (const LintItem* item : on_line) {
      all_expected = all_expected && item->expect_shared;
      fields.insert(item->field);
    }
    std::string field_list;
    for (const std::string& f : fields) {
      if (!field_list.empty()) field_list += ", ";
      field_list += "'" + f + "'";
    }

    Violation v;
    v.kind = Kind::kCostlyLayout;
    v.flag = on_line.front()->addr;
    v.value = packed.total();
    v.prior = sep.total();
    v.flag_name =
        prefix + ": " + std::to_string(on_line.size()) + " flags (" +
        field_list + ") packed on one cache line; line-model replay predicts " +
        std::to_string(packed.hitm_class) + " HITM-class services + " +
        std::to_string(packed.transfers) + " ownership transfers vs " +
        std::to_string(sep.total()) + " for a separated layout over " +
        std::to_string(kReplayRounds) + " rounds (false sharing, paper "
        "Fig. 10)";
    ledger.report_layout(std::move(v), all_expected);
  }
}

}  // namespace xhc::verify
