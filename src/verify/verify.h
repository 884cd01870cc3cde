// Protocol verifier: machine-checked single-writer flag discipline.
//
// The paper's synchronization claim (§III-E, Fig. 4, Fig. 10) — every control
// flag has exactly one writer, counters are monotone, readers observe a value
// only after its release-store, and flags with distinct writers live on
// distinct cache lines — used to be enforced by comment alone. This ledger
// turns it into a runtime check: every Machine owns one, components register
// their flags (name + writer policy), and while the ledger's switch is on
// (Ledger::set_enabled, default from XHC_VERIFY=0|1) each run puts it in
// front of the machine's event stream (mach/event_sink.h), so it sees every
// flag store and load.
//
// Registration, the layout lint and the direct API (used by tests and
// diagnostics) work whatever the switch says; it gates only whether runs
// report to the ledger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mach/event_sink.h"
#include "mach/flag.h"

namespace xhc::topo {
class Topology;
}  // namespace xhc::topo

namespace xhc::verify {

/// Default of Ledger::enabled(): the XHC_VERIFY environment variable, "1" on
/// and "0" (or unset) off. Throws util::Error on any other value.
bool enabled_from_env();

/// Who may store to a flag.
enum class WriterPolicy : unsigned char {
  /// Exactly one rank ever stores (the default for unregistered flags).
  kFixed,
  /// Leader-elected: ownership follows the root of the operation, so the
  /// writer may change — but only together with a strictly increasing value
  /// (an operation boundary; quiescence is guaranteed by the hierarchical
  /// acknowledgement step).
  kRotating,
  /// Whitelisted multi-writer: the Fig. 4 `atomic_ctr` and the sm/SMHC
  /// baselines' slot counters. The only policy under which RMW is legal;
  /// writer and monotonicity checks are skipped (concurrent fetch-adds reach
  /// the ledger out of order).
  kShared,
};

enum class Kind {
  kSecondWriter,        ///< store by a rank that does not own the flag
  kNonMonotonic,        ///< stored value decreased
  kRmwOnSingleWriter,   ///< fetch_add on a flag not whitelisted as kShared
  kStalePublish,        ///< reader observed a value before its publish time
  kCostlyLayout,        ///< line-model replay predicts excess coherence cost
                        ///< versus a separated-layout baseline (Fig. 10)
};

const char* to_string(Kind k) noexcept;

/// One recorded protocol violation (or whitelisted layout finding).
struct Violation {
  Kind kind = Kind::kSecondWriter;
  const void* flag = nullptr;  ///< address identity of the offending flag
  std::string flag_name;       ///< registered name, or empty
  int rank = -1;               ///< offending rank (store/load side)
  int other_rank = -1;         ///< prior owner / conflicting writer
  std::uint64_t value = 0;     ///< value involved in the violation
  std::uint64_t prior = 0;     ///< prior value (monotonicity) where relevant
  double vtime = 0.0;          ///< virtual time of the offending op (sim)
  double publish_vtime = 0.0;  ///< publish time the reader ran ahead of

  /// Human-readable one-line diagnostic naming rank and flag.
  std::string describe() const;
};

struct Summary {
  std::uint64_t flags_tracked = 0;
  std::uint64_t stores_checked = 0;
  std::uint64_t loads_checked = 0;
  std::uint64_t violations = 0;
  std::uint64_t expected_findings = 0;
};

// Writer / spinner identities for the layout lint.
inline constexpr int kLeader = -1;  ///< the group leader (whoever it is)
inline constexpr int kAny = -2;     ///< any rank may read here; never conflicts
inline constexpr int kNone = -3;    ///< no meaningful identity (kShared flags)

/// One flag's placement as seen by the layout lint.
struct LintItem {
  const void* addr = nullptr;
  int writer = kNone;   ///< slot id, kLeader, or kNone to skip the rule
  int spinner = kAny;   ///< designated spinning reader slot, if any
  const char* field = "";
  bool expect_shared = false;  ///< deliberately packed (Fig. 10 "shared")
};

/// Per-machine flag ledger. All methods are thread-safe (RealMachine reports
/// from concurrent rank threads); SimMachine's single host thread pays one
/// uncontended lock per op while the switch is on.
class Ledger final : public mach::EventSink {
 public:
  /// Sentinel for hooks called without a virtual clock (RealMachine).
  static constexpr double kNoTime = mach::kNoTime;

  /// Whether runs report their flag events to this ledger. Read at the
  /// start of each run; set only outside parallel regions.
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Declares a flag's name and writer policy. Idempotent; re-registering
  /// (e.g. a rebuilt component on a reused address) resets the record.
  void register_flag(const mach::Flag* f, std::string name,
                     WriterPolicy policy = WriterPolicy::kFixed);

  // --- store side ----------------------------------------------------------
  /// Checks writer uniqueness + monotonicity for a plain release-store and,
  /// when `vtime` is a real timestamp, records the publish history used by
  /// the read-side cross-check.
  void on_store(const mach::Flag* f, int rank, std::uint64_t value,
                double vtime = kNoTime);
  /// Same for an RMW (`result` is the post-op value). RMW is a violation on
  /// any flag not whitelisted as WriterPolicy::kShared.
  void on_rmw(const mach::Flag* f, int rank, std::uint64_t result,
              double vtime = kNoTime);

  /// Event sink: stores and RMWs go to on_store / on_rmw; reads and wait
  /// ends carrying a virtual time (SimMachine) go to on_observe /
  /// on_wait_resume.
  void on_event(const mach::Event& e) override;

  // --- read side (SimMachine only) -----------------------------------------
  /// A read returned `observed` at virtual time `vtime`: verifies the value
  /// was published at or before that time (publish ordering).
  void on_observe(const mach::Flag* f, int rank, std::uint64_t observed,
                  double vtime);
  /// A wait-for-`threshold` resumed at `vtime`: verifies a satisfying
  /// publish existed by then.
  void on_wait_resume(const mach::Flag* f, int rank, std::uint64_t threshold,
                      double vtime);

  /// Drops every record in [base, base+bytes) — call on Machine::free so a
  /// reused address starts with a clean ledger.
  void forget_range(const void* base, std::size_t bytes);

  /// Records a finding produced by the predictive layout lint
  /// (verify::lint_layout's line-model replay). `expected` findings
  /// are whitelisted (Fig. 10 deliberately packed layouts); the rest count
  /// as violations and honor abort-on-violation.
  void report_layout(Violation v, bool expected);

  /// When true (default), the first violation throws util::Error with the
  /// diagnostic; when false, violations are only recorded (used by the
  /// negative tests to collect several).
  void set_abort_on_violation(bool abort_on_violation);

  std::vector<Violation> violations() const;
  std::vector<Violation> expected_findings() const;
  Summary summary() const;

  /// Registered name of the flag at `addr` (the greatest record at or below
  /// it — flags are registered by base address), or "" when untracked. Used
  /// by the watchdog / deadlock reports to name blocked channels.
  std::string flag_name(const void* addr) const;
  /// Every registered name, in address order.
  std::vector<std::string> flag_names() const;
  /// Registered writer policy of the flag covering `addr` (same lookup as
  /// flag_name), or std::nullopt when untracked. The static schedule
  /// analyzer (src/check/) pairs each modeled flag with its declared
  /// discipline through this.
  std::optional<WriterPolicy> flag_policy(const void* addr) const;
  /// One-line dump of the record covering `addr` (name, writer, last value)
  /// for stall diagnostics; "" when untracked.
  std::string flag_snapshot(const void* addr) const;

  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

 private:
  struct Record {
    std::string name;
    WriterPolicy policy = WriterPolicy::kFixed;
    int writer = kNone;          ///< owning rank once first stored
    std::uint64_t last_value = 0;
    bool stored = false;
    // Publish history (value, vtime), appended by timed stores; window kept
    // at least as wide as SimMachine::FlagHist's so the cross-check never
    // knows less than the model.
    std::vector<std::pair<std::uint64_t, double>> hist;
    std::uint64_t floor_value = 0;
    double floor_time = 0.0;
  };

  Record& touch(const mach::Flag* f);  // requires mu_ held
  void check_store(Record& rec, const mach::Flag* f, int rank,
                   std::uint64_t value, double vtime, bool is_rmw);
  /// Earliest publish time of `value`; negative when unknown-but-legal
  /// (pruned window), throws-by-report when never published.
  void check_published(Record& rec, const mach::Flag* f, int rank,
                       std::uint64_t value, double vtime, bool exact);
  void report(Violation v);  // requires mu_ held; may throw

  mutable std::mutex mu_;
  std::map<const void*, Record> records_;  // ordered: forget_range scans
  std::vector<Violation> violations_;
  std::vector<Violation> expected_;
  std::uint64_t stores_ = 0;
  std::uint64_t loads_ = 0;
  bool abort_ = true;
  bool enabled_ = enabled_from_env();
};

/// Predictive layout lint over one control block's flags (verify/layout.cpp;
/// core::CtlArena builds the items from its field lists): every cache line
/// holding more than one item is replayed through the node's line model
/// against a synthetic separated-layout baseline, and a layout whose
/// predicted HITM-class services + ownership transfers exceed the baseline
/// is reported under `prefix` as Kind::kCostlyLayout — an expected finding
/// when every flag on the line is `expect_shared` (the Fig. 10
/// `announce_shared` array), a violation otherwise.
void lint_layout(Ledger& ledger, const topo::Topology& topo,
                 const std::vector<LintItem>& items, const std::string& prefix);

}  // namespace xhc::verify
