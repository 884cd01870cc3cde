// Deterministic fault injection (DESIGN.md § Fault injection & degradation).
//
// A fault plan is a seed plus a list of clauses parsed from a compact spec
// string (`Tuning::faults`, `--fault=` in the benches). Each clause names a
// fault kind — failed XPMEM attach/expose, forced registration-cache miss,
// shm segment allocation failure, straggler stall, delayed/dropped flag
// publication — with optional filters (rank, owner, hierarchy level) and
// firing discipline (skip the first `after` opportunities, fire at most
// `count` times, fire with probability `prob`).
//
// Decisions are drawn from per-rank SplitMix64 streams seeded from
// (seed, rank) only, so a rank's fault schedule is a pure function of the
// plan — independent of host thread interleaving. On SimMachine the injected
// stalls advance virtual time, so chaos runs are bit-reproducible; on
// RealMachine they are real sleeps. With no plan configured components hold
// a null Injector pointer and every injection site is a single pointer test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mach/machine.h"
#include "util/cacheline.h"
#include "util/prng.h"

namespace xhc::fault {

/// What a clause injects. Keep to_string / parse in fault.cpp in sync.
enum class Kind : unsigned char {
  kAttach,     ///< xpmem_attach fails; endpoint degrades the owner's path
  kExpose,     ///< xpmem_make fails; owner retries (bounded) then proceeds
  kRegMiss,    ///< registration-cache lookup forced to miss
  kShm,        ///< shared-segment allocation fails (CICO pool, shm rings)
  kStraggler,  ///< extra latency at an operation/chunk boundary
  kFlagDelay,  ///< flag publication delayed by `delay` seconds
  kFlagDrop,   ///< flag publication silently dropped
};

const char* to_string(Kind k) noexcept;

/// One fault rule. Defaults mean "every opportunity, every rank".
struct Clause {
  Kind kind = Kind::kStraggler;
  int rank = -1;    ///< only this rank (-1: any)
  int owner = -1;   ///< attach/regmiss: only this peer's buffers (-1: any)
  int level = -1;   ///< straggler: only this hierarchy level (-1: any);
                    ///< shard stage inside the RS+AG allreduce, flag-tree
                    ///< level elsewhere (DESIGN.md § Large-message paths)
  int comm = -1;    ///< only the communicator with this id (-1: any) —
                    ///< matched against the injector's comm id so chaos
                    ///< runs can target one tenant (Tuning::comm_id)
  std::uint64_t after = 0;  ///< skip the first `after` opportunities per rank
  std::uint64_t count = std::numeric_limits<std::uint64_t>::max();
                            ///< fire at most `count` times per rank
  double prob = 1.0;        ///< firing probability per opportunity
  double delay = 0.0;       ///< straggler / flagdelay: seconds
  int chain = 1;            ///< attach: degradation depth (1: next mechanism,
                            ///< 2: straight to CICO bounce)
};

/// A parsed fault plan. Spec grammar: clauses separated by ';', fields by
/// ','; the first field is the kind, the rest are key=value pairs, e.g.
///   "attach,rank=1,count=1;straggler,delay=1e-4,prob=0.25,level=0"
struct Plan {
  std::vector<Clause> clauses;

  /// Throws util::Error on unknown kinds/keys, malformed numbers, or
  /// out-of-range values. An empty/blank spec parses to an empty plan.
  static Plan parse(std::string_view spec);
  /// Canonical spec string: parse(to_string()) round-trips.
  std::string to_string() const;
  bool empty() const noexcept { return clauses.empty(); }
};

/// Decision for one flag publication.
struct FlagAction {
  bool drop = false;
  double delay = 0.0;
};

/// Draws fault decisions for every rank of one component. Query methods are
/// called from the owning rank's thread only (per-rank padded rows, no
/// atomics); construction and shm queries happen on the constructing thread
/// before the parallel region.
class Injector {
 public:
  /// `comm_id` identifies the owning communicator for `comm=` clause
  /// filters: a clause with comm>=0 fires only when comm == comm_id (and
  /// consumes no rng while filtered out, so decision streams match a plan
  /// without the clause). The default -1 (single-communicator components)
  /// matches only unfiltered clauses.
  Injector(Plan plan, std::uint64_t seed, int n_ranks, int comm_id = -1);

  /// 0: attach succeeds. 1: fail, degrade the owner to the next mechanism.
  /// 2: fail, degrade the owner straight to the CICO bounce path.
  int attach_failure_depth(int rank, int owner);
  bool expose_fails(int rank);
  bool force_reg_miss(int rank, int owner);
  /// One shm allocation attempt by `owner` fails.
  bool shm_alloc_fails(int owner);
  /// Extra seconds to stall at a (rank, level) opportunity; 0 = none.
  double straggler_delay(int rank, int level);
  FlagAction on_publish(int rank);

  const Plan& plan() const noexcept { return plan_; }
  std::uint64_t seed() const noexcept { return seed_; }
  int n_ranks() const noexcept { return static_cast<int>(rows_.size()); }
  int comm_id() const noexcept { return comm_id_; }

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

 private:
  struct ClauseState {
    std::uint64_t seen = 0;   ///< opportunities offered (post-filter)
    std::uint64_t fired = 0;  ///< faults actually injected
  };
  /// One rank's decision stream + per-clause counters; padded so rank
  /// threads never share a line.
  struct alignas(util::kCacheLine) Row {
    explicit Row(std::uint64_t s) : rng(s) {}
    util::SplitMix64 rng;
    std::vector<ClauseState> st;
  };

  /// Offers clause `ci` one opportunity on `row`; true when it fires.
  bool decide(Row& row, std::size_t ci);

  Plan plan_;
  std::uint64_t seed_;
  int comm_id_;
  std::vector<Row> rows_;
};

/// Injector from a tuning spec; null when the spec is empty (components keep
/// a null pointer and every fault site stays a single branch).
std::unique_ptr<Injector> make_injector(const std::string& spec,
                                        std::uint64_t seed, int n_ranks,
                                        int comm_id = -1);

/// Allocates `bytes` owned by `owner`, retrying up to `max_attempts` times
/// when the injector fails the attempt (modeling transient shm exhaustion).
/// Returns nullptr when every attempt failed — the caller degrades (smaller
/// segment) or raises a named error. `*retries` (optional) accumulates the
/// number of failed attempts.
void* alloc_with_retry(mach::Machine& machine, Injector* injector, int owner,
                       std::size_t bytes, bool zero = true,
                       int max_attempts = 3, std::uint64_t* retries = nullptr);

}  // namespace xhc::fault
