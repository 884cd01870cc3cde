// Schedule recording: the flag protocol and payload accesses of real
// collectives, captured from one execution on the simulated machine.
//
// record_schedule() runs a sequence of collectives once on a SimMachine
// with an event sink attached and keeps, per rank in program order,
// every flag publish, blocking wait (with its threshold) and RMW (with its
// delta), and every payload read and write resolved to a machine allocation
// and a byte range. The analyzer (analyzer.h) proves properties about the
// result and the interpreter (interp.h) replays its flag events.
//
// One execution describes all of them because core/ never branches on a
// flag value: the collectives only release-store, fetch-add and block on
// thresholds, never flag_read. Each rank's event stream is then a function
// of the program alone, not of the interleaving that produced it. The
// recorder enforces that invariant and its own coverage: a flag_read inside
// a recorded op, or a payload access outside every machine allocation,
// makes record_schedule throw instead of returning a schedule with a blind
// spot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mach/flag.h"

namespace xhc::coll {
class Component;
}
namespace xhc::sim {
class SimMachine;
}

namespace xhc::check {

enum class Op { kBcast, kAllreduce, kReduce, kBarrier };
const char* to_string(Op op) noexcept;

/// One collective call of a recorded sequence. Reductions are i64 sums, so
/// `bytes` must be a positive multiple of 8 (bcast: positive); barrier
/// ignores `bytes`; allreduce and barrier ignore `root`.
struct OpCall {
  Op op = Op::kBcast;
  std::size_t bytes = 0;
  int root = 0;
};
/// "bcast/512/r0", "allreduce/32768", "barrier".
std::string to_string(const OpCall& call);

enum class EvKind : unsigned char { kPublish, kWait, kRmw, kRead, kWrite };

/// One protocol event of one rank: a flag operation or a payload access.
struct Event {
  EvKind kind = EvKind::kPublish;
  int op = 0;  ///< index into Schedule::ops
  /// Flag events: the flag, and the published value / wait threshold /
  /// RMW delta.
  const mach::Flag* flag = nullptr;
  std::uint64_t value = 0;
  /// Payload events: bytes [lo, hi) of allocation `block`.
  int block = -1;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  /// Position in the recorded execution (all ranks, one counter).
  std::uint64_t seq = 0;

  bool is_flag() const noexcept {
    return kind == EvKind::kPublish || kind == EvKind::kWait ||
           kind == EvKind::kRmw;
  }
};

struct Schedule {
  std::vector<OpCall> ops;
  int n_ranks = 0;
  /// Owner rank of every machine allocation a recorded access touched,
  /// numbered in order of first access so reports carry no host address.
  std::vector<int> block_owner;
  /// Program-order event stream of every rank.
  std::vector<std::vector<Event>> per_rank;
};

/// Runs `ops` back to back in one machine run with `comp` and records them.
/// Every rank gets its own payload buffers, rewrites them before each op
/// (so a peer still touching them from the previous op shows as a race) and
/// reads its result back after each op. Throws util::Error when the run
/// deadlocks, a result is wrong (bcast bytes, i64 sums), a flag_read
/// happens inside an op, or a payload access falls outside every machine
/// allocation. `comp` must drive `machine`.
Schedule record_schedule(sim::SimMachine& machine, coll::Component& comp,
                         const std::vector<OpCall>& ops);

/// The steady-state sequence: nine back-to-back ops of `bytes` over every
/// op class, with rotating roots (bcast 0, bcast n-1, allreduce, reduce
/// n/2, barrier, bcast 1, allreduce, reduce 0, bcast n/2).
std::vector<OpCall> steady_state_ops(int n_ranks, std::size_t bytes);

/// A reduce at every root in turn (0, 1, ..., n-1), each followed by one op
/// of another class, in rotation an allreduce, a barrier and a bcast at the
/// reduce's root, all of `bytes`: the reduce's return points at every root,
/// against every class of op that can follow them.
std::vector<OpCall> rotating_root_ops(int n_ranks, std::size_t bytes);

/// A bcast at every root in turn (0, 1, ..., n-1), all of `bytes`: where
/// consecutive roots lead different domains, a rank that pulled from one
/// root becomes a relaying leader's child in the next op, and the other way
/// round.
std::vector<OpCall> rotating_bcast_ops(int n_ranks, std::size_t bytes);

/// `ops` with every other op (barriers aside) resized to `alt_bytes`, so
/// consecutive ops of a sequence straddle a size-class threshold and switch
/// protocols between them.
std::vector<OpCall> straddling_ops(std::vector<OpCall> ops,
                                   std::size_t alt_bytes);

}  // namespace xhc::check
