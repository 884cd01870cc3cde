// Congestion ledger: bandwidth-shared resources (paper §III-A, Fig. 1b).
//
// Every bulk transfer books the resources along its path (source LLC port or
// NUMA memory channel, socket fabric, inter-socket link, SLC). A transfer's
// effective bandwidth is the minimum fair share across its resources at its
// start time: cap / (1 + transfers already in flight). Fan-in and fan-out
// pile-ups emerge from the ledger rather than being modeled explicitly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace xhc::sim {

/// Kinds of bandwidth resources in the node model.
enum class ResKind : std::uint8_t {
  kLlcPort,       ///< per-LLC-group read port (index = llc id)
  kNumaChannel,   ///< per-NUMA memory channel (index = numa id)
  kSocketFabric,  ///< per-socket mesh (index = socket id)
  kXSocketLink,   ///< inter-socket link (index = 0)
  kSlc,           ///< system-level cache aggregate (index = 0)
};

struct ResId {
  ResKind kind;
  int index;
};

/// Tracks in-flight transfers per resource and computes fair shares.
/// Deterministic as long as bookings arrive in non-decreasing start time —
/// which the virtual-time scheduler guarantees.
class ResourceLedger {
 public:
  /// Capacity (bytes/s) of `res`; must be set before use.
  void set_capacity(ResId res, double bytes_per_sec);

  /// Fair bandwidth share `cap / (1 + active)` for a transfer starting at
  /// `t` on `res`. Transfers whose end time is <= t are expired first.
  double share(ResId res, double t);

  /// Registers a transfer occupying `res` during [t_start, t_end).
  void book(ResId res, double t_start, double t_end);

  /// Number of in-flight transfers on `res` at time `t` (test hook).
  int active(ResId res, double t);

 private:
  struct State {
    double capacity = 0.0;
    // End times of in-flight transfers; kept sorted ascending.
    std::vector<double> ends;
  };
  State& state(ResId res);
  static void expire(State& s, double t);

  /// One vector per kind, indexed by resource index.
  std::array<std::vector<State>, static_cast<std::size_t>(ResKind::kSlc) + 1>
      states_;
};

}  // namespace xhc::sim
