// Execution machine abstraction.
//
// Every collective algorithm in this repository is written once, against the
// pure-abstract per-rank context `Ctx`. Two machines implement it:
//
//   * RealMachine — one host thread per rank sharing the address space
//     (the threads-as-processes substitution for XPMEM-attached MPI ranks);
//     operations execute natively, `now()` is wall-clock time.
//   * SimMachine  — the same thread-per-rank execution, but under a
//     deterministic virtual-time scheduler with a node cost model
//     (topology-priced copies, cache-line service, congestion). Data
//     operations move real bytes, so correctness is checked in simulation
//     too — unless a caller that reads no payload switches the machine to
//     its timing-only data plane (Machine::set_timing_only).
//
// See DESIGN.md §3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "mach/flag.h"
#include "mach/reduce_kernels.h"
#include "obs/hist.h"
#include "topo/mapping.h"
#include "topo/topology.h"
#include "verify/verify.h"

namespace xhc::obs {
struct CohReport;  // obs/coh.h
class Metrics;     // obs/metrics.h
class TimeSeries;  // obs/timeseries.h
}  // namespace xhc::obs

namespace xhc::mach {

/// Per-rank execution context. Passed by reference into the function a
/// Machine runs on every rank; never retained beyond the run.
class Ctx {
 public:
  virtual ~Ctx() = default;

  virtual int rank() const noexcept = 0;
  virtual int size() const noexcept = 0;
  /// Physical core hosting this rank.
  virtual int core() const noexcept = 0;

  /// Seconds since the start of the current run (virtual or wall time).
  virtual double now() = 0;

  /// Charges modeled overhead (syscalls, library constants, application
  /// compute). No-op on the real machine.
  virtual void charge(double seconds) = 0;

  /// Makes this rank actually lose `seconds` relative to its peers (fault
  /// injection: stragglers). On the simulator this is virtual-time advance —
  /// identical to charge() and fully deterministic; the real machine
  /// overrides it to sleep, so the loss is observable in wall time.
  virtual void stall(double seconds) { charge(seconds); }

  /// Copies `n` bytes. Both machines move the bytes (the simulator not in
  /// its timing-only data plane); the simulator also prices the transfer
  /// from the buffers' homes, cache residency and current congestion.
  virtual void copy(void* dst, const void* src, std::size_t n) = 0;

  /// dst[i] = op(dst[i], src[i]); priced like a read of src plus a
  /// read-modify-write of dst.
  virtual void reduce(void* dst, const void* src, std::size_t count,
                      DType dtype, ROp op) = 0;

  /// Fills `dst` with a deterministic pattern and marks the buffer as newly
  /// produced (invalidates cached copies in the simulator). The `_mb`
  /// microbenchmark variants call this before every iteration (paper §V-A).
  virtual void write_payload(void* dst, std::size_t n, std::uint64_t seed) = 0;

  // --- single-writer flags -------------------------------------------------
  virtual void flag_store(Flag& f, std::uint64_t v) = 0;
  virtual std::uint64_t flag_read(const Flag& f) = 0;
  /// Blocks until `f >= v`.
  virtual void flag_wait_ge(const Flag& f, std::uint64_t v) = 0;
  /// Atomic RMW — used only by atomics-based baselines (Fig. 4).
  virtual std::uint64_t fetch_add(Flag& f, std::uint64_t delta) = 0;

  /// Full-communicator barrier (harness use only; the collective algorithms
  /// themselves synchronize exclusively through flags).
  virtual void barrier() = 0;

  /// Cumulative flag-wait progress cost since the start of the run: spin ×
  /// yield iterations on RealMachine, blocking suspensions on SimMachine.
  /// The observability layer differences this around waits; only this
  /// rank's thread may read it mid-run.
  std::uint64_t wait_spins() const noexcept { return wait_spins_; }

  Ctx() = default;
  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

 protected:
  std::uint64_t wait_spins_ = 0;  ///< bumped by machine wait loops
};

/// Result of one parallel region.
struct RunResult {
  std::vector<double> rank_time;  ///< per-rank elapsed seconds
  double max_time = 0.0;          ///< completion time of the slowest rank
};

/// Registry of shared allocations. Both machines use it to answer "which
/// rank owns the buffer containing this address" (the simulator derives the
/// buffer's NUMA home and cache residency from it).
class AllocRegistry {
 public:
  struct Block {
    std::byte* base = nullptr;
    std::size_t bytes = 0;
    int owner_rank = 0;
    std::uint64_t id = 0;  ///< dense id, stable for the block's lifetime
  };

  /// Registers [p, p+bytes). Returns the block id.
  std::uint64_t insert(void* p, std::size_t bytes, int owner_rank);
  void erase(void* p);
  /// Block containing `p`, or nullptr.
  const Block* find(const void* p) const;

 private:
  std::map<const void*, Block> blocks_;  // keyed by base address
  std::uint64_t next_id_ = 1;
  mutable std::mutex mu_;
};

/// A machine executes parallel regions over a fixed rank map.
class Machine {
 public:
  virtual ~Machine() = default;

  virtual const topo::Topology& topology() const noexcept = 0;
  virtual const topo::RankMap& map() const noexcept = 0;
  int n_ranks() const noexcept { return map().n_ranks(); }

  /// Allocates `bytes` owned by `owner_rank` (first-touch on that rank's
  /// NUMA node). Alignment is at least one cache line. Valid across runs.
  /// `zero=false` skips the deterministic zero-fill — only for buffers the
  /// caller provably writes in full before any read (e.g. bcast payload
  /// destinations); the sweep harness uses it to avoid touching gigabytes
  /// of pages that are about to be overwritten anyway.
  virtual void* alloc(int owner_rank, std::size_t bytes,
                      std::size_t align = 64, bool zero = true) = 0;
  virtual void free(void* p) = 0;

  /// Runs `fn(ctx)` once per rank, concurrently, and joins.
  virtual RunResult run(const std::function<void(Ctx&)>& fn) = 0;

  /// Protocol-conformance ledger over this machine's flags (single-writer /
  /// monotone / publish-order discipline, see src/verify/verify.h). Always
  /// present so components can register flags and tests can use the direct
  /// API; the per-operation hooks that feed it from flag_store / flag_read
  /// run only while its switch is on (verify::Ledger::set_enabled). Virtual
  /// so facade machines over a rank subset (svc::TenantMachine) can forward
  /// to the parent's ledger — flags allocated through the facade must be
  /// named in the ledger the parent's flag hooks actually consult.
  virtual verify::Ledger& verify_ledger() noexcept { return verify_ledger_; }
  virtual const verify::Ledger& verify_ledger() const noexcept {
    return verify_ledger_;
  }

  /// Attaches per-rank latency histograms for blocking flag waits: both
  /// machines' flag_wait_ge slow paths record the blocked duration into
  /// HistKind::kFlagWait (virtual time on the simulator — deterministic and
  /// charge-free; wall time on the real machine). Null (the default)
  /// disables recording; the fast path then pays one pointer test. Set only
  /// outside parallel regions; the set must outlive the runs using it.
  void set_wait_hist(obs::HistSet* h) noexcept { wait_hist_ = h; }
  obs::HistSet* wait_hist() const noexcept { return wait_hist_; }

  /// Attaches a windowed wait-time series (obs::TimeSeries sized to this
  /// machine's ranks): both machines' flag_wait_ge slow paths additionally
  /// record each blocked duration into series `sid` at the resume
  /// timestamp, tagging *when* synchronization stalls happened — the core
  /// wait-site feed of the service telemetry plane. Same contract as
  /// set_wait_hist: observational only, set outside parallel regions, the
  /// series must outlive the runs using it; null disables.
  void set_wait_series(obs::TimeSeries* s, int sid) noexcept {
    wait_series_ = s;
    wait_series_id_ = sid;
  }
  obs::TimeSeries* wait_series() const noexcept { return wait_series_; }
  int wait_series_id() const noexcept { return wait_series_id_; }

  /// Modeled coherence observatory (overridden by SimMachine; the defaults
  /// keep consumers free of machine downcasts — RealMachine has no modeled
  /// counters). Tracking toggles accounting only, never virtual-time costs.
  virtual void set_coh_tracking(bool /*on*/) {}
  virtual bool coh_tracking() const noexcept { return false; }
  /// Fills `out` with the name-attributed per-line report; returns false
  /// when this machine models no coherence events (report untouched).
  virtual bool coh_report(obs::CohReport* /*out*/) const { return false; }
  /// Adds the per-rank coh_* counter deltas accumulated since the previous
  /// publish into `m`. Delta semantics make repeated publishes (one per
  /// sweep) and obs::Metrics::reset_counters compose without double
  /// counting.
  virtual void publish_coh_counters(obs::Metrics& /*m*/) {}

  /// Timing-only data plane (DESIGN.md § Host data plane). While on, a
  /// machine that honours the switch prices every write_payload, copy and
  /// reduce exactly as before — same virtual time, cache and resource
  /// bookings, access events — but moves no payload bytes, so buffer
  /// contents are unspecified. Legal only while no host code reads payload:
  /// the OSU sweeps turn it on when they do not verify. Returns whether the
  /// machine honours the switch; the default (RealMachine, and every
  /// decorator, which keeps the full data plane by not forwarding it)
  /// returns false and moves bytes. Set only outside parallel regions.
  virtual bool set_timing_only(bool /*on*/) { return false; }
  virtual bool timing_only() const noexcept { return false; }

  Machine() = default;
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

 private:
  verify::Ledger verify_ledger_;
  obs::HistSet* wait_hist_ = nullptr;
  obs::TimeSeries* wait_series_ = nullptr;
  int wait_series_id_ = 0;
};

/// RAII owner for a machine allocation (C++ Core Guidelines R.1).
class Buffer {
 public:
  Buffer() = default;
  Buffer(Machine& m, int owner_rank, std::size_t bytes, bool zero = true)
      : machine_(&m), p_(m.alloc(owner_rank, bytes, 64, zero)), bytes_(bytes) {}
  /// Adopts an allocation already obtained from `m` (e.g. through
  /// fault::alloc_with_retry); the Buffer frees it on destruction.
  Buffer(Machine& m, void* adopted, std::size_t bytes) noexcept
      : machine_(&m), p_(adopted), bytes_(bytes) {}
  ~Buffer() { reset(); }

  Buffer(Buffer&& o) noexcept { *this = std::move(o); }
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      reset();
      machine_ = o.machine_;
      p_ = o.p_;
      bytes_ = o.bytes_;
      o.machine_ = nullptr;
      o.p_ = nullptr;
      o.bytes_ = 0;
    }
    return *this;
  }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  void* get() const noexcept { return p_; }
  std::byte* bytes() const noexcept { return static_cast<std::byte*>(p_); }
  std::size_t size() const noexcept { return bytes_; }

  void reset() noexcept {
    if (machine_ != nullptr && p_ != nullptr) machine_->free(p_);
    machine_ = nullptr;
    p_ = nullptr;
    bytes_ = 0;
  }

 private:
  Machine* machine_ = nullptr;
  void* p_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace xhc::mach
