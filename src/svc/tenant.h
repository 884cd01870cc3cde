// Tenant facade: a mach::Machine view over a rank subset of a parent
// machine (DESIGN.md § Multi-tenant service).
//
// The collective components are written against Machine (topology, rank
// map, allocation, ledger) + per-rank Ctx. A TenantMachine re-exports a
// parent machine under a communicator-local rank numbering: rank r of the
// tenant is parent rank ranks[r], mapped to the same physical core, backed
// by the same allocator, cost model and — critically — the same verify
// ledger, so every flag a tenant component registers is named in the ledger
// the parent's runs report to, and concurrent communicators police each
// other's single-writer discipline.
//
// TenantMachine never executes: the service drives the *parent* machine's
// run() and wraps each parent Ctx in a TenantCtx per communicator, which
// renumbers rank()/size() and forwards everything else (time, charges,
// copies, flags) to the parent context. One parent run can therefore carry
// any interleaving of collectives from many communicators at once.
#pragma once

#include <string>
#include <vector>

#include "mach/machine.h"
#include "util/check.h"

namespace xhc::svc {

class TenantMachine final : public mach::Machine {
 public:
  /// `ranks` are parent ranks (deduplicated, sorted by the constructor);
  /// `scope` names the tenant in diagnostics.
  TenantMachine(mach::Machine& parent, std::vector<int> ranks,
                std::string scope);

  const topo::Topology& topology() const noexcept override {
    return parent_->topology();
  }
  const topo::RankMap& map() const noexcept override { return map_; }

  /// Allocation under the tenant's rank numbering: owner is a communicator
  /// rank; placement and registration happen on the owning parent rank.
  void* alloc(int owner_rank, std::size_t bytes, std::size_t align = 64,
              bool zero = true) override {
    return parent_->alloc(parent_rank(owner_rank), bytes, align, zero);
  }
  void free(void* p) override { parent_->free(p); }

  /// Tenants do not execute; the service drives the parent machine's run()
  /// and hands TenantCtx views to the tenant's component. Always throws.
  mach::RunResult run(const std::function<void(mach::Ctx&)>& fn) override;

  /// The parent's ledger: tenant flags must be registered in the ledger the
  /// parent's runs report to.
  verify::Ledger& verify_ledger() noexcept override {
    return parent_->verify_ledger();
  }
  const verify::Ledger& verify_ledger() const noexcept override {
    return parent_->verify_ledger();
  }

  /// Coherence observatory rides on the parent's models.
  void set_coh_tracking(bool on) override { parent_->set_coh_tracking(on); }
  bool coh_tracking() const noexcept override {
    return parent_->coh_tracking();
  }
  bool coh_report(obs::CohReport* out) const override {
    return parent_->coh_report(out);
  }
  void publish_coh_counters(obs::Metrics& m) override {
    parent_->publish_coh_counters(m);
  }

  mach::Machine& parent() const noexcept { return *parent_; }
  const std::string& scope() const noexcept { return scope_; }
  const std::vector<int>& ranks() const noexcept { return ranks_; }

  /// Parent rank hosting communicator rank `local`.
  int parent_rank(int local) const;
  /// Communicator rank of `parent_rank`, or -1 when not a member.
  int local_rank(int parent_rank) const noexcept;

 private:
  mach::Machine* parent_;
  std::vector<int> ranks_;     ///< local rank -> parent rank, sorted
  std::vector<int> local_of_;  ///< parent rank -> local rank or -1
  std::string scope_;
  topo::RankMap map_;          ///< local rank -> the parent rank's core
};

/// Per-rank context view under a tenant's numbering. Constructed on the
/// parent rank's thread inside a parent run; never outlives the request it
/// serves.
class TenantCtx final : public mach::Ctx {
 public:
  TenantCtx(mach::Ctx& parent, const TenantMachine& tenant)
      : parent_(&parent),
        tenant_(&tenant),
        rank_(tenant.local_rank(parent.rank())) {
    XHC_REQUIRE(rank_ >= 0, "parent rank ", parent.rank(),
                " is not a member of tenant '", tenant.scope(), "'");
    // wait_spins() must stay cumulative across the whole parent run: the
    // observability layer differences it around waits on *this* context.
    wait_spins_ = parent.wait_spins();
  }

  int rank() const noexcept override { return rank_; }
  int size() const noexcept override { return tenant_->n_ranks(); }
  int core() const noexcept override { return parent_->core(); }

  double now() override { return parent_->now(); }
  void charge(double seconds) override { parent_->charge(seconds); }
  void stall(double seconds) override { parent_->stall(seconds); }
  void copy(void* dst, const void* src, std::size_t n) override {
    parent_->copy(dst, src, n);
  }
  void reduce(void* dst, const void* src, std::size_t count, mach::DType dtype,
              mach::ROp op) override {
    parent_->reduce(dst, src, count, dtype, op);
  }
  void write_payload(void* dst, std::size_t n, std::uint64_t seed) override {
    parent_->write_payload(dst, n, seed);
  }

  void flag_store(mach::Flag& f, std::uint64_t v) override {
    parent_->flag_store(f, v);
  }
  std::uint64_t flag_read(const mach::Flag& f) override {
    return parent_->flag_read(f);
  }
  void flag_wait_ge(const mach::Flag& f, std::uint64_t v) override {
    parent_->flag_wait_ge(f, v);
    wait_spins_ = parent_->wait_spins();
  }
  std::uint64_t fetch_add(mach::Flag& f, std::uint64_t delta) override {
    return parent_->fetch_add(f, delta);
  }

  /// The collective algorithms synchronize exclusively through flags; a
  /// communicator-wide barrier over a rank *subset* of the parent run would
  /// deadlock against non-members, so it is forbidden outright.
  void barrier() override {
    XHC_CHECK(false, "tenant '", tenant_->scope(),
              "': Ctx::barrier is not available on a rank-subset "
              "communicator (components synchronize through flags)");
  }

  mach::Ctx& parent() const noexcept { return *parent_; }

 private:
  mach::Ctx* parent_;
  const TenantMachine* tenant_;
  int rank_;
};

}  // namespace xhc::svc
