#include "sim/sim_machine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "mach/host_alloc.h"
#include "obs/coh.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/cacheline.h"
#include "util/check.h"
#include "util/memops.h"
#include "util/prng.h"

namespace xhc::sim {

// ---------------------------------------------------------------------------
// FlagHist

void SimMachine::FlagHist::append(std::uint64_t value, double t) {
  entries.emplace_back(value, t);
  if (entries.size() > 4096) {
    // Keep the window bounded; the dropped prefix is summarized by the
    // floor watermark (waits for long-passed thresholds resume at the
    // window start, which can only over-estimate slightly).
    for (std::size_t i = 0; i < 2048; ++i) {
      floor_value = entries.front().first;
      floor_time = entries.front().second;
      entries.pop_front();
    }
  }
}

std::optional<double> SimMachine::FlagHist::crossing(std::uint64_t v) const {
  if (v == 0) return 0.0;
  if (floor_value >= v) return floor_time;
  // Values are non-decreasing (monotone counters / fetch-adds), so binary
  // search for the first entry reaching v.
  auto it = std::lower_bound(
      entries.begin(), entries.end(), v,
      [](const std::pair<std::uint64_t, double>& e, std::uint64_t val) {
        return e.first < val;
      });
  if (it == entries.end()) return std::nullopt;
  return it->second;
}

std::uint64_t SimMachine::FlagHist::value_at(double t) const {
  std::uint64_t value = floor_value;
  for (auto it = entries.begin(); it != entries.end(); ++it) {
    if (it->second <= t) {
      value = it->first;
    } else {
      break;
    }
  }
  return value;
}

std::uint64_t SimMachine::FlagHist::last_value() const {
  return entries.empty() ? floor_value : entries.back().first;
}

// ---------------------------------------------------------------------------
// SimCtx

class SimMachine::SimCtx final : public mach::Ctx {
 public:
  SimCtx(SimMachine* m, int rank, double run_epoch)
      : m_(m),
        verify_(&m->verify_ledger()),
        rank_(rank),
        core_(m->map_.core_of(rank)),
        run_epoch_(run_epoch) {}

  int rank() const noexcept override { return rank_; }
  int size() const noexcept override { return m_->n_ranks(); }
  int core() const noexcept override { return core_; }

  double now() override { return m_->sched_->now(rank_) - run_epoch_; }

  void charge(double seconds) override {
    m_->sched_->advance(rank_, seconds);
  }

  void copy(void* dst, const void* src, std::size_t n) override {
    const double t = m_->sched_->now(rank_);
    const auto* src_block = m_->registry_.find(src);
    const auto* dst_block = m_->registry_.find(dst);
    const double d = m_->price_read(src_block, core_, n, t, 1.0);
    if (!m_->timing_only_) util::copy_payload(dst, src, n);
    if (dst_block != nullptr) m_->cache_.on_write(dst_block->id, core_);
    if (m_->access_ != nullptr) {
      m_->access_->on_data(rank_, src, n, /*write=*/false);
      m_->access_->on_data(rank_, dst, n, /*write=*/true);
    }
    m_->sched_->advance(rank_, d);
  }

  void reduce(void* dst, const void* src, std::size_t count,
              mach::DType dtype, mach::ROp op) override {
    const std::size_t n = count * mach::dtype_size(dtype);
    const double t = m_->sched_->now(rank_);
    const auto* src_block = m_->registry_.find(src);
    const auto* dst_block = m_->registry_.find(dst);
    // Fetch the source operand (at reduction throughput), then the
    // destination operand, which is also read-modified-written.
    const double d1 = m_->price_read(src_block, core_, n, t,
                                     m_->params_.reduce_bw_factor);
    const double d2 = m_->price_read(dst_block, core_, n, t + d1, 1.0);
    if (!m_->timing_only_) mach::reduce_apply(dst, src, count, dtype, op);
    if (dst_block != nullptr) m_->cache_.on_write(dst_block->id, core_);
    if (m_->access_ != nullptr) {
      m_->access_->on_data(rank_, src, n, /*write=*/false);
      m_->access_->on_data(rank_, dst, n, /*write=*/true);
    }
    m_->sched_->advance(rank_, d1 + d2);
  }

  void write_payload(void* dst, std::size_t n, std::uint64_t seed) override {
    if (!m_->timing_only_) util::fill_pattern(dst, n, seed);
    const auto* block = m_->registry_.find(dst);
    if (block != nullptr) m_->cache_.on_write(block->id, core_);
    if (m_->access_ != nullptr) {
      m_->access_->on_data(rank_, dst, n, /*write=*/true);
    }
    const double d = m_->params_.copy_base +
                     static_cast<double>(n) / m_->params_.intra_numa.bw;
    m_->sched_->advance(rank_, d);
  }

  void flag_store(mach::Flag& f, std::uint64_t v) override {
    const double t = m_->sched_->now(rank_);
    const double done = m_->lines_.write(&f, core_, t);
    f.v.store(v, std::memory_order_release);
    m_->flag_hist_[&f].append(v, done);
    // The ledger records the same publish time the model uses, so the
    // read-side cross-check compares like with like.
    if (verify_->enabled()) verify_->on_store(&f, rank_, v, done);
    if (m_->access_ != nullptr) {
      m_->access_->on_flag(rank_, &f, AccessSink::FlagOp::kStore, v);
    }
    m_->sched_->notify(&f);
    m_->sched_->advance(rank_, done - t);
  }

  std::uint64_t flag_read(const mach::Flag& f) override {
    const double t = m_->sched_->now(rank_);
    const double done = m_->lines_.read(&f, core_, t);
    const std::uint64_t value = m_->flag_hist_[&f].value_at(done);
    if (verify_->enabled()) verify_->on_observe(&f, rank_, value, done);
    if (m_->access_ != nullptr) {
      m_->access_->on_flag(rank_, &f, AccessSink::FlagOp::kRead, value);
    }
    m_->sched_->advance(rank_, done - t);
    return value;
  }

  void flag_wait_ge(const mach::Flag& f, std::uint64_t v) override {
    if (m_->access_ != nullptr) {
      m_->access_->on_flag(rank_, &f, AccessSink::FlagOp::kWaitEnter, v);
    }
    FlagHist& hist = m_->flag_hist_[&f];
    // Fast path: the value is already published — the fetch overlaps with
    // the surrounding reads (a scan over set flags exposes only part of the
    // miss latency).
    const double now = m_->sched_->now(rank_);
    if (const auto crossing = hist.crossing(v);
        crossing.has_value() && *crossing <= now) {
      const double done =
          m_->lines_.read(&f, core_, now, /*pipelined=*/true);
      if (verify_->enabled()) verify_->on_wait_resume(&f, rank_, v, done);
      m_->sched_->advance(rank_, done - now);
      return;
    }
    // One suspension is the virtual-time analogue of a spin phase.
    ++wait_spins_;
    const bool coh = m_->coh_.enabled();
    const std::uint64_t seq0 = coh ? m_->lines_.store_seq(&f) : 0;
    const double resume = m_->sched_->wait_until(
        rank_, &f, [&hist, v]() { return hist.crossing(v); });
    if (coh) {
      // Every store that landed on the watched line while this rank was
      // blocked invalidated its spinning copy and forced a re-fetch from
      // the (dirty) owner; the final fetch is priced by the read below, the
      // earlier ones are the pure false-sharing overhead a packed layout
      // pays. Accounting only — the virtual clock is untouched.
      const std::uint64_t landed = m_->lines_.store_seq(&f) - seq0;
      if (landed > 1) {
        m_->coh_.on_spin_refetch(&f, core_, m_->lines_.owner_of(&f),
                                 landed - 1);
      }
    }
    // Pay for actually fetching the line at the resume time (the line-model
    // serializes concurrent fetchers — the fan-in effect).
    const double done = m_->lines_.read(&f, core_, resume);
    if (verify_->enabled()) verify_->on_wait_resume(&f, rank_, v, done);
    m_->sched_->advance(rank_, done - resume);
    // Record the blocked virtual time (entry → line fetched). Pure
    // observation: no charge, so timings are unchanged whether or not a
    // histogram set is attached.
    if (obs::HistSet* h = m_->wait_hist(); h != nullptr) {
      h->record(rank_, obs::HistKind::kFlagWait, done - now);
    }
    if (obs::TimeSeries* s = m_->wait_series(); s != nullptr) {
      s->record(rank_, m_->wait_series_id(), done, done - now);
    }
  }

  std::uint64_t fetch_add(mach::Flag& f, std::uint64_t delta) override {
    const double t = m_->sched_->now(rank_);
    const double done = m_->lines_.rmw(&f, core_, t);
    FlagHist& hist = m_->flag_hist_[&f];
    const std::uint64_t prev = hist.last_value();
    const std::uint64_t next = prev + delta;
    f.v.store(next, std::memory_order_release);
    hist.append(next, done);
    if (verify_->enabled()) verify_->on_rmw(&f, rank_, next, done);
    if (m_->access_ != nullptr) {
      m_->access_->on_flag(rank_, &f, AccessSink::FlagOp::kRmw, delta);
    }
    m_->sched_->notify(&f);
    m_->sched_->advance(rank_, done - t);
    return prev;
  }

  void barrier() override {
    m_->sched_->barrier(rank_, m_->params_.barrier_cost);
  }

 private:
  SimMachine* const m_;
  verify::Ledger* const verify_;
  const int rank_;
  const int core_;
  const double run_epoch_;
};

// ---------------------------------------------------------------------------
// SimMachine

SimMachine::SimMachine(topo::Topology topo, int n_ranks,
                       topo::MapPolicy policy)
    // Both the delegation argument and params_for only read `topo`.
    : SimMachine(topo, n_ranks, policy, params_for(topo)) {}

SimMachine::SimMachine(topo::Topology topo, int n_ranks,
                       topo::MapPolicy policy, SimParams params)
    : topo_(std::move(topo)),
      map_(topo_, n_ranks, policy),
      params_(params),
      cache_(&topo_, &params_),
      lines_(&topo_, &params_) {
  cache_.set_stats(&coh_);
  lines_.set_stats(&coh_);
  setup_ledger();
}

SimMachine::~SimMachine() = default;

void SimMachine::setup_ledger() {
  ledger_ = ResourceLedger();
  if (topo_.has_shared_llc() && params_.llc_port_bw > 0) {
    for (int l = 0; l < topo_.n_llc(); ++l) {
      ledger_.set_capacity({ResKind::kLlcPort, l}, params_.llc_port_bw);
    }
  }
  for (int n = 0; n < topo_.n_numa(); ++n) {
    ledger_.set_capacity({ResKind::kNumaChannel, n}, params_.numa_mem_bw);
  }
  for (int s = 0; s < topo_.n_sockets(); ++s) {
    ledger_.set_capacity({ResKind::kSocketFabric, s},
                         params_.socket_fabric_bw);
  }
  if (topo_.n_sockets() > 1) {
    ledger_.set_capacity({ResKind::kXSocketLink, 0}, params_.xsocket_bw);
  }
  if (params_.slc_bw > 0) {
    ledger_.set_capacity({ResKind::kSlc, 0}, params_.slc_bw);
  }
}

void* SimMachine::alloc(int owner_rank, std::size_t bytes, std::size_t align,
                        bool zero) {
  XHC_REQUIRE(owner_rank >= 0 && owner_rank < n_ranks(), "owner rank ",
              owner_rank, " out of range");
  const mach::HostBlock b = mach::host_alloc(bytes, align, zero);
  const std::uint64_t id = registry_.insert(b.p, b.bytes, owner_rank);
  const int home_numa = topo_.core(map_.core_of(owner_rank)).numa;
  cache_.add_block(id, b.bytes, home_numa);
  return b.p;
}

void SimMachine::free(void* p) {
  if (p == nullptr) return;
  const auto* block = registry_.find(p);
  if (block != nullptr) {
    cache_.remove_block(block->id);
    // A reused address starts clean: a previous occupant's crossings must
    // not satisfy waits on (or poison the ledger for) a fresh flag there.
    verify_ledger().forget_range(block->base, block->bytes);
    const std::byte* lo = block->base;
    for (auto it = flag_hist_.begin(); it != flag_hist_.end();) {
      const auto* a = reinterpret_cast<const std::byte*>(it->first);
      if (a >= lo && a < lo + block->bytes) {
        it = flag_hist_.erase(it);
      } else {
        ++it;
      }
    }
  }
  registry_.erase(p);
  std::free(p);
}

double SimMachine::price_read(const mach::AllocRegistry::Block* block,
                              int core, std::size_t n, double t,
                              double bw_divisor) {
  ServeInfo info = (block != nullptr)
                       ? cache_.on_read(block->id, core, n)
                       : cache_.local_read(core);
  const LinkCost* link = nullptr;
  ResId res[3];
  int n_res = 0;

  switch (info.kind) {
    case ServeKind::kLocalLlc:
      link = &params_.llc_local;
      break;
    case ServeKind::kSlc:
      link = &params_.slc;
      res[n_res++] = {ResKind::kSlc, 0};
      break;
    case ServeKind::kProducerLlc:
      link = &params_.path(info.distance);
      res[n_res++] = {ResKind::kLlcPort, info.src_llc};
      break;
    case ServeKind::kMemory:
      link = &params_.path(info.distance);
      res[n_res++] = {ResKind::kNumaChannel, info.src_numa};
      break;
  }

  // Path crossings share the fabric / inter-socket link.
  const topo::CorePlace& reader = topo_.core(core);
  if (info.kind != ServeKind::kLocalLlc) {
    if (info.distance == topo::Distance::kCrossSocket) {
      res[n_res++] = {ResKind::kXSocketLink, 0};
    } else if (info.distance == topo::Distance::kCrossNuma) {
      res[n_res++] = {ResKind::kSocketFabric, reader.socket};
    }
  }

  double bw = link->bw;
  for (int i = 0; i < n_res; ++i) bw = std::min(bw, ledger_.share(res[i], t));
  const double duration = params_.copy_base + link->lat +
                          static_cast<double>(n) * bw_divisor / bw;
  for (int i = 0; i < n_res; ++i) ledger_.book(res[i], t, t + duration);
  return duration;
}

bool SimMachine::coh_report(obs::CohReport* out) const {
  if (out == nullptr) return true;
  obs::CohReport report;

  report.totals.local_hits = coh_.total(CohEvent::kLocalHit);
  report.totals.llc_hits = coh_.total(CohEvent::kLlcHit);
  report.totals.slc_hits = coh_.total(CohEvent::kSlcHit);
  report.totals.hitm = coh_.total(CohEvent::kHitm);
  report.totals.spin_refetches = coh_.total(CohEvent::kSpinRefetch);
  report.totals.remote_fills = coh_.total(CohEvent::kRemoteFill);
  report.totals.invalidations = coh_.total(CohEvent::kInvalBroadcast);
  report.totals.transfers = coh_.total(CohEvent::kOwnershipTransfer);
  report.totals.rmws = coh_.total(CohEvent::kRmw);

  // Per-line rows, attributed through the verifier's flag registry. Lines
  // no registered flag covers are folded into one "(unregistered)" row:
  // raw addresses are not reproducible across processes, and the report
  // must be byte-deterministic.
  obs::CohLine anon;
  anon.name = "(unregistered)";
  bool have_anon = false;
  for (const auto& [id, c] : coh_.lines()) {
    std::vector<std::string> names;
    for (const void* a : c.addrs) {
      std::string n = verify_ledger().flag_name(a);
      if (n.empty()) continue;
      if (std::find(names.begin(), names.end(), n) == names.end()) {
        names.push_back(std::move(n));
      }
    }
    obs::CohLine l;
    l.line = id;
    l.reads = c.reads;
    l.writes = c.writes;
    l.rmws = c.rmws;
    l.local_hits = c.local_hits;
    l.llc_hits = c.llc_hits;
    l.slc_hits = c.slc_hits;
    l.hitm = c.hitm;
    l.spin_refetches = c.spin_refetches;
    l.remote_fills = c.remote_fills;
    l.invalidations = c.invalidations;
    l.transfers = c.transfers;
    l.writer_cores = static_cast<int>(c.writer_cores.size());
    l.written_flags = static_cast<int>(c.written_addrs.size());
    l.false_sharing = l.written_flags >= 2 || l.writer_cores >= 2;
    if (names.empty()) {
      anon.reads += l.reads;
      anon.writes += l.writes;
      anon.rmws += l.rmws;
      anon.local_hits += l.local_hits;
      anon.llc_hits += l.llc_hits;
      anon.slc_hits += l.slc_hits;
      anon.hitm += l.hitm;
      anon.spin_refetches += l.spin_refetches;
      anon.remote_fills += l.remote_fills;
      anon.invalidations += l.invalidations;
      anon.transfers += l.transfers;
      anon.writer_cores = std::max(anon.writer_cores, l.writer_cores);
      anon.written_flags += l.written_flags;
      have_anon = true;
      continue;
    }
    l.name = names.front();
    if (names.size() > 1) {
      l.name += " (+" + std::to_string(names.size() - 1) + ")";
    }
    report.lines.push_back(std::move(l));
  }
  if (have_anon) report.lines.push_back(std::move(anon));
  std::sort(report.lines.begin(), report.lines.end(),
            [](const obs::CohLine& a, const obs::CohLine& b) {
              if (a.activity() != b.activity()) {
                return a.activity() > b.activity();
              }
              return a.name < b.name;  // names are process-independent
            });

  // HITM matrix, cores translated to ranks (HITM services always involve
  // rank-hosting cores; -1 rows would mean a modeling bug, keep them
  // visible rather than dropping them).
  std::map<std::pair<int, int>, std::uint64_t> by_rank;
  for (const auto& [pair, count] : coh_.hitm_pairs()) {
    by_rank[{map_.rank_on(pair.first), map_.rank_on(pair.second)}] += count;
  }
  for (const auto& [pair, count] : by_rank) {
    report.hitm_pairs.push_back({pair.first, pair.second, count});
  }
  std::sort(report.hitm_pairs.begin(), report.hitm_pairs.end(),
            [](const obs::CohPair& a, const obs::CohPair& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.owner_rank != b.owner_rank) {
                return a.owner_rank < b.owner_rank;
              }
              return a.reader_rank < b.reader_rank;
            });

  *out = std::move(report);
  return true;
}

void SimMachine::publish_coh_counters(obs::Metrics& m) {
  static constexpr std::pair<CohEvent, obs::Counter> kMap[] = {
      {CohEvent::kLocalHit, obs::Counter::kCohLocalHit},
      {CohEvent::kLlcHit, obs::Counter::kCohLlcHit},
      {CohEvent::kSlcHit, obs::Counter::kCohSlcHit},
      {CohEvent::kHitm, obs::Counter::kCohHitm},
      {CohEvent::kSpinRefetch, obs::Counter::kCohSpinRefetch},
      {CohEvent::kRemoteFill, obs::Counter::kCohRemoteFill},
      {CohEvent::kInvalBroadcast, obs::Counter::kCohInval},
      {CohEvent::kOwnershipTransfer, obs::Counter::kCohOwnershipTransfer},
      {CohEvent::kRmw, obs::Counter::kCohRmw},
      {CohEvent::kBlockLocalLlc, obs::Counter::kCohBlockLocalLlc},
      {CohEvent::kBlockSlc, obs::Counter::kCohBlockSlc},
      {CohEvent::kBlockProducerLlc, obs::Counter::kCohBlockProducerLlc},
      {CohEvent::kBlockMemory, obs::Counter::kCohBlockMemory},
      {CohEvent::kBlockInval, obs::Counter::kCohBlockInval},
  };
  const int n = std::min(n_ranks(), m.n_ranks());
  for (int r = 0; r < n; ++r) {
    const auto delta = coh_.publish_delta(map_.core_of(r));
    for (const auto& [event, counter] : kMap) {
      const std::uint64_t d = delta[static_cast<std::size_t>(
          static_cast<int>(event))];
      if (d != 0) m.add(r, counter, d);
    }
  }
}

mach::RunResult SimMachine::run(const std::function<void(mach::Ctx&)>& fn) {
  const int n = n_ranks();
  const double run_epoch = epoch_;
  sched_ = VirtualScheduler::create(n, run_epoch, backend_);
  // Deadlock reports name blocked channels via the verifier's flag
  // registry (flag waits use the flag's address as the channel).
  sched_->set_channel_namer(
      [this](const void* chan) { return verify_ledger().flag_name(chan); });
  if (pick_hook_) sched_->set_pick_hook(pick_hook_);

  mach::RunResult result;
  result.rank_time.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<double> end_time(static_cast<std::size_t>(n), run_epoch);

  std::exception_ptr error;
  try {
    // The scheduler owns the execution substrate (fibers or threads),
    // aborts the other ranks when one throws, and rethrows the
    // chronologically-first exception once everyone has unwound.
    sched_->run([&](int r) {
      SimCtx ctx(this, r, run_epoch);
      fn(ctx);
      end_time[static_cast<std::size_t>(r)] = sched_->now(r);
    });
  } catch (...) {
    error = std::current_exception();
  }

  for (int r = 0; r < n; ++r) {
    result.rank_time[static_cast<std::size_t>(r)] =
        end_time[static_cast<std::size_t>(r)] - run_epoch;
    result.max_time = std::max(result.max_time,
                               result.rank_time[static_cast<std::size_t>(r)]);
    epoch_ = std::max(epoch_, end_time[static_cast<std::size_t>(r)]);
  }
  sched_.reset();

  if (error) std::rethrow_exception(error);
  return result;
}

}  // namespace xhc::sim
