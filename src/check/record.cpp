#include "check/record.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "coll/component.h"
#include "mach/event_sink.h"
#include "sim/sim_machine.h"
#include "util/check.h"
#include "util/prng.h"

namespace xhc::check {

const char* to_string(Op op) noexcept {
  switch (op) {
    case Op::kBcast:
      return "bcast";
    case Op::kAllreduce:
      return "allreduce";
    case Op::kReduce:
      return "reduce";
    case Op::kBarrier:
      return "barrier";
  }
  return "?";
}

std::string to_string(const OpCall& call) {
  std::string s = to_string(call.op);
  if (call.op == Op::kBarrier) return s;
  s += "/" + std::to_string(call.bytes);
  if (call.op != Op::kAllreduce) s += "/r" + std::to_string(call.root);
  return s;
}

std::vector<OpCall> steady_state_ops(int n_ranks, std::size_t bytes) {
  return {
      {Op::kBcast, bytes, 0},           {Op::kBcast, bytes, n_ranks - 1},
      {Op::kAllreduce, bytes, 0},       {Op::kReduce, bytes, n_ranks / 2},
      {Op::kBarrier, 0, 0},             {Op::kBcast, bytes, 1},
      {Op::kAllreduce, bytes, 0},       {Op::kReduce, bytes, 0},
      {Op::kBcast, bytes, n_ranks / 2},
  };
}

std::vector<OpCall> rotating_root_ops(int n_ranks, std::size_t bytes) {
  std::vector<OpCall> ops;
  for (int root = 0; root < n_ranks; ++root) {
    ops.push_back({Op::kReduce, bytes, root});
    constexpr Op kNext[] = {Op::kAllreduce, Op::kBarrier, Op::kBcast};
    ops.push_back({kNext[root % 3], bytes, root});
  }
  return ops;
}

std::vector<OpCall> rotating_bcast_ops(int n_ranks, std::size_t bytes) {
  std::vector<OpCall> ops;
  for (int root = 0; root < n_ranks; ++root) {
    ops.push_back({Op::kBcast, bytes, root});
  }
  return ops;
}

std::vector<OpCall> straddling_ops(std::vector<OpCall> ops,
                                   std::size_t alt_bytes) {
  bool alt = false;
  for (OpCall& call : ops) {
    if (call.op == Op::kBarrier) continue;
    if (alt) call.bytes = alt_bytes;
    alt = !alt;
  }
  return ops;
}

namespace {

/// Appends every access to its rank's stream. Sink calls run under the
/// scheduler token, one at a time, so nothing here needs a lock.
class Recorder final : public mach::EventSink {
 public:
  Recorder(const mach::AllocRegistry& registry, Schedule& s)
      : registry_(registry),
        s_(s),
        op_(static_cast<std::size_t>(s.n_ranks), 0) {}

  /// Later events of `rank` belong to s.ops[k].
  void begin_op(int rank, int k) { op_[static_cast<std::size_t>(rank)] = k; }
  /// First blind spot seen, empty when none.
  const std::string& error() const noexcept { return error_; }

  void on_event(const mach::Event& e) override {
    using K = mach::Event::Kind;
    switch (e.kind) {
      case K::kStore:
        push(e.rank, {.kind = EvKind::kPublish, .flag = e.flag,
                      .value = e.value});
        break;
      case K::kRmw:
        push(e.rank, {.kind = EvKind::kRmw, .flag = e.flag, .value = e.delta});
        break;
      case K::kWaitStart:
        push(e.rank, {.kind = EvKind::kWait, .flag = e.flag,
                      .value = e.value});
        break;
      case K::kWaitEnd:
        break;
      case K::kRead:
        fail(e.rank, "flag_read inside a recorded op (the event stream "
                     "would depend on the interleaving)");
        break;
      case K::kDataRead:
      case K::kDataWrite:
        on_data(e.rank, e.data, e.bytes, e.kind == K::kDataWrite);
        break;
    }
  }

 private:
  void on_data(int rank, const void* p, std::size_t n, bool write) {
    if (n == 0) return;
    const mach::AllocRegistry::Block* b = registry_.find(p);
    const auto lo = static_cast<std::uint64_t>(
        b == nullptr ? 0 : static_cast<const std::byte*>(p) - b->base);
    if (b == nullptr || lo + n > b->bytes) {
      fail(rank, std::to_string(n) + "-byte payload " +
                     (write ? "write" : "read") +
                     " outside every machine allocation (the race check "
                     "would not see it)");
      return;
    }
    const auto [it, fresh] =
        block_of_.emplace(b->id, static_cast<int>(s_.block_owner.size()));
    if (fresh) s_.block_owner.push_back(b->owner_rank);
    push(rank, {.kind = write ? EvKind::kWrite : EvKind::kRead,
                .block = it->second,
                .lo = lo,
                .hi = lo + n});
  }

  void push(int rank, Event e) {
    e.op = op_[static_cast<std::size_t>(rank)];
    e.seq = seq_++;
    s_.per_rank[static_cast<std::size_t>(rank)].push_back(e);
  }
  void fail(int rank, const std::string& what) {
    if (!error_.empty()) return;
    error_ = "r" + std::to_string(rank) + " in " +
             to_string(s_.ops[static_cast<std::size_t>(
                 op_[static_cast<std::size_t>(rank)])]) +
             ": " + what;
  }

  const mach::AllocRegistry& registry_;
  Schedule& s_;
  std::vector<int> op_;
  std::map<std::uint64_t, int> block_of_;  ///< registry id -> block
  std::uint64_t seq_ = 0;
  std::string error_;
};

std::uint64_t input_seed(std::size_t k, int rank) {
  return ((static_cast<std::uint64_t>(k) + 1) << 20) |
         static_cast<std::uint64_t>(rank);
}
std::uint64_t poison_seed(std::size_t k, int rank) {
  return input_seed(k, rank) | (std::uint64_t{1} << 40);
}

/// Bytes every reader of op `k`'s result must see.
std::vector<unsigned char> expected_result(const OpCall& c, std::size_t k,
                                           int n_ranks) {
  std::vector<unsigned char> out(c.bytes);
  if (c.op == Op::kBcast) {
    util::fill_pattern(out.data(), c.bytes, input_seed(k, c.root));
    return out;
  }
  // i64 sums wrap, so any reduction order yields these exact bytes.
  const std::size_t words = c.bytes / 8;
  std::vector<std::uint64_t> sum(words, 0);
  std::vector<std::uint64_t> in(words);
  for (int r = 0; r < n_ranks; ++r) {
    util::fill_pattern(in.data(), c.bytes, input_seed(k, r));
    for (std::size_t i = 0; i < words; ++i) sum[i] += in[i];
  }
  std::memcpy(out.data(), sum.data(), c.bytes);
  return out;
}

}  // namespace

Schedule record_schedule(sim::SimMachine& machine, coll::Component& comp,
                         const std::vector<OpCall>& ops) {
  const int n = machine.n_ranks();
  Schedule s;
  s.ops = ops;
  s.n_ranks = n;
  s.per_rank.resize(static_cast<std::size_t>(n));

  std::size_t max_bytes = 0;
  std::vector<std::vector<unsigned char>> expect(ops.size());
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const OpCall& c = ops[k];
    if (c.op == Op::kBarrier) continue;
    XHC_REQUIRE(c.bytes > 0, "empty payload in ", to_string(c));
    XHC_REQUIRE(c.op == Op::kAllreduce || (c.root >= 0 && c.root < n),
                "bad root in ", to_string(c));
    XHC_REQUIRE(c.op == Op::kBcast || c.bytes % 8 == 0,
                "i64 reduction payload must be a multiple of 8 bytes: ",
                to_string(c));
    max_bytes = std::max(max_bytes, c.bytes);
    expect[k] = expected_result(c, k, n);
  }
  // Per rank: the bcast buffer / reduction input, the reduction output, and
  // the private buffer the result is read back into.
  std::vector<mach::Buffer> in, out, back;
  if (max_bytes > 0) {
    for (int r = 0; r < n; ++r) {
      // Unzeroed: the rank function writes every byte before reading it.
      in.emplace_back(machine, r, max_bytes, /*zero=*/false);
      out.emplace_back(machine, r, max_bytes, /*zero=*/false);
      back.emplace_back(machine, r, max_bytes, /*zero=*/false);
    }
  }

  Recorder rec(machine.registry(), s);
  std::vector<std::string> wrong(static_cast<std::size_t>(n));
  {
    const mach::ScopedSink attach(machine, &rec);
    machine.run([&](mach::Ctx& ctx) {
      const int r = ctx.rank();
      const auto ri = static_cast<std::size_t>(r);
      for (std::size_t k = 0; k < ops.size(); ++k) {
        const OpCall& c = ops[k];
        rec.begin_op(r, static_cast<int>(k));
        const void* result = nullptr;
        switch (c.op) {
          case Op::kBcast:
            ctx.write_payload(in[ri].get(), c.bytes,
                              r == c.root ? input_seed(k, r)
                                          : poison_seed(k, r));
            comp.bcast(ctx, in[ri].get(), c.bytes, c.root);
            result = in[ri].get();
            break;
          case Op::kAllreduce:
          case Op::kReduce:
            ctx.write_payload(in[ri].get(), c.bytes, input_seed(k, r));
            ctx.write_payload(out[ri].get(), c.bytes, poison_seed(k, r));
            if (c.op == Op::kAllreduce) {
              comp.allreduce(ctx, in[ri].get(), out[ri].get(), c.bytes / 8,
                             mach::DType::kI64, mach::ROp::kSum);
            } else {
              comp.reduce(ctx, in[ri].get(), out[ri].get(), c.bytes / 8,
                          mach::DType::kI64, mach::ROp::kSum, c.root);
            }
            if (c.op == Op::kAllreduce || r == c.root) result = out[ri].get();
            break;
          case Op::kBarrier:
            comp.barrier(ctx);
            break;
        }
        if (result == nullptr) continue;
        // Read the result back through the machine, so the race check also
        // proves every write to it happened before this rank returned.
        ctx.copy(back[ri].get(), result, c.bytes);
        if (wrong[ri].empty() &&
            std::memcmp(back[ri].get(), expect[k].data(), c.bytes) != 0) {
          wrong[ri] = "r" + std::to_string(r) + " got a wrong result from " +
                      to_string(c) + " (op " + std::to_string(k) + ")";
        }
      }
    });
  }

  XHC_CHECK(rec.error().empty(), "record_schedule: ", rec.error());
  for (const std::string& w : wrong) {
    XHC_CHECK(w.empty(), "record_schedule: ", w);
  }
  return s;
}

}  // namespace xhc::check
