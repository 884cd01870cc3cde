// Extending the framework: write your own collective component.
//
// Implements a deliberately naive "linear" component directly against the
// per-rank Ctx interface — root-centric, no hierarchy, no pipelining — and
// races it against XHC on a simulated Epyc-1P. This is the template for
// experimenting with new algorithms inside the framework.
//
//   $ ./examples/custom_component
#include <iostream>

#include "coll/registry.h"
#include "core/ctl.h"
#include "mach/machine.h"
#include "osu/harness.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/table.h"

namespace {

using namespace xhc;

/// Root-centric linear collectives: every rank copies straight from the
/// root (bcast) or the root reduces everyone serially (allreduce) — the
/// fan-in/fan-out pattern the paper's hierarchy is designed to avoid.
class LinearComponent final : public coll::Component {
 public:
  explicit LinearComponent(mach::Machine& machine)
      : machine_(&machine), arena_() {
    // One group block, of which it reads seq, info, member_seq, minfo and
    // the acks.
    ctl_ = arena_.add_group(machine, /*home_rank=*/0, machine.n_ranks(),
                            {.groups = true, .ack = true});
  }

  std::string_view name() const noexcept override { return "linear"; }

  void bcast(mach::Ctx& ctx, void* buf, std::size_t bytes,
             int root) override {
    if (bytes == 0 || ctx.size() == 1) return;
    const int r = ctx.rank();
    const std::uint64_t s = ++seq_[static_cast<std::size_t>(r)].v;
    if (r == root) {
      ctl_.info[0]->buf = buf;
      ctx.flag_store(*ctl_.seq[0], s);
      for (int j = 0; j < ctx.size(); ++j) {
        if (j != root) ctx.flag_wait_ge(*ctl_.ack[j], s);
      }
    } else {
      ctx.flag_wait_ge(*ctl_.seq[0], s);
      ctx.copy(buf, ctl_.info[0]->buf, bytes);  // everyone hits the root
      ctx.flag_store(*ctl_.ack[r], s);
    }
  }

  void allreduce(mach::Ctx& ctx, const void* sbuf, void* rbuf,
                 std::size_t count, mach::DType dtype,
                 mach::ROp op) override {
    const std::size_t bytes = count * mach::dtype_size(dtype);
    if (count == 0) return;
    const int r = ctx.rank();
    if (ctx.size() == 1) {
      if (sbuf != rbuf) ctx.copy(rbuf, sbuf, bytes);
      return;
    }
    const std::uint64_t s = ++seq_[static_cast<std::size_t>(r)].v;
    // Publish contributions; rank 0 reduces them one by one, then
    // broadcasts the result — all strictly serial.
    ctl_.minfo[r]->contrib = sbuf;
    ctx.flag_store(*ctl_.member_seq[r], s);
    if (r == 0) {
      if (sbuf != rbuf) ctx.copy(rbuf, sbuf, bytes);
      for (int j = 1; j < ctx.size(); ++j) {
        ctx.flag_wait_ge(*ctl_.member_seq[j], s);
        ctx.reduce(rbuf, ctl_.minfo[j]->contrib, count, dtype, op);
      }
      ctl_.info[0]->buf = rbuf;
      ctx.flag_store(*ctl_.seq[0], s);
      for (int j = 1; j < ctx.size(); ++j) {
        ctx.flag_wait_ge(*ctl_.ack[j], s);
      }
    } else {
      ctx.flag_wait_ge(*ctl_.seq[0], s);
      ctx.copy(rbuf, ctl_.info[0]->buf, bytes);
      ctx.flag_store(*ctl_.ack[r], s);
    }
  }

 private:
  struct Seq {
    alignas(64) std::uint64_t v = 0;
  };
  mach::Machine* machine_;
  core::CtlArena arena_;
  core::GroupCtl ctl_;
  std::array<Seq, 1024> seq_{};
};

}  // namespace

int main() {
  using namespace xhc;
  std::cout << "Custom 'linear' component vs XHC, simulated Epyc-1P "
               "(osu_allreduce_mb)\n\n";

  const std::vector<std::size_t> sizes{64, 4096, 262144};
  util::Table table({"Size", "linear (us)", "xhc (us)", "speedup"});
  for (const std::size_t bytes : sizes) {
    double lat[2] = {0, 0};
    for (int which = 0; which < 2; ++which) {
      sim::SimMachine machine(topo::epyc1p(), 32);
      std::unique_ptr<coll::Component> comp;
      if (which == 0) {
        comp = std::make_unique<LinearComponent>(machine);
      } else {
        comp = coll::make_component("xhc", machine);
      }
      osu::Config cfg;
      cfg.warmup = 1;
      cfg.iters = 2;
      lat[which] =
          osu::allreduce_sweep(machine, *comp, {bytes}, cfg).front().avg_us;
    }
    table.add_row({util::Table::fmt_bytes(bytes),
                   util::Table::fmt_double(lat[0], 2),
                   util::Table::fmt_double(lat[1], 2),
                   util::Table::fmt_double(lat[0] / lat[1], 1) + "x"});
  }
  table.print(std::cout);
  return 0;
}
