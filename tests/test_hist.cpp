// Latency histogram tests: bucket geometry, exact degenerate percentiles,
// order-independent merging, the HistSet per-rank rows, and the JSON/table
// exporters (including flag-wait capture on the deterministic simulator).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coll/registry.h"
#include "mach/real_machine.h"
#include "obs/export.h"
#include "obs/hist.h"
#include "obs/observer.h"
#include "obs/timeseries.h"
#include "obs/wait_recorder.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/prng.h"

namespace xhc::obs {
namespace {

TEST(Hist, BucketGeometry) {
  // Zero and negatives land in the dedicated zero bucket.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_upper(0), 0.0);

  // Every interior bucket's upper bound maps back into that bucket, and
  // bounds increase strictly with the index.
  double prev = 0.0;
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    const double upper = Histogram::bucket_upper(i);
    EXPECT_GT(upper, prev) << "bucket " << i;
    prev = upper;
  }
  // Representative values across the domain: the bucket bound is within
  // one sub-bucket (~3%) of the recorded value.
  for (const double v : {1e-9, 3.7e-6, 1e-3, 0.25, 1.0, 42.0, 3600.0}) {
    const int idx = Histogram::bucket_index(v);
    ASSERT_GT(idx, 0) << v;
    ASSERT_LT(idx, Histogram::kNumBuckets) << v;
    EXPECT_GE(Histogram::bucket_upper(idx), v * (1.0 - 1e-12)) << v;
    EXPECT_LE(Histogram::bucket_upper(idx),
              v * (1.0 + 2.0 / Histogram::kSubBuckets))
        << v;
  }
  // Out-of-domain values clamp to the edge octaves (mantissa sub-bucket
  // preserved) instead of indexing out of range.
  EXPECT_GE(Histogram::bucket_index(1e-30), 1);
  EXPECT_LE(Histogram::bucket_index(1e-30), Histogram::kSubBuckets);
  EXPECT_GE(Histogram::bucket_index(1e30),
            Histogram::kNumBuckets - Histogram::kSubBuckets);
  EXPECT_LT(Histogram::bucket_index(1e30), Histogram::kNumBuckets);
}

TEST(Hist, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Hist, SingleSamplePercentilesAreExact) {
  Histogram h;
  h.record(3.25e-6);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 3.25e-6);
  EXPECT_DOUBLE_EQ(h.max(), 3.25e-6);
  // Clamping into [min, max] makes every quantile the sample itself.
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), 3.25e-6) << q;
  }
}

TEST(Hist, PercentilesBoundSamples) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-6);  // 1us .. 1000us
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 1e-3);
  // p50/p90/p99 are upper bucket bounds: at or above the true quantile,
  // within one sub-bucket of it.
  for (const auto& [q, exact] : {std::pair{0.5, 500e-6},
                                std::pair{0.9, 900e-6},
                                std::pair{0.99, 990e-6}}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, exact * (1.0 - 1e-12)) << q;
    EXPECT_LE(p, exact * (1.0 + 2.0 / Histogram::kSubBuckets)) << q;
  }
}

TEST(Hist, MergeIsOrderIndependentAndExact) {
  util::SplitMix64 rng(42);
  std::vector<double> samples(500);
  for (auto& s : samples) {
    s = 1e-7 + 1e-4 * (static_cast<double>(rng.next() % 10000) / 10000.0);
  }

  Histogram whole;
  Histogram part_a;
  Histogram part_b;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.record(samples[i]);
    (i % 3 == 0 ? part_a : part_b).record(samples[i]);
  }
  Histogram ab = part_a;
  ab.merge(part_b);
  Histogram ba = part_b;
  ba.merge(part_a);

  for (const Histogram* m : {&ab, &ba}) {
    EXPECT_EQ(m->count(), whole.count());
    EXPECT_DOUBLE_EQ(m->min(), whole.min());
    EXPECT_DOUBLE_EQ(m->max(), whole.max());
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      ASSERT_EQ(m->bucket_count(i), whole.bucket_count(i)) << i;
    }
    for (const double q : {0.5, 0.9, 0.99}) {
      EXPECT_DOUBLE_EQ(m->percentile(q), whole.percentile(q));
    }
  }

  // Merging an empty histogram in either direction changes nothing.
  Histogram empty;
  Histogram copy = whole;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), whole.count());
  EXPECT_DOUBLE_EQ(copy.min(), whole.min());
  empty.merge(whole);
  EXPECT_EQ(empty.count(), whole.count());
  EXPECT_DOUBLE_EQ(empty.max(), whole.max());
}

TEST(Hist, HistSetRowsAndNamedMerge) {
  HistSet set(4);
  set.record(0, HistKind::kOp, 1e-6);
  set.record(3, HistKind::kOp, 2e-6);
  set.record(1, HistKind::kFlagWait, 5e-7);
  EXPECT_EQ(set.hist(0, HistKind::kOp).count(), 1u);
  EXPECT_EQ(set.hist(2, HistKind::kOp).count(), 0u);
  EXPECT_EQ(set.merged(HistKind::kOp).count(), 2u);
  EXPECT_DOUBLE_EQ(set.merged(HistKind::kOp).max(), 2e-6);

  // Only non-empty kinds appear, in kind (enum) order.
  const auto named = named_hists({&set});
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].name, "flag_wait");
  EXPECT_EQ(named[1].name, "op");
}

TEST(Hist, TableAndJsonExporters) {
  HistSet set(2);
  set.record(0, HistKind::kOp, 1e-6);
  set.record(1, HistKind::kOp, 4e-6);
  const auto named = named_hists({&set});

  const util::Table table = hist_table(named);
  std::ostringstream ts;
  table.print(ts);
  EXPECT_NE(ts.str().find("op"), std::string::npos);
  EXPECT_NE(ts.str().find("p99"), std::string::npos);

  std::ostringstream js;
  write_hist_json(js, named, "unit-test");
  const std::string json = js.str();
  // Spot checks; the full JSON validity of exporters is covered by the
  // parser-backed chrome-trace tests.
  EXPECT_NE(json.find("\"label\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  // Seconds-scale values survive with full precision (not flattened to 0).
  EXPECT_EQ(json.find("\"min\":0,"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Hist, ZeroSampleExportIsHarmless) {
  std::vector<NamedHist> named;
  named.push_back({"empty", Histogram()});
  std::ostringstream js;
  write_hist_json(js, named, "zero");
  EXPECT_NE(js.str().find("\"count\":0"), std::string::npos);
  std::ostringstream ts;
  hist_table(named).print(ts);
  EXPECT_NE(ts.str().find("empty"), std::string::npos);
}

// End-to-end on the simulator: with an observer attached, the machine's
// wait recorder and the component sites fill every kind, deterministically.
TEST(Hist, SimCollectiveFillsAllKindsDeterministically) {
  auto collect = [] {
    sim::SimMachine machine(topo::mini8(), 8);
    Observer observer(8);
    WaitRecorder waits(&observer.hists());
    machine.attach(&waits);
    coll::Tuning tuning;
    tuning.trace = true;
    auto comp = coll::make_component("xhc", machine, tuning);
    comp->set_observer(&observer);

    constexpr std::size_t kBytes = 64u << 10;
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < 8; ++r) bufs.emplace_back(machine, r, kBytes);
    util::fill_pattern(bufs[0].get(), kBytes, 9);
    machine.run([&](mach::Ctx& ctx) {
      comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(),
                  kBytes, 0);
    });
    machine.detach(&waits);

    std::ostringstream os;
    write_hist_json(os, named_hists({&observer.hists()}), "det");
    return os.str();
  };
  const std::string a = collect();
  EXPECT_NE(a.find("\"name\":\"flag_wait\""), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"wait_site\""), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"chunk\""), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"op\""), std::string::npos);
  EXPECT_EQ(a, collect());  // byte-for-byte deterministic
}

// Blocked-wait recording through the machine's event stream, on both
// machines: rank 1 waits on a flag that rank 0 publishes only after a
// stall, so exactly its first wait blocks — for at least the stall's
// virtual time on the simulator, and at least half its real sleep on the
// real machine — and the histogram and the series hold that one duration.
// The second wait finds the flag set and records nothing.
class HistFlagWait : public ::testing::TestWithParam<std::string> {};

TEST_P(HistFlagWait, BlockedWaitRecordsOnce) {
  constexpr double kStall = 2e-3;
  const bool real = GetParam() == "real";
  std::unique_ptr<mach::Machine> machine;
  if (real) {
    machine = std::make_unique<mach::RealMachine>(topo::mini8(), 2);
  } else {
    machine = std::make_unique<sim::SimMachine>(topo::mini8(), 2);
  }
  mach::Buffer line(*machine, 0, 64);
  auto* flag = new (line.get()) mach::Flag();
  machine->verify_ledger().register_flag(flag, "test.go");

  HistSet hists(2);
  TimeSeries series(2, 1e-3);
  const int sid = series.add_series("flag_wait");
  WaitRecorder waits(&hists, &series, sid);
  // On the real machine rank 0 starts its stall only once rank 1 is about
  // to wait, however late the host schedules rank 1's thread; the flag is
  // outside the machine, so no sink sees it.
  std::atomic<bool> waiting{false};
  machine->attach(&waits);
  machine->run([&](mach::Ctx& ctx) {
    if (ctx.rank() == 0) {
      while (real && !waiting.load()) std::this_thread::yield();
      ctx.stall(kStall);
      ctx.flag_store(*flag, 1);
    } else {
      waiting.store(true);
      ctx.flag_wait_ge(*flag, 1);
      ctx.flag_wait_ge(*flag, 1);
    }
  });
  machine->detach(&waits);

  EXPECT_EQ(hists.hist(0, HistKind::kFlagWait).count(), 0u);
  const Histogram& h = hists.hist(1, HistKind::kFlagWait);
  ASSERT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), real ? kStall / 2 : kStall);
  TimeSeries::Cell total;
  for (int w = 0; w < series.used_windows(); ++w) {
    total.merge(series.merged(sid, w));
  }
  EXPECT_EQ(total.count, 1u);
  EXPECT_EQ(total.sum, h.sum());
}

INSTANTIATE_TEST_SUITE_P(Machines, HistFlagWait,
                         ::testing::Values("sim", "real"),
                         [](const auto& info) { return info.param; });

// kChunk times one chunk's data movement on every path: each chunk region
// records one span and one sample over the same interval, so per rank the
// samples match the chunk spans in count and summed duration. 8 KiB takes
// the pipelined bcast and the reduce-then-bcast allreduce; 64 KiB the
// pipelined bcast and reduce-scatter + allgather; 512 KiB the striped bcast
// and reduce-scatter + allgather.
TEST(Hist, ChunkSamplesMatchChunkSpans) {
  constexpr int kRanks = 16;
  sim::SimMachine machine(topo::mini16(), kRanks);
  Observer observer(kRanks);
  coll::Tuning tuning;
  tuning.trace = true;
  // xhc stripes no bcast by default; switch it on so the 512 KiB bcast
  // covers bcast.stripe_pull.
  tuning.stripe_threshold = 128 << 10;
  auto comp = coll::make_component("xhc", machine, tuning);
  comp->set_observer(&observer);

  for (const std::size_t bytes :
       {std::size_t{8} << 10, std::size_t{64} << 10, std::size_t{512} << 10}) {
    std::vector<mach::Buffer> bufs;
    for (int r = 0; r < kRanks; ++r) bufs.emplace_back(machine, r, bytes);
    machine.run([&](mach::Ctx& ctx) {
      void* buf = bufs[static_cast<std::size_t>(ctx.rank())].get();
      comp->bcast(ctx, buf, bytes, 0);
      comp->allreduce(ctx, buf, buf, bytes / sizeof(float), mach::DType::kF32,
                      mach::ROp::kSum);
    });
  }
  comp->set_observer(nullptr);
  ASSERT_EQ(observer.trace().dropped(), 0u);

  const std::set<std::string> chunk_spans{
      "bcast.pull_chunk", "bcast.stripe_pull", "allreduce.reduce_chunk",
      "allreduce.rs_chunk", "allreduce.ag_pull"};
  std::set<std::string> seen;
  for (int r = 0; r < kRanks; ++r) {
    std::uint64_t n = 0;
    double sum = 0.0;
    for (const Span& sp : observer.trace().spans(r)) {
      if (chunk_spans.count(sp.name) == 0) continue;
      seen.insert(sp.name);
      ++n;
      sum += sp.t1 - sp.t0;
    }
    const Histogram& h = observer.hists().hist(r, HistKind::kChunk);
    EXPECT_EQ(h.count(), n) << "rank " << r;
    EXPECT_DOUBLE_EQ(h.sum(), sum) << "rank " << r;
  }
  EXPECT_EQ(seen, chunk_spans);  // every chunk path ran
}

}  // namespace
}  // namespace xhc::obs
