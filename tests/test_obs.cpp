// Observability layer tests: recorder ring semantics, metrics registry,
// end-to-end tracing of bcast + allreduce on both machines, and the Chrome
// trace exporter (validated with a minimal JSON parser — no dependencies).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "coll/registry.h"
#include "mach/real_machine.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "obs/timeseries.h"
#include "osu/harness.h"
#include "sim/sim_machine.h"
#include "topo/presets.h"
#include "util/cacheline.h"
#include "util/prng.h"

namespace xhc::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser (enough to validate the exporter).

struct JValue {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj };
  Kind kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JValue> arr;
  std::map<std::string, JValue> obj;

  const JValue& at(const std::string& key) const {
    static const JValue kMissing;
    const auto it = obj.find(key);
    return it == obj.end() ? kMissing : it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  /// Parses the full input; `ok()` reports success.
  JValue parse() {
    JValue v = value();
    skip_ws();
    if (pos_ != s_.size()) ok_ = false;
    return v;
  }
  bool ok() const { return ok_; }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    ok_ = false;
    return false;
  }

  JValue value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      ok_ = false;
      return {};
    }
    JValue v;
    const char c = s_[pos_];
    if (c == '{') {
      v.kind = JValue::kObj;
      eat('{');
      if (!eat('}')) {
        do {
          JValue key = string_value();
          if (!ok_ || !eat(':')) {
            ok_ = false;
            return v;
          }
          v.obj[key.str] = value();
        } while (ok_ && eat(','));
        if (!eat('}')) ok_ = false;
      }
    } else if (c == '[') {
      v.kind = JValue::kArr;
      eat('[');
      if (!eat(']')) {
        do {
          v.arr.push_back(value());
        } while (ok_ && eat(','));
        if (!eat(']')) ok_ = false;
      }
    } else if (c == '"') {
      v = string_value();
    } else if (c == 't') {
      v.kind = JValue::kBool;
      v.b = true;
      literal("true");
    } else if (c == 'f') {
      v.kind = JValue::kBool;
      literal("false");
    } else if (c == 'n') {
      literal("null");
    } else {
      v.kind = JValue::kNum;
      std::size_t used = 0;
      try {
        v.num = std::stod(std::string(s_.substr(pos_)), &used);
      } catch (...) {
        ok_ = false;
      }
      if (used == 0) ok_ = false;
      pos_ += used;
    }
    return v;
  }

  JValue string_value() {
    JValue v;
    v.kind = JValue::kStr;
    if (!eat('"')) {
      ok_ = false;
      return v;
    }
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          ok_ = false;
          return v;
        }
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) {
              ok_ = false;
              return v;
            }
            pos_ += 4;  // keep a placeholder; exporter only emits ASCII
            c = '?';
            break;
          default:
            ok_ = false;
            return v;
        }
      }
      v.str.push_back(c);
    }
    if (!eat('"')) ok_ = false;
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Recorder / Metrics unit tests (no machine involved).

TEST(Recorder, CapacityRoundsUpToPowerOfTwo) {
  Recorder rec(2, 100);
  EXPECT_EQ(rec.capacity(), 128u);
  EXPECT_EQ(rec.n_ranks(), 2);
}

TEST(Recorder, OverwritesOldestWhenFull) {
  Recorder rec(1, 4);
  for (int i = 0; i < 6; ++i) {
    rec.record(0, "cat", "name", i, i + 0.5,
               static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(rec.recorded(0), 6u);
  EXPECT_EQ(rec.dropped(0), 2u);
  const auto spans = rec.spans(0);
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first window: spans 2..5 survive.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].arg, i + 2);
  }
}

TEST(Recorder, PerRankRingsAreIndependent) {
  Recorder rec(3, 8);
  rec.record(0, "a", "x", 0, 1);
  rec.record(2, "b", "y", 0, 1);
  rec.record(2, "b", "z", 1, 2);
  EXPECT_EQ(rec.spans(0).size(), 1u);
  EXPECT_TRUE(rec.spans(1).empty());
  EXPECT_EQ(rec.spans(2).size(), 2u);
  EXPECT_EQ(rec.recorded(), 3u);
}

TEST(Metrics, PerRankCountersAndGauges) {
  Metrics m(4);
  m.add(0, Counter::kCicoBytes, 100);
  m.add(3, Counter::kCicoBytes, 50);
  m.add(3, Counter::kFlagWaits, 2);
  EXPECT_EQ(m.value(0, Counter::kCicoBytes), 100u);
  EXPECT_EQ(m.value(3, Counter::kCicoBytes), 50u);
  EXPECT_EQ(m.total(Counter::kCicoBytes), 150u);
  EXPECT_EQ(m.total(Counter::kFlagWaits), 2u);
  EXPECT_EQ(m.total(Counter::kReduceBytes), 0u);

  m.set_gauge(Gauge::kCtlBytes, 4096);
  EXPECT_EQ(m.gauge(Gauge::kCtlBytes), 4096u);

  m.reset_counters();
  EXPECT_EQ(m.total(Counter::kCicoBytes), 0u);
  EXPECT_EQ(m.gauge(Gauge::kCtlBytes), 4096u);  // gauges survive reset
}

TEST(Metrics, CounterNamesAreUnique) {
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(Counter::kCount_); ++i) {
    names.insert(std::string(to_string(static_cast<Counter>(i))));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(Counter::kCount_));
}

// ---------------------------------------------------------------------------
// End-to-end: trace bcast + allreduce, export, parse, validate.

struct PaddedNow {
  alignas(util::kCacheLine) double value = 0.0;
};

/// Runs one bcast and one allreduce with tracing on and returns the observer
/// plus the per-rank Ctx::now() captured right after the collectives.
void run_traced(mach::Machine& machine, Observer& observer,
                std::vector<PaddedNow>& now_after) {
  const int n = machine.n_ranks();
  coll::Tuning tuning;
  tuning.trace = true;
  auto comp = coll::make_component("xhc", machine, tuning);
  comp->set_observer(&observer);

  // 64 KiB payload: above the CICO threshold, several pipeline chunks.
  constexpr std::size_t kBytes = 64u << 10;
  constexpr std::size_t kCount = kBytes / sizeof(float);
  std::vector<mach::Buffer> bufs;
  std::vector<mach::Buffer> rbufs;
  for (int r = 0; r < n; ++r) {
    bufs.emplace_back(machine, r, kBytes);
    rbufs.emplace_back(machine, r, kBytes);
  }
  util::fill_pattern(bufs[0].get(), kBytes, 1234);
  now_after.resize(static_cast<std::size_t>(n));

  machine.run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    comp->bcast(ctx, bufs[r].get(), kBytes, /*root=*/0);
    comp->allreduce(ctx, bufs[r].get(), rbufs[r].get(), kCount,
                    mach::DType::kF32, mach::ROp::kSum);
    now_after[r].value = ctx.now();
  });
}

void check_trace(const Observer& observer,
                 const std::vector<PaddedNow>& now_after, bool virtual_time) {
  const Recorder& rec = observer.trace();
  const int n = rec.n_ranks();

  // Every rank produced spans, all within [0, now_after].
  std::set<std::string> cats;
  for (int r = 0; r < n; ++r) {
    const auto spans = rec.spans(r);
    EXPECT_GE(spans.size(), 1u) << "rank " << r << " recorded no spans";
    for (const Span& sp : spans) {
      cats.insert(sp.cat);
      EXPECT_GE(sp.t0, 0.0);
      EXPECT_LE(sp.t0, sp.t1);
      EXPECT_LE(sp.t1, now_after[static_cast<std::size_t>(r)].value + 1e-12)
          << "rank " << r << " span " << sp.cat << "/" << sp.name
          << " ends after the clock captured at completion";
    }
  }
  EXPECT_TRUE(cats.count("collective")) << "missing collective spans";
  EXPECT_TRUE(cats.count("copy")) << "missing copy spans";
  EXPECT_TRUE(cats.count("reduce")) << "missing reduce spans";
  EXPECT_TRUE(cats.count("wait")) << "missing wait/flag spans";

  // Counters: the byte movement of bcast + allreduce was booked.
  const Metrics& m = observer.metrics();
  EXPECT_GT(m.total(Counter::kSingleCopyBytes) + m.total(Counter::kCicoBytes),
            0u);
  EXPECT_GT(m.total(Counter::kReduceBytes), 0u);
  EXPECT_GT(m.total(Counter::kFlagWaits), 0u);

  // Export and re-parse.
  std::ostringstream os;
  const Snapshot snap(rec);
  write_chrome_trace(os, {&snap}, "test");
  const std::string json = os.str();
  JsonParser parser(json);
  const JValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << "exporter emitted invalid JSON";
  ASSERT_EQ(root.kind, JValue::kObj);
  ASSERT_TRUE(root.has("traceEvents"));
  const JValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JValue::kArr);

  std::size_t meta_events = 0;
  std::map<int, std::size_t> per_pid;
  std::map<int, std::vector<double>> pid_ts;
  for (const JValue& ev : events.arr) {
    ASSERT_EQ(ev.kind, JValue::kObj);
    const std::string ph = ev.at("ph").str;
    const int pid = static_cast<int>(ev.at("pid").num);
    EXPECT_GE(pid, 0);
    EXPECT_LT(pid, n);
    if (ph == "M") {
      ++meta_events;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++per_pid[pid];
    EXPECT_FALSE(ev.at("cat").str.empty());
    EXPECT_FALSE(ev.at("name").str.empty());
    EXPECT_GE(ev.at("dur").num, 0.0);
    pid_ts[pid].push_back(ev.at("ts").num);
  }
  // One process_name plus one thread_name metadata event per rank.
  EXPECT_EQ(meta_events, 2 * static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    EXPECT_GE(per_pid[r], 1u) << "no X events for rank " << r;
    ASSERT_EQ(per_pid[r], rec.spans(r).size());
  }

  // Exported timestamps are the recorder's clocks in microseconds; on the
  // simulated machine that is exactly the deterministic virtual clock.
  for (int r = 0; r < n; ++r) {
    const auto spans = rec.spans(r);
    const auto& ts = pid_ts[r];
    ASSERT_EQ(ts.size(), spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_NEAR(ts[i], spans[i].t0 * 1e6, 1e-5);
    }
    if (virtual_time && !ts.empty()) {
      EXPECT_LE(ts.back(),
                now_after[static_cast<std::size_t>(r)].value * 1e6 + 1e-5);
    }
  }
}

TEST(ObsEndToEnd, SimMachineVirtualTimeTrace) {
  sim::SimMachine machine(topo::mini8(), 8);
  Observer observer(8);
  std::vector<PaddedNow> now_after;
  run_traced(machine, observer, now_after);
  check_trace(observer, now_after, /*virtual_time=*/true);
}

TEST(ObsEndToEnd, RealMachineWallClockTrace) {
  mach::RealMachine machine(topo::mini8(), 8);
  Observer observer(8);
  std::vector<PaddedNow> now_after;
  run_traced(machine, observer, now_after);
  check_trace(observer, now_after, /*virtual_time=*/false);
}

TEST(ObsEndToEnd, SimTraceIsDeterministic) {
  auto collect = [] {
    sim::SimMachine machine(topo::mini8(), 8);
    Observer observer(8);
    std::vector<PaddedNow> now_after;
    run_traced(machine, observer, now_after);
    std::ostringstream os;
    const Snapshot snap(observer);
    write_chrome_trace(os, {&snap}, "det");
    return os.str();
  };
  EXPECT_EQ(collect(), collect());
}

TEST(ObsEndToEnd, DisabledTuningRecordsNothing) {
  sim::SimMachine machine(topo::mini8(), 8);
  auto comp = coll::make_component("xhc", machine);  // Tuning::trace = false
  Observer observer(8);
  comp->set_observer(&observer);

  constexpr std::size_t kBytes = 16u << 10;
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 8; ++r) bufs.emplace_back(machine, r, kBytes);
  machine.run([&](mach::Ctx& ctx) {
    comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), kBytes,
                0);
  });

  EXPECT_EQ(observer.trace().recorded(), 0u);
  for (int i = 0; i < static_cast<int>(Counter::kCount_); ++i) {
    EXPECT_EQ(observer.metrics().total(static_cast<Counter>(i)), 0u);
  }
  for (int k = 0; k < kNumHistKinds; ++k) {
    EXPECT_EQ(observer.hists().merged(static_cast<HistKind>(k)).count(), 0u)
        << to_string(static_cast<HistKind>(k));
  }
}

TEST(ObsEndToEnd, TunedBaselineTraces) {
  sim::SimMachine machine(topo::mini8(), 8);
  coll::Tuning tuning;
  tuning.trace = true;
  auto comp = coll::make_component("tuned", machine, tuning);
  Observer observer(8);
  comp->set_observer(&observer);

  constexpr std::size_t kCount = 4096;
  std::vector<mach::Buffer> sbufs;
  std::vector<mach::Buffer> rbufs;
  for (int r = 0; r < 8; ++r) {
    sbufs.emplace_back(machine, r, kCount * sizeof(float));
    rbufs.emplace_back(machine, r, kCount * sizeof(float));
  }
  machine.run([&](mach::Ctx& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    auto* s = static_cast<float*>(sbufs[r].get());
    for (std::size_t i = 0; i < kCount; ++i) s[i] = 1.0f;
    comp->allreduce(ctx, sbufs[r].get(), rbufs[r].get(), kCount,
                    mach::DType::kF32, mach::ROp::kSum);
  });

  std::set<std::string> cats;
  for (int r = 0; r < 8; ++r) {
    for (const Span& sp : observer.trace().spans(r)) cats.insert(sp.cat);
  }
  EXPECT_TRUE(cats.count("collective"));
  EXPECT_TRUE(cats.count("reduce"));
  EXPECT_GT(observer.metrics().total(Counter::kReduceBytes), 0u);
}

// Wrapper components forward the observer to the component that records:
// an OSU bcast sweep of ucc (an XhcComponent inside) fills the trace as
// xhc's does.
TEST(ObsEndToEnd, UccForwardsItsObserver) {
  for (const char* name : {"xhc", "ucc"}) {
    sim::SimMachine machine(topo::mini8(), 8);
    coll::Tuning tuning;
    tuning.trace = true;
    auto comp = coll::make_component(name, machine, tuning);
    Observer observer(8);
    osu::Config cfg;
    cfg.observer = &observer;
    osu::bcast_sweep(machine, *comp, {4096, 64u << 10}, cfg);
    EXPECT_GT(observer.trace().recorded(), 0u) << name;
    EXPECT_GT(observer.metrics().total(Counter::kSingleCopyBytes), 0u) << name;
  }
}

TEST(ObsExport, EscapesSpecialCharacters) {
  Recorder rec(1, 8);
  static const char kName[] = "we\"ird\\name\n";
  rec.record(0, "cat", kName, 0.0, 1.0);
  std::ostringstream os;
  const Snapshot snap(rec);
  write_chrome_trace(os, {&snap}, "esc");
  const std::string json = os.str();
  JsonParser parser(json);
  const JValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << json;
  bool found = false;
  for (const JValue& ev : root.at("traceEvents").arr) {
    if (ev.at("ph").str == "X" && ev.at("name").str == kName) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ObsExport, EmptyRecorderProducesValidTrace) {
  Recorder rec(4, 8);  // no spans recorded at all
  std::ostringstream os;
  const Snapshot snap(rec);
  write_chrome_trace(os, {&snap}, "empty");
  const std::string json = os.str();
  JsonParser parser(json);
  const JValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << json;
  std::size_t meta = 0;
  for (const JValue& ev : root.at("traceEvents").arr) {
    EXPECT_EQ(ev.at("ph").str, "M");
    ++meta;
  }
  EXPECT_EQ(meta, 8u);  // metadata for 4 ranks, nothing else
}

TEST(ObsExport, NonFiniteDurationsStayValidJson) {
  Recorder rec(1, 8);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  rec.record(0, "cat", "inf_end", 0.0, inf);
  rec.record(0, "cat", "nan_start", nan, 1.0);
  std::ostringstream os;
  const Snapshot snap(rec);
  write_chrome_trace(os, {&snap}, "nonfinite");
  const std::string json = os.str();
  JsonParser parser(json);
  const JValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << json;
  for (const JValue& ev : root.at("traceEvents").arr) {
    if (ev.at("ph").str != "X") continue;
    EXPECT_TRUE(std::isfinite(ev.at("ts").num));
    EXPECT_TRUE(std::isfinite(ev.at("dur").num));
  }
}

TEST(ObsMetrics, CmaBytesSplitFromSingleCopy) {
  sim::SimMachine machine(topo::mini8(), 8);
  coll::Tuning tuning;
  tuning.trace = true;
  tuning.mechanism = smsc::Mechanism::kCma;
  auto comp = coll::make_component("xhc", machine, tuning);
  Observer observer(8);
  comp->set_observer(&observer);

  constexpr std::size_t kBytes = 64u << 10;  // well above cico_threshold
  std::vector<mach::Buffer> bufs;
  for (int r = 0; r < 8; ++r) bufs.emplace_back(machine, r, kBytes);
  util::fill_pattern(bufs[0].get(), kBytes, 77);
  machine.run([&](mach::Ctx& ctx) {
    comp->bcast(ctx, bufs[static_cast<std::size_t>(ctx.rank())].get(), kBytes,
                0);
  });

  // All member pulls ride CMA, so the single-copy counter stays clean.
  EXPECT_GT(observer.metrics().total(Counter::kCmaBytes), 0u);
  EXPECT_EQ(observer.metrics().total(Counter::kSingleCopyBytes), 0u);
}

TEST(ObsObserver, MetricsTablePerRankOrdering) {
  Observer observer(4);
  Metrics& m = observer.metrics();
  m.add(3, Counter::kCicoBytes, 30);
  m.add(1, Counter::kCicoBytes, 10);
  m.add(0, Counter::kFlagWaits, 5);
  std::ostringstream os;
  metrics_table({&m}, /*per_rank=*/true).print(os);
  const std::string text = os.str();
  // Counter-enum order first, rank order within: cico r1 before cico r3,
  // both before the flag_waits block.
  const auto cico_r1 = text.find("[r1]");
  const auto cico_r3 = text.find("[r3]");
  const auto waits = text.find("flag_waits");
  ASSERT_NE(cico_r1, std::string::npos) << text;
  ASSERT_NE(cico_r3, std::string::npos) << text;
  ASSERT_NE(waits, std::string::npos) << text;
  EXPECT_LT(cico_r1, cico_r3);
  EXPECT_LT(cico_r3, waits);
  EXPECT_GT(text.find("[r0]"), waits);  // r0 only contributed flag_waits
}

// ---------------------------------------------------------------------------
// Windowed time-series plane (obs/timeseries.h)

TEST(ObsTimeSeries, EmptyPlaneHasNoWindowsAndExportsValidJson) {
  TimeSeries ts(2, 0.01);
  ts.add_series("lat");
  EXPECT_EQ(ts.used_windows(), 0);
  EXPECT_EQ(ts.merged(0, 0).count, 0u);
  std::ostringstream os;
  write_timeseries_json(os, ts, "empty");
  const std::string text = os.str();
  JsonParser parser(text);
  const JValue doc = parser.parse();
  EXPECT_TRUE(parser.ok());
  EXPECT_EQ(doc.at("windows").num, 0.0);
  ASSERT_EQ(doc.at("series").arr.size(), 1u);
  EXPECT_EQ(doc.at("series").arr[0].at("name").str, "lat");
  EXPECT_TRUE(doc.at("series").arr[0].at("windows").arr.empty());
}

TEST(ObsTimeSeries, SingleSampleCellIsExact) {
  TimeSeries ts(1, 0.01);
  const int sid = ts.add_series("lat");
  ts.record(0, sid, 0.0215, 3.5);  // window 2
  EXPECT_EQ(ts.used_windows(), 3);
  const TimeSeries::Cell cell = ts.merged(sid, 2);
  EXPECT_EQ(cell.count, 1u);
  EXPECT_EQ(cell.sum, 3.5);
  EXPECT_EQ(cell.min, 3.5);
  EXPECT_EQ(cell.max, 3.5);
  EXPECT_EQ(ts.merged(sid, 0).count, 0u);
  EXPECT_EQ(ts.merged(sid, 1).count, 0u);
}

TEST(ObsTimeSeries, LateTimestampsClampIntoLastWindow) {
  TimeSeries ts(1, 0.01, 4);
  const int sid = ts.add_series("lat");
  ts.record(0, sid, 1e9, 1.0);  // far beyond the plane
  ts.record(0, sid, -2.0, 7.0);  // negative clamps to window 0
  EXPECT_EQ(ts.window_of(1e9), 3);
  EXPECT_EQ(ts.used_windows(), 4);
  EXPECT_EQ(ts.merged(sid, 3).count, 1u);
  EXPECT_EQ(ts.merged(sid, 0).sum, 7.0);
}

TEST(ObsTimeSeries, CounterDeltasAreWindowedAndSurviveReset) {
  Metrics m(1);
  TimeSeries ts(1, 0.01);
  ts.watch_counters(&m);
  m.add(0, Counter::kFlagWaits, 5);
  ts.sample_counters(0, 0.001);  // window 0: delta 5
  // A --metrics style end-of-run read sees the full value: sampling never
  // mutates the registry (independent watermarks, publish_delta pattern).
  EXPECT_EQ(m.total(Counter::kFlagWaits), 5u);
  m.reset_counters();  // mid-stream reset: value drops below the watermark
  m.add(0, Counter::kFlagWaits, 3);
  ts.sample_counters(0, 0.015);  // window 1: delta restarts from cur = 3
  EXPECT_EQ(ts.counter_sum(Counter::kFlagWaits, 0), 5.0);
  EXPECT_EQ(ts.counter_sum(Counter::kFlagWaits, 1), 3.0);
  EXPECT_EQ(ts.counter_total(Counter::kFlagWaits), 8.0);
}

TEST(ObsTimeSeries, RepeatedSamplesInOneWindowNeverDoubleCount) {
  Metrics m(1);
  TimeSeries ts(1, 0.01);
  ts.watch_counters(&m);
  m.add(0, Counter::kCicoBytes, 100);
  ts.sample_counters(0, 0.002);
  ts.sample_counters(0, 0.004);  // no new increments: zero delta
  m.add(0, Counter::kCicoBytes, 50);
  ts.sample_counters(0, 0.006);
  EXPECT_EQ(ts.counter_sum(Counter::kCicoBytes, 0), 150.0);
  EXPECT_EQ(ts.counter_total(Counter::kCicoBytes), 150.0);
}

TEST(ObsTimeSeries, TwoPlanesWatchingOneRegistryKeepIndependentWatermarks) {
  Metrics m(1);
  TimeSeries a(1, 0.01);
  TimeSeries b(1, 0.01);
  a.watch_counters(&m);
  b.watch_counters(&m);
  m.add(0, Counter::kCicoBytes, 10);
  a.sample_counters(0, 0.001);
  m.add(0, Counter::kCicoBytes, 7);
  a.sample_counters(0, 0.002);
  b.sample_counters(0, 0.002);  // b sees the full 17 in one delta
  EXPECT_EQ(a.counter_total(Counter::kCicoBytes), 17.0);
  EXPECT_EQ(b.counter_total(Counter::kCicoBytes), 17.0);
}

TEST(ObsTimeSeries, RowOfMapsSamplingRanksOntoRegistryRows) {
  Metrics m(2);
  TimeSeries ts(4, 0.01);
  // Plane ranks 1 and 3 own registry rows 0 and 1; ranks 0/2 sample nothing.
  ts.watch_counters(&m, {-1, 0, -1, 1});
  m.add(0, Counter::kFlagWaits, 2);
  m.add(1, Counter::kFlagWaits, 9);
  for (int r = 0; r < 4; ++r) ts.sample_counters(r, 0.001);
  EXPECT_EQ(ts.counter_total(Counter::kFlagWaits), 11.0);
}

TEST(ObsTimeSeries, MergeIsRankOrderedAndJsonIsByteDeterministic) {
  TimeSeries ts(3, 0.01);
  const int sid = ts.add_series("lat");
  ts.record(2, sid, 0.001, 4.0);
  ts.record(0, sid, 0.002, 1.0);
  ts.record(1, sid, 0.003, 0.25);
  const TimeSeries::Cell cell = ts.merged(sid, 0);
  EXPECT_EQ(cell.count, 3u);
  EXPECT_EQ(cell.sum, 1.0 + 0.25 + 4.0);
  EXPECT_EQ(cell.min, 0.25);
  EXPECT_EQ(cell.max, 4.0);
  std::ostringstream os1;
  std::ostringstream os2;
  write_timeseries_json(os1, ts, "det");
  write_timeseries_json(os2, ts, "det");
  EXPECT_EQ(os1.str(), os2.str());
  EXPECT_NE(os1.str().find("\"kind\":\"sample\""), std::string::npos);
}

TEST(ObsTimeSeries, ClearForgetsSamplesAndWatermarks) {
  Metrics m(1);
  TimeSeries ts(1, 0.01);
  const int sid = ts.add_series("lat");
  ts.watch_counters(&m);
  ts.record(0, sid, 0.001, 1.0);
  m.add(0, Counter::kFlagWaits, 4);
  ts.sample_counters(0, 0.001);
  ts.clear();
  EXPECT_EQ(ts.used_windows(), 0);
  EXPECT_EQ(ts.counter_total(Counter::kFlagWaits), 0.0);
  // Watermarks reset too: the next sample re-publishes the full value.
  ts.sample_counters(0, 0.001);
  EXPECT_EQ(ts.counter_total(Counter::kFlagWaits), 4.0);
}

}  // namespace
}  // namespace xhc::obs
