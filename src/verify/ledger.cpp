#include "verify/verify.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string_view>

#include "util/check.h"

namespace xhc::verify {

namespace {

// Keep at least as much history as SimMachine::FlagHist (4096-entry window)
// so the cross-check is never less informed than the model it checks.
constexpr std::size_t kMaxHist = 8192;
constexpr std::size_t kHistDrop = 4096;

std::string addr_str(const void* p) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%p", p);
  return buf;
}

std::string flag_id(const std::string& name, const void* addr) {
  if (name.empty()) return "<unnamed " + addr_str(addr) + ">";
  return "'" + name + "' (" + addr_str(addr) + ")";
}

std::string time_str(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9f", t);
  return buf;
}

}  // namespace

bool enabled_from_env() {
  const char* raw = std::getenv("XHC_VERIFY");
  if (raw == nullptr || *raw == '\0') return false;
  const std::string_view v(raw);
  if (v == "0") return false;
  if (v == "1") return true;
  throw util::Error(util::detail::concat(
      "XHC_VERIFY must be '0' or '1', got '", v, "'"));
}

const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::kSecondWriter:
      return "second-writer";
    case Kind::kNonMonotonic:
      return "non-monotonic";
    case Kind::kRmwOnSingleWriter:
      return "rmw-on-single-writer";
    case Kind::kStalePublish:
      return "stale-publish";
    case Kind::kCostlyLayout:
      return "costly-layout";
  }
  return "?";
}

std::string Violation::describe() const {
  const std::string id = flag_id(flag_name, flag);
  std::string s = "verify[";
  s += to_string(kind);
  s += "]: ";
  switch (kind) {
    case Kind::kSecondWriter:
      s += "rank " + std::to_string(rank) + " stored " +
           std::to_string(value) + " to flag " + id + " owned by rank " +
           std::to_string(other_rank) +
           " (single-writer discipline, paper §III-E)";
      break;
    case Kind::kNonMonotonic:
      s += "rank " + std::to_string(rank) + " stored " +
           std::to_string(value) + " < prior " + std::to_string(prior) +
           " on flag " + id + " (cumulative counters never decrease)";
      break;
    case Kind::kRmwOnSingleWriter:
      s += "rank " + std::to_string(rank) + " fetch_add on flag " + id +
           " not whitelisted as WriterPolicy::kShared (RMW is reserved for "
           "the Fig. 4 atomics baselines)";
      break;
    case Kind::kStalePublish:
      if (publish_vtime < 0.0) {
        s += "rank " + std::to_string(rank) + " observed " +
             std::to_string(value) + " on flag " + id + " at t=" +
             time_str(vtime) + " but that value was never published";
      } else {
        s += "rank " + std::to_string(rank) + " observed " +
             std::to_string(value) + " on flag " + id + " at t=" +
             time_str(vtime) + " before its publish at t=" +
             time_str(publish_vtime);
      }
      break;
    case Kind::kCostlyLayout:
      s += flag_name;  // lint pre-formats the description
      break;
  }
  return s;
}

void Ledger::register_flag(const mach::Flag* f, std::string name,
                           WriterPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  Record& rec = records_[f];
  rec = Record{};
  rec.name = std::move(name);
  rec.policy = policy;
}

Ledger::Record& Ledger::touch(const mach::Flag* f) { return records_[f]; }

void Ledger::report(Violation v) {
  violations_.push_back(v);
  if (abort_) throw util::Error(v.describe());
}

void Ledger::check_store(Record& rec, const mach::Flag* f, int rank,
                         std::uint64_t value, double vtime, bool is_rmw) {
  ++stores_;
  if (is_rmw && rec.policy != WriterPolicy::kShared) {
    Violation v;
    v.kind = Kind::kRmwOnSingleWriter;
    v.flag = f;
    v.flag_name = rec.name;
    v.rank = rank;
    v.value = value;
    if (vtime != kNoTime) v.vtime = vtime;
    report(v);
  }
  if (rec.policy != WriterPolicy::kShared) {
    if (!rec.stored) {
      rec.writer = rank;
    } else if (rank != rec.writer) {
      // kRotating: a new leader may take over, but only at an operation
      // boundary — visible as a strictly increasing value.
      const bool legal_handoff =
          rec.policy == WriterPolicy::kRotating && value > rec.last_value;
      if (!legal_handoff) {
        Violation v;
        v.kind = Kind::kSecondWriter;
        v.flag = f;
        v.flag_name = rec.name;
        v.rank = rank;
        v.other_rank = rec.writer;
        v.value = value;
        v.prior = rec.last_value;
        if (vtime != kNoTime) v.vtime = vtime;
        report(v);
      }
      rec.writer = rank;  // follow the flag even in record-only mode
    }
    if (rec.stored && value < rec.last_value) {
      Violation v;
      v.kind = Kind::kNonMonotonic;
      v.flag = f;
      v.flag_name = rec.name;
      v.rank = rank;
      v.value = value;
      v.prior = rec.last_value;
      if (vtime != kNoTime) v.vtime = vtime;
      report(v);
    }
    rec.last_value = value;
  } else {
    // Concurrent fetch-adds reach the ledger out of order; track the max.
    rec.last_value = std::max(rec.last_value, value);
  }
  rec.stored = true;
  if (vtime != kNoTime) {
    rec.hist.emplace_back(value, vtime);
    if (rec.hist.size() > kMaxHist) {
      rec.floor_value = rec.hist[kHistDrop - 1].first;
      rec.floor_time = rec.hist[kHistDrop - 1].second;
      rec.hist.erase(rec.hist.begin(),
                     rec.hist.begin() + static_cast<std::ptrdiff_t>(kHistDrop));
    }
  }
}

void Ledger::on_store(const mach::Flag* f, int rank, std::uint64_t value,
                      double vtime) {
  std::lock_guard<std::mutex> lock(mu_);
  check_store(touch(f), f, rank, value, vtime, /*is_rmw=*/false);
}

void Ledger::on_rmw(const mach::Flag* f, int rank, std::uint64_t result,
                    double vtime) {
  std::lock_guard<std::mutex> lock(mu_);
  check_store(touch(f), f, rank, result, vtime, /*is_rmw=*/true);
}

void Ledger::on_event(const mach::Event& e) {
  using K = mach::Event::Kind;
  if (e.kind == K::kStore) on_store(e.flag, e.rank, e.value, e.vtime);
  if (e.kind == K::kRmw) on_rmw(e.flag, e.rank, e.value, e.vtime);
  if (e.vtime == kNoTime) return;
  if (e.kind == K::kRead) on_observe(e.flag, e.rank, e.value, e.vtime);
  if (e.kind == K::kWaitEnd) on_wait_resume(e.flag, e.rank, e.value, e.vtime);
}

void Ledger::check_published(Record& rec, const mach::Flag* f, int rank,
                             std::uint64_t value, double vtime, bool exact) {
  if (value == 0) return;  // the initial value is visible at any time
  if (value <= rec.floor_value) return;  // pruned prefix: assume legal
  // Values are monotone per flag, so the first entry reaching `value` is
  // also the earliest in time.
  auto it = std::lower_bound(
      rec.hist.begin(), rec.hist.end(), value,
      [](const std::pair<std::uint64_t, double>& e, std::uint64_t v) {
        return e.first < v;
      });
  const bool found = it != rec.hist.end() && (!exact || it->first == value);
  if (!found) {
    Violation v;
    v.kind = Kind::kStalePublish;
    v.flag = f;
    v.flag_name = rec.name;
    v.rank = rank;
    v.other_rank = rec.writer;
    v.value = value;
    v.vtime = vtime;
    v.publish_vtime = -1.0;  // never published
    report(v);
    return;
  }
  if (it->second > vtime) {
    Violation v;
    v.kind = Kind::kStalePublish;
    v.flag = f;
    v.flag_name = rec.name;
    v.rank = rank;
    v.other_rank = rec.writer;
    v.value = value;
    v.vtime = vtime;
    v.publish_vtime = it->second;
    report(v);
  }
}

void Ledger::on_observe(const mach::Flag* f, int rank, std::uint64_t observed,
                        double vtime) {
  std::lock_guard<std::mutex> lock(mu_);
  ++loads_;
  // A read must return an exactly-published value at or before `vtime`.
  check_published(touch(f), f, rank, observed, vtime, /*exact=*/true);
}

void Ledger::on_wait_resume(const mach::Flag* f, int rank,
                            std::uint64_t threshold, double vtime) {
  std::lock_guard<std::mutex> lock(mu_);
  ++loads_;
  // A wait-ge may resume on any value >= threshold; require the crossing
  // publish to exist by the resume time.
  check_published(touch(f), f, rank, threshold, vtime, /*exact=*/false);
}

void Ledger::forget_range(const void* base, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.lower_bound(base);
  const void* end = static_cast<const std::byte*>(base) + bytes;
  while (it != records_.end() && std::less<const void*>{}(it->first, end)) {
    it = records_.erase(it);
  }
}

void Ledger::report_layout(Violation v, bool expected) {
  std::lock_guard<std::mutex> lock(mu_);
  if (expected) {
    expected_.push_back(std::move(v));
  } else {
    report(std::move(v));
  }
}

void Ledger::set_abort_on_violation(bool abort_on_violation) {
  std::lock_guard<std::mutex> lock(mu_);
  abort_ = abort_on_violation;
}

std::vector<Violation> Ledger::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::vector<Violation> Ledger::expected_findings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expected_;
}

Summary Ledger::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary s;
  s.flags_tracked = records_.size();
  s.stores_checked = stores_;
  s.loads_checked = loads_;
  s.violations = violations_.size();
  s.expected_findings = expected_.size();
  return s;
}

std::string Ledger::flag_name(const void* addr) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.upper_bound(addr);
  if (it == records_.begin()) return "";
  --it;
  // Flags are registered by base address; the record applies when `addr`
  // falls inside the flag object itself.
  const auto* base = static_cast<const char*>(it->first);
  const auto* p = static_cast<const char*>(addr);
  if (p < base || p >= base + sizeof(mach::Flag)) return "";
  return it->second.name;
}

std::optional<WriterPolicy> Ledger::flag_policy(const void* addr) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.upper_bound(addr);
  if (it == records_.begin()) return std::nullopt;
  --it;
  const auto* base = static_cast<const char*>(it->first);
  const auto* p = static_cast<const char*>(addr);
  if (p < base || p >= base + sizeof(mach::Flag)) return std::nullopt;
  return it->second.policy;
}

std::string Ledger::flag_snapshot(const void* addr) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.upper_bound(addr);
  if (it == records_.begin()) return "";
  --it;
  const auto* base = static_cast<const char*>(it->first);
  const auto* p = static_cast<const char*>(addr);
  if (p < base || p >= base + sizeof(mach::Flag)) return "";
  const Record& rec = it->second;
  std::string s = flag_id(rec.name, it->first);
  if (rec.stored) {
    s += " writer=" + std::to_string(rec.writer) +
         " last_value=" + std::to_string(rec.last_value);
  } else {
    s += " (never stored)";
  }
  return s;
}

}  // namespace xhc::verify
