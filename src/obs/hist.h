#pragma once

// Fixed-size log-bucketed (HDR-style) latency histograms.
//
// A Histogram covers the value domain [2^kMinExp, 2^kMaxExp) seconds with
// kSubBuckets linearly-spaced sub-buckets per power-of-two octave, so the
// recorded value is never more than one part in kSubBuckets away from its
// bucket bound (~3% relative resolution at kSubBits = 5). The record path
// is allocation-free and branch-light; histograms merge across ranks by
// plain bucket addition, which is commutative and therefore deterministic
// regardless of merge order. min/max/sum are tracked exactly, and reported
// percentiles are clamped into [min, max] so degenerate distributions
// (single sample, constant samples) yield exact values.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xhc::obs {

class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;
  // 2^-44 s is far below any virtual-time quantum; 2^16 s (~18 h) is far
  // above any latency we measure. Out-of-domain values clamp to the edge
  // buckets; zero and negative values land in the dedicated zero bucket.
  static constexpr int kMinExp = -44;
  static constexpr int kMaxExp = 16;
  static constexpr int kNumBuckets = (kMaxExp - kMinExp) * kSubBuckets + 1;

  Histogram() = default;

  /// Map a value to its bucket index (0 = zero/negative bucket).
  static int bucket_index(double v) noexcept;
  /// Inclusive upper bound of a bucket (0.0 for the zero bucket).
  static double bucket_upper(int idx) noexcept;

  /// Record one sample. Allocation-free; single-writer (not thread-safe).
  void record(double v) noexcept;

  /// Fold `other` into this histogram (bucket addition; order-independent).
  void merge(const Histogram& other) noexcept;

  /// q in [0, 1]; q=0 returns min(), q=1 returns max(). The interior result
  /// is the bucket upper bound holding the ceil(q*count)-th sample, clamped
  /// into [min, max]. Returns 0 for an empty histogram.
  double percentile(double q) const noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  std::uint64_t bucket_count(int idx) const noexcept {
    return counts_[static_cast<std::size_t>(idx)];
  }

 private:
  std::array<std::uint64_t, kNumBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// What a latency sample measured. One histogram per (rank, kind).
enum class HistKind : int {
  kFlagWait = 0,  ///< blocked flag waits the machines report (WaitRecorder)
  kWaitSite,      ///< named wait sites in the collective core (core/)
  kChunk,         ///< per-chunk pipeline latencies (core/)
  kOp,            ///< whole collective operations
  kCount_,
};
inline constexpr int kNumHistKinds = static_cast<int>(HistKind::kCount_);

const char* to_string(HistKind k) noexcept;

/// Per-rank histogram rows: each rank records into its own row (single
/// writer, no synchronization), rows merge after the parallel region.
class HistSet {
 public:
  explicit HistSet(int n_ranks);

  void record(int rank, HistKind k, double v) noexcept {
    rows_[static_cast<std::size_t>(rank)].h[static_cast<int>(k)].record(v);
  }

  const Histogram& hist(int rank, HistKind k) const noexcept {
    return rows_[static_cast<std::size_t>(rank)].h[static_cast<int>(k)];
  }

  /// Merge one kind across all ranks.
  Histogram merged(HistKind k) const;

  /// Folds `h` into `rank`'s `k` histogram (outside parallel regions).
  void merge(int rank, HistKind k, const Histogram& h) noexcept {
    rows_[static_cast<std::size_t>(rank)].h[static_cast<int>(k)].merge(h);
  }

  int n_ranks() const noexcept { return static_cast<int>(rows_.size()); }

 private:
  struct Row {
    Histogram h[kNumHistKinds];
  };
  std::vector<Row> rows_;
};

/// A labelled merged histogram, the unit the exporters consume.
struct NamedHist {
  std::string name;
  Histogram hist;
};

/// One NamedHist per non-empty kind, in kind order, merged over every set's
/// ranks in list order.
std::vector<NamedHist> named_hists(const std::vector<const HistSet*>& sets);

}  // namespace xhc::obs
