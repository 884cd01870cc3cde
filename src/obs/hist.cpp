#include "obs/hist.h"

#include <algorithm>
#include <cmath>

namespace xhc::obs {

int Histogram::bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // zero, negative, NaN
  int exp = 0;
  // v = m * 2^exp with m in [0.5, 1), so v lives in octave exp-1.
  const double m = std::frexp(v, &exp);
  int octave = exp - 1 - kMinExp;
  if (octave < 0) octave = 0;
  if (octave >= kMaxExp - kMinExp) octave = kMaxExp - kMinExp - 1;
  // m-0.5 in [0, 0.5) -> sub-bucket in [0, kSubBuckets).
  int sub = static_cast<int>((m - 0.5) * (2 * kSubBuckets));
  if (sub < 0) sub = 0;
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + octave * kSubBuckets + sub;
}

double Histogram::bucket_upper(int idx) noexcept {
  if (idx <= 0) return 0.0;
  const int octave = (idx - 1) / kSubBuckets;
  const int sub = (idx - 1) % kSubBuckets;
  const double base = std::ldexp(1.0, kMinExp + octave);
  return base * (1.0 + static_cast<double>(sub + 1) / kSubBuckets);
}

void Histogram::record(double v) noexcept {
  ++counts_[static_cast<std::size_t>(bucket_index(v))];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  if (!(q > 0.0)) return min_;
  if (q >= 1.0) return max_;
  // Rank of the requested sample, 1-based.
  std::uint64_t target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target < 1) target = 1;
  if (target > count_) target = count_;
  std::uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts_[static_cast<std::size_t>(i)];
    if (seen >= target) {
      return std::clamp(bucket_upper(i), min_, max_);
    }
  }
  return max_;
}

const char* to_string(HistKind k) noexcept {
  switch (k) {
    case HistKind::kFlagWait: return "flag_wait";
    case HistKind::kWaitSite: return "wait_site";
    case HistKind::kChunk: return "chunk";
    case HistKind::kOp: return "op";
    case HistKind::kCount_: break;
  }
  return "?";
}

HistSet::HistSet(int n_ranks) : rows_(static_cast<std::size_t>(n_ranks)) {}

Histogram HistSet::merged(HistKind k) const {
  Histogram out;
  for (const Row& row : rows_) out.merge(row.h[static_cast<int>(k)]);
  return out;
}

std::vector<NamedHist> named_hists(const std::vector<const HistSet*>& sets) {
  std::vector<NamedHist> out;
  for (int k = 0; k < kNumHistKinds; ++k) {
    Histogram merged;
    for (const HistSet* set : sets) {
      merged.merge(set->merged(static_cast<HistKind>(k)));
    }
    if (merged.count() == 0) continue;
    out.push_back({to_string(static_cast<HistKind>(k)), merged});
  }
  return out;
}

}  // namespace xhc::obs
