#include "sim/resources.h"

#include <algorithm>

#include "util/check.h"

namespace xhc::sim {

void ResourceLedger::set_capacity(ResId res, double bytes_per_sec) {
  XHC_REQUIRE(bytes_per_sec > 0.0, "capacity must be positive");
  XHC_REQUIRE(res.index >= 0, "negative resource index ", res.index);
  auto& kind = states_[static_cast<std::size_t>(res.kind)];
  const auto i = static_cast<std::size_t>(res.index);
  if (i >= kind.size()) kind.resize(i + 1);
  kind[i].capacity = bytes_per_sec;
}

ResourceLedger::State& ResourceLedger::state(ResId res) {
  auto& kind = states_[static_cast<std::size_t>(res.kind)];
  const auto i = static_cast<std::size_t>(res.index);
  XHC_CHECK(res.index >= 0 && i < kind.size() && kind[i].capacity > 0.0,
            "resource has no capacity set (kind=", static_cast<int>(res.kind),
            " index=", res.index, ")");
  return kind[i];
}

void ResourceLedger::expire(State& s, double t) {
  // ends is sorted; drop the prefix of finished transfers.
  auto it = std::upper_bound(s.ends.begin(), s.ends.end(), t);
  s.ends.erase(s.ends.begin(), it);
}

double ResourceLedger::share(ResId res, double t) {
  State& s = state(res);
  expire(s, t);
  return s.capacity / (1.0 + static_cast<double>(s.ends.size()));
}

void ResourceLedger::book(ResId res, double t_start, double t_end) {
  XHC_REQUIRE(t_end >= t_start, "negative transfer duration");
  State& s = state(res);
  expire(s, t_start);
  s.ends.insert(std::upper_bound(s.ends.begin(), s.ends.end(), t_end), t_end);
}

int ResourceLedger::active(ResId res, double t) {
  State& s = state(res);
  expire(s, t);
  return static_cast<int>(s.ends.size());
}

}  // namespace xhc::sim
