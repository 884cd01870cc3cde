#include "coll/tuning.h"

#include <cstdlib>

#include "fault/fault.h"
#include "util/check.h"

namespace xhc::coll {

const char* to_string(FlagLayout l) {
  switch (l) {
    case FlagLayout::kSingle:
      return "single";
    case FlagLayout::kMultiSharedLine:
      return "shared";
    case FlagLayout::kMultiSeparateLines:
      return "separated";
  }
  return "?";
}

const char* to_string(SyncMethod s) {
  switch (s) {
    case SyncMethod::kSingleWriter:
      return "single-writer";
    case SyncMethod::kAtomicFetchAdd:
      return "atomics";
  }
  return "?";
}

namespace {

std::size_t parse_bytes(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  XHC_CHECK(end != nullptr && *end == '\0' && !value.empty(), key,
            ": bad byte count '", value, "'");
  return static_cast<std::size_t>(v);
}

}  // namespace

void apply_param(Tuning& t, std::string_view assignment) {
  const auto eq = assignment.find('=');
  XHC_CHECK(eq != std::string_view::npos && eq > 0,
            "tuning parameter must be key=value, got '", assignment, "'");
  const std::string key(assignment.substr(0, eq));
  const std::string value(assignment.substr(eq + 1));
  if (key == "xhc_fault") {
    // Validate eagerly so a bad spec fails at configuration time, not at
    // communicator construction.
    (void)fault::Plan::parse(value);
    t.faults = value;
  } else if (key == "xhc_fault_seed") {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    XHC_CHECK(end != nullptr && *end == '\0' && !value.empty(),
              "xhc_fault_seed: bad integer '", value, "'");
    t.fault_seed = static_cast<std::uint64_t>(v);
  } else if (key == "xhc_reg_cache_entries") {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    XHC_CHECK(end != nullptr && *end == '\0' && !value.empty() && v > 0,
              "xhc_reg_cache_entries: bad capacity '", value, "'");
    t.reg_cache_entries = static_cast<std::size_t>(v);
  } else if (key == "xhc_comm_name") {
    t.comm_name = value;
  } else if (key == "xhc_comm_id") {
    char* end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    XHC_CHECK(end != nullptr && *end == '\0' && !value.empty() && v >= -1,
              "xhc_comm_id: bad id '", value, "'");
    t.comm_id = static_cast<int>(v);
  } else if (key == "xhc_rs_ag_threshold") {
    t.rs_ag_threshold = parse_bytes(key, value);
  } else if (key == "xhc_stripe_threshold") {
    t.stripe_threshold = parse_bytes(key, value);
  } else if (key == "xhc_large_chunk_bytes") {
    // Comma-separated per-level list, innermost first, e.g. "65536,262144".
    std::vector<std::size_t> chunks;
    std::size_t pos = 0;
    while (pos <= value.size()) {
      const std::size_t comma = value.find(',', pos);
      const std::string part =
          value.substr(pos, comma == std::string::npos ? comma : comma - pos);
      const std::size_t c = parse_bytes(key, part);
      XHC_CHECK(c > 0, "xhc_large_chunk_bytes: chunk must be nonzero");
      chunks.push_back(c);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    t.large_chunk_bytes = std::move(chunks);
  } else {
    XHC_CHECK(false, "unknown tuning parameter '", key, "'");
  }
}

}  // namespace xhc::coll
