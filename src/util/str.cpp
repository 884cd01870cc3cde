#include "util/str.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/check.h"

namespace xhc::util {

namespace {

/// Parses the whole of flag `key`'s value with `parse` (strtol / strtod);
/// throws util::Error naming the flag when the value is not one `kind` or
/// is out of range.
template <typename T, typename Parse>
T parse_whole(std::string_view key, const std::string& v, const char* kind,
              Parse parse) {
  char* end = nullptr;
  errno = 0;
  const T x = parse(v.c_str(), &end);
  if (*end != '\0') {
    throw Error(detail::concat("--", key, "=", v, ": not ", kind));
  }
  if (errno == ERANGE) {
    throw Error(detail::concat("--", key, "=", v, ": out of range"));
  }
  return x;
}

}  // namespace

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<std::size_t> parse_size(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::size_t mult = 1;
  const char last = s.back();
  if (last == 'K' || last == 'k') {
    mult = 1024;
    s.remove_suffix(1);
  } else if (last == 'M' || last == 'm') {
    mult = 1024 * 1024;
    s.remove_suffix(1);
  } else if (last == 'G' || last == 'g') {
    mult = 1024ull * 1024 * 1024;
    s.remove_suffix(1);
  }
  if (s.empty()) return std::nullopt;
  std::size_t value = 0;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value * mult;
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) continue;
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      kv_.emplace_back(std::string(arg), "");
    } else {
      kv_.emplace_back(std::string(arg.substr(0, eq)),
                       std::string(arg.substr(eq + 1)));
    }
  }
}

bool Args::has(std::string_view key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return true;
  }
  return false;
}

std::vector<std::string> Args::get_all(std::string_view key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (k == key) out.push_back(v);
  }
  return out;
}

std::string Args::get(std::string_view key, std::string def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return def;
}

long Args::get_long(std::string_view key, long def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key && !v.empty()) {
      return parse_whole<long>(key, v, "an integer",
                               [](const char* p, char** end) {
                                 return std::strtol(p, end, 10);
                               });
    }
  }
  return def;
}

double Args::get_double(std::string_view key, double def) const {
  for (const auto& [k, v] : kv_) {
    if (k == key && !v.empty()) {
      return parse_whole<double>(key, v, "a number", [](const char* p,
                                                        char** end) {
        return std::strtod(p, end);
      });
    }
  }
  return def;
}

}  // namespace xhc::util
