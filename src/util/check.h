// Lightweight runtime checking utilities.
//
// XHC_CHECK(cond, msg...) — always-on invariant check; throws xhc::util::Error.
// XHC_REQUIRE(cond, msg...) — precondition check on public API boundaries.
//
// Following the C++ Core Guidelines (I.6/I.8, E.12), violations of invariants
// and preconditions are reported through exceptions carrying a formatted
// description of the failing site; they are never silently ignored.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace xhc::util {

/// Exception type thrown by all XHC_CHECK / XHC_REQUIRE failures.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] void fail(const char* kind, const char* expr, const char* file,
                       int line, const std::string& msg);

// Concatenate a variadic message pack into a string via a stream.
template <typename... Ts>
std::string concat(const Ts&... parts) {
  std::ostringstream os;
  ((os << parts), ...);
  return os.str();
}

}  // namespace detail

}  // namespace xhc::util

#define XHC_CHECK(cond, ...)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::xhc::util::detail::fail("check", #cond, __FILE__, __LINE__,       \
                                ::xhc::util::detail::concat(__VA_ARGS__)); \
    }                                                                     \
  } while (0)

#define XHC_REQUIRE(cond, ...)                                            \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::xhc::util::detail::fail("require", #cond, __FILE__, __LINE__,     \
                                ::xhc::util::detail::concat(__VA_ARGS__)); \
    }                                                                     \
  } while (0)
