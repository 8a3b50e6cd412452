// Hot-path precondition checks.
//
// The simulation's innermost loops (the peeling decoder's structure-only
// path, the grid trackers) index their arrays without range checks in
// release builds; their public entry points keep the checks.  In debug
// builds (NDEBUG unset) and in sanitizer builds (FECSCHED_CHECKED, set by
// the FECSCHED_SANITIZE CMake option) FECSCHED_HOT_CHECK aborts with the
// failed condition instead, so a wrong index is caught at its source
// rather than as a stray memory access.

#pragma once

#include <cstdio>
#include <cstdlib>

#if !defined(NDEBUG) || defined(FECSCHED_CHECKED)
#define FECSCHED_HOT_CHECK(cond)                                       \
  ((cond) ? static_cast<void>(0)                                       \
          : ::fecsched::detail::hot_check_failed(#cond, __FILE__, __LINE__))
#else
#define FECSCHED_HOT_CHECK(cond) static_cast<void>(0)
#endif

namespace fecsched::detail {

[[noreturn]] inline void hot_check_failed(const char* cond, const char* file,
                                          int line) {
  std::fprintf(stderr, "%s:%d: hot-path check failed: %s\n", file, line, cond);
  std::abort();
}

}  // namespace fecsched::detail
