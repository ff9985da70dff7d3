// O(n) reference implementations of the two-type planner kernels, kept as
// differential oracles: sched::two_type_flowshop2_makespan and
// core::best_two_type_split must return exactly what these loops return.
// Header-only so the unit tests and fuzz/fuzz_two_type.cpp share them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/planner.h"

namespace jps::oracle {

/// The two-run flow-shop recurrence, one job at a time.
inline double two_type_flowshop2_loop(double f_a, double g_a, int n_a,
                                      double f_b, double g_b, int n_b) {
  double cpu_free = 0.0;
  double link_free = 0.0;
  for (int i = 0; i < n_a; ++i) {
    cpu_free += f_a;
    link_free = std::max(cpu_free, link_free) + g_a;
  }
  for (int i = 0; i < n_b; ++i) {
    cpu_free += f_b;
    link_free = std::max(cpu_free, link_free) + g_b;
  }
  return n_a <= 0 && n_b <= 0 ? 0.0 : link_free;
}

/// Every split n_a = 0..n_jobs; the first strictly smaller makespan wins.
/// The counter is 64-bit so n_jobs == INT_MAX terminates.
inline int best_two_type_split_scan(double f_a, double g_a, double f_b,
                                    double g_b, int n_jobs) {
  int best_split = 0;
  double best_makespan = std::numeric_limits<double>::infinity();
  for (std::int64_t i = 0; i <= n_jobs; ++i) {
    const int n_a = static_cast<int>(i);
    const double ms =
        core::two_type_makespan(f_a, g_a, f_b, g_b, n_a, n_jobs - n_a);
    if (ms < best_makespan) {
      best_makespan = ms;
      best_split = n_a;
    }
  }
  return best_split;
}

}  // namespace jps::oracle
