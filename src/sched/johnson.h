// Johnson's rule for the two-machine flow shop (Alg. 1 of the paper).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sched/job.h"

namespace jps::sched {

/// Result of Alg. 1: a processing order plus the S1/S2 split for inspection.
struct JohnsonSchedule {
  /// Permutation of indices into the input span; jobs run in this order.
  std::vector<std::size_t> order;
  /// The first `comm_heavy_count` entries of `order` form the
  /// communication-heavy set S1 (f < g), sorted by ascending f; the rest form
  /// S2 (f >= g), sorted by descending g.
  std::size_t comm_heavy_count = 0;
};

/// Compute the Johnson order of `jobs`.  O(n log n); O(n) when S1 and S2
/// already arrive in their sorted order.  This order minimizes
/// the makespan of the 2-stage pipeline (computation then communication) —
/// the classical optimality of Johnson's rule [Johnson 1954].
/// Ties are broken by job index, making the result deterministic.
/// Throws std::invalid_argument for a negative stage length.
[[nodiscard]] JohnsonSchedule johnson_order(std::span<const Job> jobs);

/// johnson_order over structure-of-arrays lanes: job i has stages
/// (f[i], g[i]).  Returns the same schedule as the Job-span overload on the
/// same jobs.  Throws std::invalid_argument when the lanes disagree in
/// length.
[[nodiscard]] JohnsonSchedule johnson_order(std::span<const double> f,
                                            std::span<const double> g);

/// Convenience: reorder a copy of `jobs` into Johnson order.
[[nodiscard]] JobList apply_order(std::span<const Job> jobs,
                                  std::span<const std::size_t> order);

}  // namespace jps::sched
