#include "sched/johnson.h"

#include <algorithm>
#include <stdexcept>

namespace jps::sched {

namespace {

// Alg. 1 over n jobs whose stages are read through f(i) and g(i).
template <class StageF, class StageG>
JohnsonSchedule johnson_order_of(std::size_t n, StageF f, StageG g) {
  JohnsonSchedule schedule;
  std::vector<std::size_t> s1;  // communication-heavy: f < g
  std::vector<std::size_t> s2;  // computation-heavy:  f >= g
  for (std::size_t i = 0; i < n; ++i) {
    if (f(i) < 0.0 || g(i) < 0.0)
      throw std::invalid_argument("johnson_order: negative stage length");
    (f(i) < g(i) ? s1 : s2).push_back(i);
  }
  // Index tie-breaks make both comparators strict total orders, so the
  // sorted permutation is unique and an already sorted run (every two-type
  // plan on a monotone curve) can skip the O(n log n) sort.
  const auto ascending_f = [&](std::size_t a, std::size_t b) {
    if (f(a) != f(b)) return f(a) < f(b);
    return a < b;
  };
  const auto descending_g = [&](std::size_t a, std::size_t b) {
    if (g(a) != g(b)) return g(a) > g(b);
    return a < b;
  };
  if (!std::is_sorted(s1.begin(), s1.end(), ascending_f))
    std::sort(s1.begin(), s1.end(), ascending_f);
  if (!std::is_sorted(s2.begin(), s2.end(), descending_g))
    std::sort(s2.begin(), s2.end(), descending_g);
  schedule.comm_heavy_count = s1.size();
  schedule.order = std::move(s1);
  schedule.order.insert(schedule.order.end(), s2.begin(), s2.end());
  return schedule;
}

}  // namespace

JohnsonSchedule johnson_order(std::span<const Job> jobs) {
  return johnson_order_of(
      jobs.size(), [&](std::size_t i) { return jobs[i].f; },
      [&](std::size_t i) { return jobs[i].g; });
}

JohnsonSchedule johnson_order(std::span<const double> f,
                              std::span<const double> g) {
  if (f.size() != g.size())
    throw std::invalid_argument("johnson_order: f/g lane size mismatch");
  return johnson_order_of(
      f.size(), [&](std::size_t i) { return f[i]; },
      [&](std::size_t i) { return g[i]; });
}

JobList apply_order(std::span<const Job> jobs,
                    std::span<const std::size_t> order) {
  if (order.size() != jobs.size())
    throw std::invalid_argument("apply_order: order/jobs size mismatch");
  JobList out;
  out.reserve(jobs.size());
  for (std::size_t idx : order) {
    if (idx >= jobs.size()) throw std::out_of_range("apply_order: bad index");
    out.push_back(jobs[idx]);
  }
  return out;
}

}  // namespace jps::sched
