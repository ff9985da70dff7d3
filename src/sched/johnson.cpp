#include "sched/johnson.h"

#include <algorithm>
#include <stdexcept>

namespace jps::sched {

JohnsonSchedule johnson_order(std::span<const Job> jobs) {
  JohnsonSchedule schedule;
  std::vector<std::size_t> s1;  // communication-heavy: f < g
  std::vector<std::size_t> s2;  // computation-heavy:  f >= g
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].f < 0.0 || jobs[i].g < 0.0)
      throw std::invalid_argument("johnson_order: negative stage length");
    (jobs[i].f < jobs[i].g ? s1 : s2).push_back(i);
  }
  // Index tie-breaks make both comparators strict total orders, so the
  // sorted permutation is unique and an already sorted run (every two-type
  // plan on a monotone curve) can skip the O(n log n) sort.
  const auto ascending_f = [&](std::size_t a, std::size_t b) {
    if (jobs[a].f != jobs[b].f) return jobs[a].f < jobs[b].f;
    return a < b;
  };
  const auto descending_g = [&](std::size_t a, std::size_t b) {
    if (jobs[a].g != jobs[b].g) return jobs[a].g > jobs[b].g;
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
