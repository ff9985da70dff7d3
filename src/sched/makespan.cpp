#include "sched/makespan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace jps::sched {

namespace {

void check_lanes(std::span<const double> f, std::span<const double> g) {
  if (f.size() != g.size())
    throw std::invalid_argument("makespan: f/g lane length mismatch");
}

/// Largest power of two <= x, for finite x > 0 (subnormals included).
double binade_floor(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  constexpr std::uint64_t kExponent = 0x7FF0000000000000ULL;
  if ((bits & kExponent) != 0) return std::bit_cast<double>(bits & kExponent);
  const int top_bit = 63 - std::countl_zero(bits);
  return std::bit_cast<double>(std::uint64_t{1} << top_bit);
}

/// x ⊕ d ⊕ d ⊕ … (`m` additions, each rounded), without the O(m) loop.
/// Requires x >= 0 and d >= 0 unless one of them is non-finite.
///
/// Inside a binade [b, 2b) every double is a multiple of one ulp u, and a
/// step that starts and ends inside it rounds x + d to x + round_u(d).  The
/// rounded offset can depend on x only through a tie, and a tie rounds to
/// an even multiple of u — so once x has taken one step inside the binade,
/// every later step adds the same delta = fl(b + d) - b (b is even too).
/// Those steps are jumped as next + j*delta, which is exact: j*delta and
/// the sum are multiples of u no larger than 2b.  A step that would land
/// on 2b lands there in either grid, so the jump may end on the boundary.
/// The sequence doubles at least once per binade, so this takes O(log m)
/// iterations (docs/THEORY.md §9).
double repeat_add(double x, double d, std::int64_t m) {
  if (m <= 0) return x;
  // inf/NaN absorb: x + d is a fixed point of "+ d".  Adding zero is too.
  if (!std::isfinite(x) || !std::isfinite(d) || d == 0.0) return x + d;
  while (m > 0) {
    const double next = x + d;
    --m;
    if (!std::isfinite(next)) return next;  // overflow absorbs too
    const double b = x > 0.0 ? binade_floor(x) : 0.0;
    if (b == 0.0 || next >= 2.0 * b) {  // left the binade: no settled step
      x = next;
      continue;
    }
    const double delta = (b + d) - b;  // 0 when d is absorbed
    // room and delta are k1 * u and k2 * u with k1, k2 <= 2^52, so the
    // quotient never rounds up to the next integer: the floor is exact.
    const double room = 2.0 * b - next;
    const double j = std::min(std::floor(room / delta),  // +inf if delta == 0
                              static_cast<double>(m));
    x = next + j * delta;
    m -= static_cast<std::int64_t>(j);
  }
  return x;
}

struct FlowState {
  double cpu_free = 0.0;
  double link_free = 0.0;
};

/// Jobs of a run stepped one at a time before the jumps take over: while
/// a binade holds only a few steps, a jump costs more than the additions
/// it replaces, and the short runs of an n_jobs = 50 sweep need none.
constexpr int kPlainJobs = 32;

/// Append `n` jobs of (f, g) to the recurrence.  Once one job of the run
/// is in, the max has settled (docs/THEORY.md §9): with f <= g the link
/// wins every later step; with f > g the cpu overtakes it at most once and
/// then keeps winning.  Either way the last job's link time is
///   max(cpu after all jobs, link after all but one without the cpu) + g,
/// both of them repeated sums.
void append_run(FlowState& s, double f, double g, int n) {
  for (int i = 0; i < n && i < kPlainJobs; ++i) {
    s.cpu_free += f;
    s.link_free = std::max(s.cpu_free, s.link_free) + g;
  }
  const std::int64_t rest = static_cast<std::int64_t>(n) - kPlainJobs;
  if (rest <= 0) return;
  const double cpu = repeat_add(s.cpu_free, f, rest);
  const double link = repeat_add(s.link_free, g, rest - 1);
  s.link_free = std::max(cpu, link) + g;
  s.cpu_free = cpu;
}

}  // namespace

std::vector<JobTimeline> flowshop2_timeline(std::span<const Job> jobs) {
  std::vector<JobTimeline> timeline;
  timeline.reserve(jobs.size());
  double cpu_free = 0.0;   // mobile CPU available from
  double link_free = 0.0;  // uplink available from
  for (const Job& job : jobs) {
    JobTimeline t;
    t.job_id = job.id;
    t.comp_start = cpu_free;
    t.comp_end = t.comp_start + job.f;
    t.comm_start = std::max(t.comp_end, link_free);
    t.comm_end = t.comm_start + job.g;
    cpu_free = t.comp_end;
    link_free = t.comm_end;
    timeline.push_back(t);
  }
  return timeline;
}

double flowshop2_makespan(std::span<const Job> jobs) {
  double cpu_free = 0.0;
  double link_free = 0.0;
  for (const Job& job : jobs) {
    cpu_free += job.f;
    link_free = std::max(cpu_free, link_free) + job.g;
  }
  return jobs.empty() ? 0.0 : link_free;
}

double flowshop2_makespan(std::span<const double> f,
                          std::span<const double> g) {
  check_lanes(f, g);
  double cpu_free = 0.0;
  double link_free = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    cpu_free += f[i];
    link_free = std::max(cpu_free, link_free) + g[i];
  }
  return f.empty() ? 0.0 : link_free;
}

double two_type_flowshop2_makespan(double f_a, double g_a, int n_a, double f_b,
                                   double g_b, int n_b) {
  const auto negative = [](double f, double g, int n) {
    return n > 0 && (f < 0.0 || g < 0.0);
  };
  if (negative(f_a, g_a, n_a) || negative(f_b, g_b, n_b))
    throw std::invalid_argument(
        "two_type_flowshop2_makespan: negative stage length");
  FlowState s;
  append_run(s, f_a, g_a, n_a);
  append_run(s, f_b, g_b, n_b);
  return n_a <= 0 && n_b <= 0 ? 0.0 : s.link_free;
}

std::vector<JobTimeline> flowshop3_timeline(std::span<const Job> jobs) {
  std::vector<JobTimeline> timeline;
  timeline.reserve(jobs.size());
  double cpu_free = 0.0;
  double link_free = 0.0;
  double cloud_free = 0.0;
  for (const Job& job : jobs) {
    JobTimeline t;
    t.job_id = job.id;
    t.comp_start = cpu_free;
    t.comp_end = t.comp_start + job.f;
    t.comm_start = std::max(t.comp_end, link_free);
    t.comm_end = t.comm_start + job.g;
    t.cloud_start = std::max(t.comm_end, cloud_free);
    t.cloud_end = t.cloud_start + job.cloud;
    cpu_free = t.comp_end;
    link_free = t.comm_end;
    cloud_free = t.cloud_end;
    timeline.push_back(t);
  }
  return timeline;
}

double flowshop3_makespan(std::span<const Job> jobs) {
  const auto timeline = flowshop3_timeline(jobs);
  double makespan = 0.0;
  for (const auto& t : timeline) makespan = std::max(makespan, t.cloud_end);
  return makespan;
}

double closed_form_makespan(std::span<const Job> jobs_in_order) {
  // The exact critical-path identity for F2||Cmax in a fixed order:
  //   Cmax = max_k ( sum_{i<=k} f_i + sum_{i>=k} g_i ).
  // Evaluated with a running f-prefix and g-suffix in one O(n) pass.  An
  // earlier version kept only the k=1 and k=n terms (the paper's Prop. 4.1
  // rendering, which is exact only under Johnson order on a monotone
  // curve); jobs (1,1),(10,10),(1,1) exposed the gap (13 vs the true 22).
  double suffix_g = 0.0;
  for (const Job& job : jobs_in_order) suffix_g += job.g;
  double prefix_f = 0.0;
  double makespan = 0.0;
  for (const Job& job : jobs_in_order) {
    prefix_f += job.f;                                  // now sum_{i<=k} f_i
    makespan = std::max(makespan, prefix_f + suffix_g);  // g still holds g_k
    suffix_g -= job.g;
  }
  return makespan;
}

double closed_form_makespan(std::span<const double> f,
                            std::span<const double> g) {
  check_lanes(f, g);
  double suffix_g = 0.0;
  for (const double gi : g) suffix_g += gi;
  double prefix_f = 0.0;
  double makespan = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    prefix_f += f[i];
    makespan = std::max(makespan, prefix_f + suffix_g);
    suffix_g -= g[i];
  }
  return makespan;
}

double average_makespan_bound(std::span<const Job> jobs) {
  if (jobs.empty()) return 0.0;
  double sum_f = 0.0;
  double sum_g = 0.0;
  for (const Job& job : jobs) {
    sum_f += job.f;
    sum_g += job.g;
  }
  const auto n = static_cast<double>(jobs.size());
  return std::max(sum_f, sum_g) / n;
}

}  // namespace jps::sched
