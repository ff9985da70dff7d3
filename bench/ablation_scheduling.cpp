// Scheduling ablation: on identical JPS partitions, compare Johnson's rule
// (Alg. 1) against FIFO, reversed-Johnson and shuffled orders, plus the
// 3-stage check that the cloud stage is pipeline-hidden.
#include <algorithm>
#include <iostream>

#include "common.h"
#include "models/registry.h"
#include "sched/johnson.h"
#include "sched/makespan.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace jps;
  bench::print_banner("Ablation: scheduling",
                      "Johnson's rule vs FIFO / reversed / random orders on "
                      "the same partitions (4G, 100 jobs)");

  constexpr int kJobs = 100;
  constexpr double kMbps = net::kBandwidth4GMbps;

  util::Table table({"model", "Johnson (s)", "FIFO (s)", "reversed (s)",
                     "random avg (s)", "Johnson vs FIFO"});
  for (const auto& model : models::paper_eval_names()) {
    const bench::Testbed testbed(model);
    const auto curve = testbed.curve(kMbps);
    const core::Planner planner(curve);
    const core::ExecutionPlan plan = planner.plan(core::Strategy::kJPS, kJobs);

    // The same job multiset under different orders.
    const sched::JobList johnson_jobs = plan.job_list();
    const double johnson = sched::flowshop2_makespan(johnson_jobs);

    // FIFO arrival order: the two job types interleave (e.g. frames from
    // alternating cameras), instead of Johnson's S1-then-S2 grouping.
    sched::JobList fifo;
    {
      sched::JobList s1(johnson_jobs.begin(),
                        johnson_jobs.begin() +
                            static_cast<long>(plan.comm_heavy_count));
      sched::JobList s2(johnson_jobs.begin() +
                            static_cast<long>(plan.comm_heavy_count),
                        johnson_jobs.end());
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < s1.size() || j < s2.size()) {
        if (i < s1.size()) fifo.push_back(s1[i++]);
        if (j < s2.size()) fifo.push_back(s2[j++]);
      }
    }
    const double fifo_ms = sched::flowshop2_makespan(fifo);

    sched::JobList reversed(johnson_jobs.rbegin(), johnson_jobs.rend());
    const double reversed_ms = sched::flowshop2_makespan(reversed);

    util::Rng rng(2021);
    double random_total = 0.0;
    constexpr int kShuffles = 20;
    sched::JobList shuffled = johnson_jobs;
    for (int i = 0; i < kShuffles; ++i) {
      std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
      random_total += sched::flowshop2_makespan(shuffled);
    }
    const double random_ms = random_total / kShuffles;

    table.add_row({model, util::format_fixed(johnson / 1e3, 2),
                   util::format_fixed(fifo_ms / 1e3, 2),
                   util::format_fixed(reversed_ms / 1e3, 2),
                   util::format_fixed(random_ms / 1e3, 2),
                   util::format_pct(1.0 - johnson / fifo_ms)});
  }
  std::cout << table;

  std::cout << "\n--- cloud stage visibility (3-stage vs 2-stage flow shop) ---\n";
  util::Table cloud_table({"model", "2-stage (s)", "3-stage (s)", "inflation"});
  for (const auto& model : models::paper_eval_names()) {
    const bench::Testbed testbed(model);
    const net::Channel channel(kMbps);
    partition::CurveOptions opt;
    opt.with_cloud_times = true;
    const auto curve = partition::ProfileCurve::build(
        testbed.graph(), testbed.mobile(), channel, opt, &testbed.cloud());
    const core::Planner planner(curve);
    core::ExecutionPlan plan = planner.plan(core::Strategy::kJPS, kJobs);
    sched::JobList with_cloud = plan.job_list();
    for (auto& job : with_cloud)
      job.cloud = curve.cut(static_cast<std::size_t>(job.cut)).cloud;
    const double two = sched::flowshop2_makespan(plan.f_lane, plan.g_lane);
    const double three = sched::flowshop3_makespan(with_cloud);
    cloud_table.add_row({model, util::format_fixed(two / 1e3, 3),
                         util::format_fixed(three / 1e3, 3),
                         util::format_pct(three / two - 1.0)});
  }
  std::cout << cloud_table
            << "(validates §3.1's \"cloud computation time is negligible\" "
               "as a pipeline property, not an assumption)\n";
  return 0;
}
