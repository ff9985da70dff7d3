// Extension bench: streamed arrivals.  The paper assumes all jobs released
// at time 0 (§3.1); real camera pipelines emit frames every T ms.  This
// bench sweeps the frame period for a 4-camera AlexNet workload and compares
// arrival-order streaming against windowed Johnson batching, bracketing them
// with the all-at-0 lower bound.
#include <iostream>

#include "common.h"
#include "partition/binary_search.h"
#include "sched/release.h"
#include "sim/event_sim.h"
#include "util/table.h"

int main() {
  using namespace jps;
  const std::string trace_path = bench::maybe_trace_path("ext_streaming");
  bench::print_banner("Extension: streamed arrivals",
                      "4 cameras x 8 rounds of AlexNet frames arriving every "
                      "T ms at 4G; streaming vs batched Johnson");

  const bench::Testbed testbed("alexnet");
  const double mbps = net::kBandwidth4GMbps;
  const auto curve = testbed.curve(mbps);
  const core::Planner planner(curve);

  // Use the JPS cut mix for the whole horizon (32 jobs).
  constexpr int kCameras = 4;
  constexpr int kRounds = 8;
  constexpr int kJobs = kCameras * kRounds;
  const core::ExecutionPlan plan = planner.plan(core::Strategy::kJPS, kJobs);

  util::Table table({"frame period (ms)", "arrival order (s)",
                     "windowed Johnson (s)", "all-at-0 bound (s)",
                     "windowed vs arrival"});
  // Deal the Johnson-ordered jobs to rounds ROUND-ROBIN, so every arrival
  // round carries a mix of the two cut types (each camera batch has both
  // shallow- and deep-cut frames), and the within-round order matters.
  const sched::JobList scheduled = plan.job_list();
  std::vector<sched::Job> dealt(scheduled.size());
  for (std::size_t k = 0; k < scheduled.size(); ++k) {
    const std::size_t round = k % kRounds;
    const std::size_t slot = k / kRounds;
    dealt[round * kCameras + slot] = scheduled[k];
  }
  for (const double period :
       {0.0, 200.0, 500.0, 700.0, 900.0, 1200.0}) {
    std::vector<sched::TimedJob> jobs;
    for (int r = 0; r < kRounds; ++r) {
      for (int c = 0; c < kCameras; ++c) {
        const std::size_t k = static_cast<std::size_t>(r * kCameras + c);
        jobs.push_back(
            sched::TimedJob{dealt[k], static_cast<double>(r) * period});
      }
    }
    auto eval = [&](const std::vector<std::size_t>& order) {
      std::vector<sched::TimedJob> ordered;
      for (const std::size_t idx : order) ordered.push_back(jobs[idx]);
      return sched::flowshop2_makespan_released(ordered);
    };
    const double stream = eval(sched::johnson_by_release(jobs));
    // Window: two arrival rounds per batch (a small look-ahead buffer).
    const double batched =
        eval(sched::batched_johnson(jobs, std::max(1.0, 2.0 * period)));
    const double bound = plan.predicted_makespan;
    table.add_row({util::format_fixed(period, 0),
                   util::format_fixed(stream / 1e3, 2),
                   util::format_fixed(batched / 1e3, 2),
                   util::format_fixed(bound / 1e3, 2),
                   util::format_pct(1.0 - batched / stream)});
  }
  std::cout << table
            << "\n(Fast arrivals recover the paper's all-at-0 setting and the\n"
               "offline bound exactly.  Past the saturation period the\n"
               "pipeline is arrival-limited: makespan grows with the period\n"
               "and re-ordering inside windows cannot help — it can even\n"
               "hurt, since placing a later-released frame first idles the\n"
               "CPU.  On this compute-bound workload the streaming policy's\n"
               "order barely matters; Johnson grouping pays off only when\n"
               "compute and communication are balanced, as the scheduling\n"
               "ablation shows for the all-at-0 case.)\n";

  if (!trace_path.empty()) {
    // Timeline for the trace: the all-at-0 bound executed as a 2-stage
    // pipeline (compute on the mobile CPU, then the uplink transfer).
    sim::EventSimulator timeline;
    const sim::ResourceId cpu = timeline.add_resource("mobile_cpu");
    const sim::ResourceId link = timeline.add_resource("uplink");
    for (const sched::Job& job : scheduled) {
      const std::string tag = "j" + std::to_string(job.id);
      const sim::TaskId comp =
          timeline.add_task(cpu, job.f, {}, tag + ":comp");
      timeline.add_task(link, job.g, {comp}, tag + ":tx");
    }
    timeline.run();
    bench::write_trace_file(trace_path, &timeline);
  }
  return 0;
}
