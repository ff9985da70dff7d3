// Extension bench: the §6.1 deployment loop with REAL measurements — run
// the numeric kernels on this host, time every layer, build the lookup
// table, and plan from it.  Nothing analytic in the mobile-side path; the
// channel stays modeled (there is no second machine here).
#include <iostream>
#include <map>

#include "common.h"
#include "core/planner.h"
#include "models/zoo.h"
#include "runtime/host_profiler.h"
#include "util/table.h"

int main() {
  using namespace jps;
  bench::print_banner("Extension: host-measured profiling",
                      "Wall-clock per-layer measurement of the numeric "
                      "kernels on THIS machine -> lookup table -> JPS plan");

  // A mid-size synthetic CNN keeps every layer quick enough to time.
  models::SyntheticLineSpec spec;
  spec.blocks = 6;
  spec.input_size = 64;
  spec.base_channels = 16;
  spec.fc_sizes = {64, 10};
  dnn::Graph g = models::synthetic_line(spec);
  g.infer();

  runtime::HostProfilerOptions options;
  options.trials = 5;
  options.warmup = 1;
  const auto records = runtime::profile_on_host(g, options);
  profile::LookupTable table;
  table.add_graph(g, records);

  std::cout << "\nper-layer wall-clock medians on this host ("
            << options.trials << " trials):\n";
  util::Table layer_table({"node", "layer", "median (ms)", "stddev (ms)"});
  double total = 0.0;
  for (const auto& rec : records) {
    if (rec.median_ms <= 0.0) continue;
    layer_table.add_row({std::to_string(rec.node), g.label(rec.node),
                         util::format_ms(rec.median_ms),
                         util::format_ms(rec.stddev_ms)});
    total += rec.median_ms;
  }
  std::cout << layer_table << "total measured inference: "
            << util::format_ms(total) << " ms\n";

  std::cout << "\nJPS plans from the MEASURED curve (20 jobs):\n";
  util::Table plan_table({"uplink (Mbps)", "LO ms/job", "CO ms/job",
                          "JPS+ ms/job", "JPS+ cut mix"});
  for (const double mbps : {1.0, 5.0, 20.0, 100.0}) {
    const auto curve =
        partition::ProfileCurve::build(g, table, net::Channel(mbps));
    const core::Planner planner(curve);
    const auto lo = planner.plan(core::Strategy::kLocalOnly, 20);
    const auto co = planner.plan(core::Strategy::kCloudOnly, 20);
    const auto jps = planner.plan(core::Strategy::kJPSHull, 20);
    std::map<std::size_t, int> mix;
    for (const auto& job : jps.jobs) ++mix[job.cut_index];
    std::string mix_str;
    for (const auto& [cut, count] : mix) {
      if (!mix_str.empty()) mix_str += " + ";
      mix_str += std::to_string(count) + "@" + std::to_string(cut);
    }
    plan_table.add_row({util::format_fixed(mbps, 1),
                        util::format_ms(lo.makespan_per_job()),
                        util::format_ms(co.makespan_per_job()),
                        util::format_ms(jps.makespan_per_job()), mix_str});
  }
  std::cout << plan_table
            << "(absolute times reflect this machine's fp32 kernels, not a\n"
               "Pi; the planning pipeline is identical either way.)\n";
  return 0;
}
