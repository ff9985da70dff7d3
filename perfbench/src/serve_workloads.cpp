// serve-hot and serve-cold: an open loop of Poisson arrivals against a
// jps_serve daemon over loopback TCP, a max-rate ladder, and (traced run)
// the daemon's own spans drained through TRACE_DUMP.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "daemon.h"
#include "load.h"
#include "models/registry.h"
#include "obs/flight_recorder.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace jps;

namespace {

/// Load connections; with the control connection this is one per core of
/// the 4-core reference host.
constexpr int kLoadConnections = 3;
/// The latency limit of max_rate_rps: under 1% of a Fig. 12 batch makespan.
/// It applies to the median: on a shared 4-core VM an idle thread loses its
/// CPU for more than 2 ms a few times a second, which puts p99 above 2 ms
/// at any offered rate (see README.md, "Why the ladder limits p50").
constexpr double kLatencyLimitMs = 2.0;
/// The generator fell behind (the window is invalid) when its median send
/// ran this late, or its last send this late: a brief stall is not falling
/// behind, a schedule it cannot keep is.
constexpr double kMaxMedianLatenessMs = 0.25;
constexpr double kMaxLastLatenessMs = 50.0;
/// A queue left at a window's end beyond this many ms of arrivals is growing.
constexpr double kBacklogAllowanceMs = 20.0;
/// Window lengths (s).
constexpr double kFirstFixedS = 2.0;
constexpr double kFixedS = 0.5;
constexpr double kLadderS = 0.25;
/// Latency percentiles are taken per block of this many consecutive
/// fixed-rate requests (p99 then has 10 samples beyond it) and reported as
/// the median over all blocks.  A block spans 1/8 s at 8000 req/s, so a
/// host stall of a few ms -- several a second on a shared VM -- spoils a
/// minority of blocks and moves the median little; a slower server moves
/// every block.
constexpr std::size_t kBlock = 1000;
/// Geometric ladder of offered rates (steps 5% apart).
constexpr double kLadderRatio = 1.05;
constexpr int kLadderGallop = 8;
constexpr int kSetupReplicates = 5;

const std::vector<std::string>& tenants() {
  static const std::vector<std::string> kTenants = {"tenant-a", "tenant-b",
                                                    "tenant-c", "tenant-d"};
  return kTenants;
}

struct ServeWorkload {
  double fixed_rate_rps = 0.0;
  /// Keys answered before the timer starts.
  std::vector<PlanKey> warm;
  /// One request's plan question.
  std::function<PlanKey(util::Rng&)> draw;
};

/// A generated request stream.
struct Stream {
  std::vector<PlanKey> keys;
  std::vector<std::string> tenants;
  std::vector<std::string> payloads;
};

Stream draw_stream(const ServeWorkload& w, util::Rng& rng, std::size_t n) {
  Stream s;
  for (std::size_t i = 0; i < n; ++i) {
    s.keys.push_back(w.draw(rng));
    s.tenants.push_back(tenants()[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tenants().size()) - 1))]);
    s.payloads.push_back(serve::encode_plan_request(request_of(s.keys.back(), s.tenants.back())));
  }
  return s;
}

Stream replay_stream(const std::vector<PlanKey>& keys,
                     const std::vector<std::string>& names, std::size_t n) {
  Stream s;
  for (std::size_t i = 0; i < n; ++i) {
    s.keys.push_back(keys[i % keys.size()]);
    s.tenants.push_back(names.empty() ? tenants()[i % tenants().size()]
                                      : names[i % names.size()]);
    s.payloads.push_back(serve::encode_plan_request(request_of(s.keys.back(), s.tenants.back())));
  }
  return s;
}

/// Fill the oracle's memo for every distinct key on up to 4 threads, so
/// verification after a window costs one planner run per distinct key.
void prefetch(ReplyOracle& oracle, const std::vector<PlanKey>& keys) {
  std::map<std::tuple<std::string, int, int, double>, PlanKey> distinct;
  for (const PlanKey& k : keys)
    distinct.emplace(std::make_tuple(k.model, static_cast<int>(k.strategy),
                                     k.n_jobs, k.bandwidth_mbps),
                     k);
  std::vector<PlanKey> todo;
  for (auto& [_, k] : distinct) todo.push_back(k);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < todo.size(); i = next++)
        (void)oracle.expected(todo[i]);
    });
  }
  for (std::thread& w : workers) w.join();
}

/// A daemon plus its load and control connections, warmed.
struct Deployment {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<OpenLoop> load;
  std::unique_ptr<serve::Client> control;
  std::vector<serve::PlanReply> warm_replies;
};

Deployment deploy(const Options& options, const std::vector<std::string>& flags,
                  const std::vector<PlanKey>& warm) {
  Deployment d;
  d.daemon = std::make_unique<Daemon>(options.daemon, flags);
  d.load = std::make_unique<OpenLoop>(d.daemon->port(), kLoadConnections);
  d.control = std::make_unique<serve::Client>(
      std::make_unique<SocketStream>(d.daemon->port()));
  if (!d.control->ping()) throw std::runtime_error("daemon did not answer ping");
  for (std::size_t i = 0; i < warm.size(); ++i)
    d.warm_replies.push_back(d.control->plan(request_of(warm[i], tenants()[i % tenants().size()])));
  return d;
}

/// Status tally and latency (from due time) of one window.  A request
/// without an OK reply counts as +inf: it misses any latency limit.
struct WindowStats {
  std::vector<double> latency_ms;
  std::vector<serve::PlanReply> replies;  // decoded; status kUnknown if none
  std::uint64_t ok = 0, refused = 0, failed = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  /// Percentiles per block of kBlock consecutive requests.
  std::vector<double> block_p50, block_p90, block_p99;
  double ok_per_s = 0, jobs_per_s = 0;
};

WindowStats evaluate(const LoadWindow& w, const Stream& s) {
  WindowStats st;
  const std::size_t n = w.due_s.size();
  st.replies.resize(n);
  double jobs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double lat = std::numeric_limits<double>::infinity();
    if (!std::isnan(w.recv_s[i])) {
      try {
        st.replies[i] = serve::decode_plan_reply(w.replies[i]);
      } catch (const std::exception& e) {
        st.replies[i].status = serve::Status::kInternal;
        st.replies[i].message = e.what();
      }
      if (st.replies[i].status == serve::Status::kOk) {
        lat = (w.recv_s[i] - w.due_s[i]) * 1e3;
        ++st.ok;
        jobs += s.keys[i].n_jobs;
      } else if (st.replies[i].status == serve::Status::kResourceExhausted) {
        ++st.refused;
      } else {
        ++st.failed;
      }
    } else {
      st.replies[i].status = serve::Status::kUnavailable;
      st.replies[i].message = "no reply";
      ++st.failed;
    }
    st.latency_ms.push_back(lat);
  }
  st.p50 = quantile(st.latency_ms, 0.50);
  st.p90 = quantile(st.latency_ms, 0.90);
  st.p99 = quantile(st.latency_ms, 0.99);
  // Whole blocks only; a window's last partial block is dropped.
  for (std::size_t b = 0; b + kBlock <= n; b += kBlock) {
    const std::vector<double> v(st.latency_ms.begin() + static_cast<std::ptrdiff_t>(b),
                                st.latency_ms.begin() + static_cast<std::ptrdiff_t>(b + kBlock));
    st.block_p50.push_back(quantile(v, 0.50));
    st.block_p90.push_back(quantile(v, 0.90));
    st.block_p99.push_back(quantile(v, 0.99));
  }
  st.ok_per_s = static_cast<double>(st.ok) / w.seconds;
  st.jobs_per_s = jobs / w.seconds;
  return st;
}

/// Verify every OK reply against the direct planner; count outcomes.
void verify_window(const Options& options, const Stream& s, WindowStats& st,
                   ReplyOracle& oracle, Result& result) {
  prefetch(oracle, s.keys);
  for (std::size_t i = 0; i < st.replies.size(); ++i) {
    serve::PlanReply& reply = st.replies[i];
    if (reply.status == serve::Status::kOk && inject_now(options, "reply"))
      reply.makespan_ms = std::nextafter(reply.makespan_ms, 1e300);
    if (reply.status == serve::Status::kOk) {
      const std::string why = oracle.check(s.keys[i], reply);
      if (!why.empty()) result.problem("serve reply mismatch: " + why);
    }
  }
  result.attempted += st.replies.size();
  result.succeeded += st.ok;
  result.refused += st.refused;
  result.failed += st.failed + st.refused;
}

util::Json window_json(const LoadWindow& w, const WindowStats& st, bool pass) {
  util::Json j = util::Json::object();
  j.set("offered_rps", w.rate_rps);
  j.set("seconds", w.seconds);
  j.set("sent", static_cast<double>(w.due_s.size()));
  j.set("ok", static_cast<double>(st.ok));
  j.set("refused", static_cast<double>(st.refused));
  j.set("failed", static_cast<double>(st.failed));
  j.set("p50_ms", st.p50);
  j.set("p90_ms", st.p90);
  j.set("p99_ms", st.p99);
  j.set("lateness_p50_ms", w.lateness_p50_ms);
  j.set("lateness_p99_ms", w.lateness_p99_ms);
  j.set("last_lateness_ms", w.last_lateness_ms);
  j.set("backlog_end", static_cast<double>(w.backlog_end));
  j.set("meets_limit", pass);
  return j;
}

bool generator_behind(const LoadWindow& w) {
  return w.lateness_p50_ms > kMaxMedianLatenessMs ||
         w.last_lateness_ms > kMaxLastLatenessMs;
}

/// The ladder's pass rule: every request answered OK, median latency from
/// due time within the limit, no growing backlog at the window end, and the
/// generator on schedule.
bool meets_limit(const LoadWindow& w, const WindowStats& st) {
  const double backlog_allowance =
      std::max<double>(kLoadConnections, std::ceil(w.rate_rps * kBacklogAllowanceMs / 1e3));
  return st.refused == 0 && st.failed == 0 && st.p50 <= kLatencyLimitMs &&
         static_cast<double>(w.backlog_end) <= backlog_allowance &&
         !generator_behind(w);
}

std::map<std::string, double> counters(serve::Client& control) {
  std::map<std::string, double> out;
  const serve::StatsReply reply = control.scrape_stats();
  if (reply.status != serve::Status::kOk) return out;
  const util::Json json = util::Json::parse(reply.json);
  if (const util::Json* c = json.get("counters")) {
    for (const auto& [name, value] : c->members())
      if (value.is_number()) out[name] = value.as_double();
  }
  return out;
}

// ---- span self times from TRACE_DUMP --------------------------------------

struct SpanSamples {
  std::map<std::string, std::vector<double>> self_us;  // by span name
  std::vector<double> request_us;                      // root durations
  std::vector<double> pool_hop_us;
  double root_thread_self_sum_us = 0.0;  // sum over traces
  double root_sum_us = 0.0;
  std::size_t traces = 0;
};

void add_trace(const obs::TraceRecord& trace, SpanSamples& out) {
  const obs::SpanRecord* root = nullptr;
  std::map<std::uint64_t, std::vector<const obs::SpanRecord*>> children;
  std::set<std::uint64_t> ids;
  for (const obs::SpanRecord& s : trace.spans) ids.insert(s.span_id);
  for (const obs::SpanRecord& s : trace.spans) {
    if (s.name == "serve.request") root = &s;
    if (ids.count(s.parent_span_id) != 0) children[s.parent_span_id].push_back(&s);
  }
  if (root == nullptr) return;
  double wait = -1.0, compute = -1.0;
  for (const obs::SpanRecord& s : trace.spans) {
    // Self time: duration minus the union of child intervals inside it.
    std::vector<std::pair<double, double>> iv;
    for (const obs::SpanRecord* c : children[s.span_id]) {
      const double lo = std::max(c->start_ms, s.start_ms);
      const double hi = std::min(c->start_ms + c->dur_ms, s.start_ms + s.dur_ms);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, reach = -1e300;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const double self_us = std::max(0.0, s.dur_ms - covered) * 1e3;
    out.self_us[s.name].push_back(self_us);
    if (s.thread == root->thread) out.root_thread_self_sum_us += self_us;
    if (s.name == "serve.plan_wait") wait = s.dur_ms;
    if (s.name == "serve.plan_compute") compute = s.dur_ms;
  }
  out.request_us.push_back(root->dur_ms * 1e3);
  out.root_sum_us += root->dur_ms * 1e3;
  if (wait >= 0.0 && compute >= 0.0) out.pool_hop_us.push_back((wait - compute) * 1e3);
  ++out.traces;
}

double p50_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

void span_metrics(const SpanSamples& s, Result& result) {
  auto self = [&](const char* name) {
    auto it = s.self_us.find(name);
    return it == s.self_us.end() ? 0.0 : p50_or_zero(it->second);
  };
  result.metric("span.request_us", p50_or_zero(s.request_us), "us");
  result.metric("span.request_self_us", self("serve.request"), "us");
  result.metric("span.admission_us", self("serve.admission"), "us");
  result.metric("span.plan_wait_us", self("serve.plan_wait"), "us");
  result.metric("span.coalesce_wait_us", self("serve.coalesce_wait"), "us");
  result.metric("span.cache_lookup_us", self("serve.cache_lookup"), "us");
  result.metric("span.plan_compute_us", self("serve.plan_compute"), "us");
  result.metric("span.curve_build_us", self("curve.build"), "us");
  result.metric("span.planner_plan_us", self("planner.plan"), "us");
  result.metric("span.encode_us", self("serve.encode"), "us");
  result.metric("span.pool_hop_us", p50_or_zero(s.pool_hop_us), "us");
  result.metric("span.accounted_pct",
                s.root_sum_us > 0 ? 100.0 * s.root_thread_self_sum_us / s.root_sum_us : 0.0,
                "%");
  result.metric("span.traces", static_cast<double>(s.traces), "count");
}

// ---- the workloads ----------------------------------------------------------

ServeWorkload hot_workload() {
  ServeWorkload w;
  w.fixed_rate_rps = 8000.0;
  for (const double bw : {1.1, 5.85, 18.88})
    for (const std::string& m : models::paper_eval_names())
      for (const int n : {8, 20, 50})
        w.warm.push_back({m, core::Strategy::kJPS, n, bw});
  const std::vector<PlanKey> keys = w.warm;
  w.draw = [keys](util::Rng& rng) {
    return keys[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1))];
  };
  return w;
}

ServeWorkload cold_workload() {
  ServeWorkload w;
  w.fixed_rate_rps = 6000.0;
  // Build every model graph once (a key outside the sampled ranges), so the
  // window measures curve + plan, not one-off graph construction.
  for (const std::string& m : models::all_names())
    w.warm.push_back({m, core::Strategy::kJPS, 1, 100.0});
  w.draw = [](util::Rng& rng) {
    const auto& names = models::all_names();
    PlanKey k;
    k.model = names[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
    k.strategy = servable_strategies()[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(servable_strategies().size()) - 1))];
    k.bandwidth_mbps = std::exp(rng.uniform(std::log(1.0), std::log(80.0)));
    k.n_jobs = static_cast<int>(std::lround(std::exp(rng.uniform(std::log(2.0), std::log(512.0)))));
    return k;
  };
  return w;
}

util::Json keys_json(const std::vector<PlanKey>& keys, std::size_t max) {
  util::Json list = util::Json::array();
  for (std::size_t i = 0; i < keys.size() && i < max; ++i) {
    util::Json k = util::Json::object();
    k.set("model", keys[i].model);
    k.set("strategy", strategy_cli_name(keys[i].strategy));
    k.set("n_jobs", keys[i].n_jobs);
    k.set("bandwidth_mbps", keys[i].bandwidth_mbps);
    list.push_back(std::move(k));
  }
  return list;
}

void check_warm(const Deployment& d, const std::vector<PlanKey>& warm,
                ReplyOracle& oracle, Result& result) {
  prefetch(oracle, warm);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const std::string why = oracle.check(warm[i], d.warm_replies[i]);
    if (!why.empty()) result.problem("warm-up reply mismatch: " + why);
  }
}

/// One open-loop window on `d` at `rate` for `seconds` with a fresh stream.
std::pair<LoadWindow, Stream> window(Deployment& d, const ServeWorkload& w,
                                     util::Rng& rng, double rate, double seconds) {
  const std::vector<double> due = poisson_schedule(rate, seconds, rng);
  Stream s = draw_stream(w, rng, due.size());
  LoadWindow lw = d.load->run(s.payloads, due, rate, seconds);
  return {std::move(lw), std::move(s)};
}

Result run_serve(const Options& options, const ServeWorkload& w) {
  Result result;
  ReplyOracle oracle;
  util::Rng rng(stream_seed(options.seed, 1));
  result.record.set("load", "open loop, Poisson arrivals, " +
                                std::to_string(kLoadConnections) +
                                " load connections + 1 control, 2 generator threads");
  result.record.set("warm_keys", keys_json(w.warm, 64));
  result.record.set("daemon", "jps_serve serve --port 0 (shipped defaults)");

  if (options.trace) {
    // Untraced and traced windows over one request stream, then the probes.
    const double seconds = std::max(1.0, options.seconds * 0.35);
    const std::vector<double> due = poisson_schedule(w.fixed_rate_rps, seconds, rng);
    const Stream s = draw_stream(w, rng, due.size());
    double p50_untraced = 0.0;
    {
      Deployment d = deploy(options, {}, w.warm);
      check_warm(d, w.warm, oracle, result);
      LoadWindow lw = d.load->run(s.payloads, due, w.fixed_rate_rps, seconds);
      WindowStats st = evaluate(lw, s);
      if (generator_behind(lw))
        result.invalid("generator fell behind: median lateness " +
                       std::to_string(lw.lateness_p50_ms) + " ms");
      verify_window(options, s, st, oracle, result);
      p50_untraced = st.p50;
      result.record.set("untraced_window", window_json(lw, st, meets_limit(lw, st)));
    }
    const double p50_traced =
        run_span_probe(options, s.keys, s.tenants, w.fixed_rate_rps, seconds, oracle, result);
    result.metric("obs.tracing_overhead_pct",
                  (p50_traced / p50_untraced - 1.0) * 100.0, "%");
    ProbeInputs inputs;
    inputs.keys = s.keys;
    inputs.tenants = s.tenants;
    inputs.warm = w.warm;
    run_layer_probes(inputs, options.seed, result);
    run_runtime_probe(options, 1.0, result);
    return result;
  }

  // ---- set-up, several times; the last deployment is measured -------------
  std::vector<double> setups;
  Deployment d;
  for (int r = 0; r < kSetupReplicates; ++r) {
    d = Deployment{};
    const auto start = Clock::now();
    d = deploy(options, {}, w.warm);
    setups.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    check_warm(d, w.warm, oracle, result);
    if (r + 1 < kSetupReplicates) {
      d.control.reset();
      d.load.reset();
      d.daemon->stop();
    }
  }

  // ---- interleaved fixed-rate and ladder windows --------------------------
  // A first fixed-rate window of kFirstFixedS seconds (daemon memory is read
  // after it: a fixed amount of work), then cycles of two ladder windows and
  // one fixed-rate window until the budget is spent.  Interleaving spreads
  // both kinds of sample over the whole run, so a burst of host noise hits
  // a few windows of each rather than one phase entirely.
  //
  // The ladder: rung k offers fixed_rate * kLadderRatio^k.  It gallops
  // kLadderGallop rungs at a time until a rung misses the limit, bisects to
  // adjacent pass/fail rungs, then runs a staircase (pass: one rung up;
  // miss: two rungs down).  max_rate_rps is the median of the passing
  // staircase rungs.
  auto rung_rate = [&](int k) { return w.fixed_rate_rps * std::pow(kLadderRatio, k); };
  constexpr int kNone = std::numeric_limits<int>::min();
  int pass_k = kNone, fail_k = kNone, stair_k = kNone;
  std::vector<int> stair_passed;
  std::vector<double> stair_ok_per_s, stair_jobs_per_s;
  auto next_rung = [&]() {
    if (stair_k != kNone) return stair_k;
    if (fail_k == kNone) return (pass_k == kNone ? 0 : pass_k) + kLadderGallop;
    if (pass_k == kNone) return fail_k - kLadderGallop;
    if (fail_k - pass_k <= 1) return stair_k = pass_k;
    return pass_k + (fail_k - pass_k) / 2;
  };

  std::vector<double> fixed_p50, fixed_p90, fixed_p99, fixed_all;
  util::Json fixed_json = util::Json::array();
  util::Json ladder_json = util::Json::array();
  std::vector<std::pair<Stream, WindowStats>> windows;
  double daemon_rss = 0.0;
  double spent = 0.0;
  for (int cycle = 0; spent < options.seconds; ++cycle) {
    const bool fixed_turn = cycle == 0 || cycle % 3 == 0;
    const double seconds = cycle == 0 ? kFirstFixedS : fixed_turn ? kFixedS : kLadderS;
    if (fixed_turn) {
      auto [lw, st_stream] = window(d, w, rng, w.fixed_rate_rps, seconds);
      WindowStats st = evaluate(lw, st_stream);
      if (generator_behind(lw))
        result.invalid("generator fell behind at the fixed rate: median lateness " +
                       std::to_string(lw.lateness_p50_ms) + " ms, last send " +
                       std::to_string(lw.last_lateness_ms) + " ms late");
      fixed_p50.insert(fixed_p50.end(), st.block_p50.begin(), st.block_p50.end());
      fixed_p90.insert(fixed_p90.end(), st.block_p90.begin(), st.block_p90.end());
      fixed_p99.insert(fixed_p99.end(), st.block_p99.begin(), st.block_p99.end());
      fixed_all.insert(fixed_all.end(), st.latency_ms.begin(), st.latency_ms.end());
      fixed_json.push_back(window_json(lw, st, meets_limit(lw, st)));
      if (cycle == 0) daemon_rss = peak_rss_mb(d.daemon->pid());
      windows.emplace_back(std::move(st_stream), std::move(st));
    } else {
      const int k = next_rung();
      auto [lw, st_stream] = window(d, w, rng, rung_rate(k), seconds);
      WindowStats st = evaluate(lw, st_stream);
      const bool pass = meets_limit(lw, st);
      util::Json j = window_json(lw, st, pass);
      j.set("rung", k);
      j.set("staircase", stair_k != kNone);
      ladder_json.push_back(std::move(j));
      if (stair_k != kNone) {
        if (pass) {
          stair_passed.push_back(k);
          stair_ok_per_s.push_back(st.ok_per_s);
          stair_jobs_per_s.push_back(st.jobs_per_s);
        }
        stair_k = pass ? k + 1 : k - 2;
      } else if (pass) {
        pass_k = k;
      } else {
        fail_k = k;
      }
      windows.emplace_back(std::move(st_stream), std::move(st));
    }
    spent += seconds;
  }
  result.record.set("fixed_windows", fixed_json);
  // The pooled tail over every fixed-rate request, stalls included.
  result.record.set("fixed_pooled_p99_ms", quantile(fixed_all, 0.99));
  result.record.set("ladder", ladder_json);
  result.record.set("ladder_ratio", kLadderRatio);
  result.record.set("latency_limit", "p50 <= 2 ms from due time, no growing backlog");

  const auto stats = counters(*d.control);
  d.control.reset();
  d.load.reset();
  if (!d.daemon->stop()) result.problem("daemon did not drain cleanly");

  // ---- verification, off the clock ------------------------------------------
  for (auto& [s, st] : windows) verify_window(options, s, st, oracle, result);
  util::Json c = util::Json::object();
  for (const auto& [name, value] : stats)
    if (name.rfind("serve.", 0) == 0 || name.rfind("planner.", 0) == 0) c.set(name, value);
  result.record.set("daemon_counters", c);
  result.record.set("fixed_rate_rps", w.fixed_rate_rps);
  result.record.set("sample_keys", keys_json(windows.front().first.keys, 16));

  if (stair_passed.empty())
    result.invalid("the ladder found no rate that meets the latency limit");
  std::vector<double> stair_rates;
  for (const int k : stair_passed) stair_rates.push_back(rung_rate(k));

  result.metric("setup_s", median(setups), "s", setups);
  result.metric("p50_ms", median(fixed_p50), "ms", fixed_p50);
  result.metric("p90_ms", median(fixed_p90), "ms", fixed_p90);
  result.metric("p99_ms", median(fixed_p99), "ms", fixed_p99);
  result.metric("max_rate_rps", median(stair_rates), "req/s", stair_rates);
  result.metric("plans_per_sec", median(stair_ok_per_s), "1/s", stair_ok_per_s);
  result.metric("jobs_per_sec", median(stair_jobs_per_s), "1/s", stair_jobs_per_s);
  result.metric("peak_rss_mb", daemon_rss, "MiB");
  return result;
}

}  // namespace

Result run_serve_hot(const Options& options) { return run_serve(options, hot_workload()); }
Result run_serve_cold(const Options& options) { return run_serve(options, cold_workload()); }

double run_span_probe(const Options& options, const std::vector<PlanKey>& keys,
                      const std::vector<std::string>& names, double rate_rps,
                      double seconds, ReplyOracle& oracle, Result& result) {
  const std::vector<std::string> flags = {"--trace-sample-every", "1",
                                          "--trace-capacity", "4096"};
  // Warm the stream's distinct keys only when they repeat (serve-hot, the
  // replay streams); a stream of fresh keys stays cold.
  std::set<std::tuple<std::string, int, int, double>> distinct;
  for (const PlanKey& k : keys)
    distinct.emplace(k.model, static_cast<int>(k.strategy), k.n_jobs, k.bandwidth_mbps);
  std::vector<PlanKey> warm;
  if (distinct.size() * 4 <= keys.size()) {
    for (const auto& [m, s, n, bw] : distinct)
      warm.push_back({m, static_cast<core::Strategy>(s), n, bw});
  } else {
    std::set<std::string> models_seen;
    for (const PlanKey& k : keys)
      if (models_seen.insert(k.model).second)
        warm.push_back({k.model, core::Strategy::kJPS, 1, 100.0});
  }
  Deployment d = deploy(options, flags, warm);
  check_warm(d, warm, oracle, result);

  util::Rng rng(stream_seed(options.seed, 7));
  const std::vector<double> due = poisson_schedule(rate_rps, seconds, rng);
  const Stream s = replay_stream(keys, names, due.size());

  // Drain the recorder while the window runs, so the ring never evicts.
  SpanSamples samples;
  std::atomic<bool> stop{false};
  std::exception_ptr drain_error;
  const auto before = counters(*d.control);
  auto drain_all = [&] {
    while (true) {
      const serve::TraceDumpReply reply = d.control->trace_dump(0);
      if (reply.status != serve::Status::kOk) throw std::runtime_error("trace dump failed");
      for (const obs::TraceRecord& t :
           obs::flight_records_from_json(util::Json::parse(reply.json)))
        add_trace(t, samples);
      if (reply.remaining == 0) break;
    }
  };
  {
    // Warm-up traces are not part of the window.
    SpanSamples discard;
    std::swap(samples, discard);
    drain_all();
    std::swap(samples, discard);
  }
  std::thread drainer([&] {
    try {
      while (!stop.load()) {
        drain_all();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    } catch (...) {
      drain_error = std::current_exception();
    }
  });
  LoadWindow lw;
  try {
    lw = d.load->run(s.payloads, due, rate_rps, seconds);
  } catch (...) {
    stop = true;
    drainer.join();
    throw;
  }
  stop = true;
  drainer.join();
  if (drain_error) std::rethrow_exception(drain_error);
  drain_all();
  const auto after = counters(*d.control);

  std::vector<double> ping_us;
  for (int i = 0; i < 500; ++i) {
    const double t = time_s([&] {
      if (!d.control->ping()) throw std::runtime_error("ping failed");
    });
    ping_us.push_back(t * 1e6);
  }
  d.control.reset();
  d.load.reset();
  d.daemon->stop();

  WindowStats st = evaluate(lw, s);
  verify_window(options, s, st, oracle, result);
  result.record.set("traced_window", window_json(lw, st, meets_limit(lw, st)));
  util::Json tflags = util::Json::array();
  for (const std::string& f : flags) tflags.push_back(f);
  result.record.set("traced_daemon_flags", tflags);

  auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
  };
  const double requests = std::max(1.0, delta("serve.requests"));
  result.metric("transport.ping_rtt_us", median(ping_us), "us");
  result.metric("server.cache_hit_ratio", delta("serve.cache_hits") / requests, "ratio");
  result.metric("server.coalesce_ratio", delta("serve.coalesce_hits") / requests, "ratio");
  result.metric("server.shed_ratio",
                (delta("serve.shed_rate_limited") + delta("serve.shed_overload")) / requests,
                "ratio");
  result.metric("server.plans_computed", delta("planner.plans"), "count");
  span_metrics(samples, result);
  return st.p50;
}

}  // namespace perfbench
