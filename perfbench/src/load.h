// Open-loop load: requests are sent at precomputed due times whether or not
// earlier replies have arrived, so a stalled server builds a queue that the
// latency (measured from each request's due time) shows.
//
// One sender thread writes every frame at its due time; one receiver thread
// polls every connection and matches replies to requests in per-connection
// FIFO order (the server answers a connection's frames in order).  Request i
// goes out on connection i % connections.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon.h"
#include "util/rng.h"

namespace perfbench {

/// Poisson arrival times in [0, seconds) at `rate_rps`.
[[nodiscard]] std::vector<double> poisson_schedule(double rate_rps,
                                                   double seconds,
                                                   jps::util::Rng& rng);

/// What one open-loop window observed.  Times are seconds from the window
/// start; recv_s is NaN for a request that never got a reply.
struct LoadWindow {
  double rate_rps = 0.0;
  double seconds = 0.0;
  std::vector<double> due_s;
  std::vector<double> send_s;
  std::vector<double> recv_s;
  std::vector<std::string> replies;
  /// Requests due before the window end that had no reply at the end.
  std::size_t backlog_end = 0;
  /// Percentiles of send - due (ms): how late the generator ran.
  double lateness_p50_ms = 0.0;
  double lateness_p99_ms = 0.0;
  /// send - due of the last request (ms).
  double last_lateness_ms = 0.0;
};

class OpenLoop {
 public:
  /// Opens `connections` loopback connections to `port`.
  OpenLoop(std::uint16_t port, int connections);

  /// Send payloads[i] at due_s[i] (ascending), collect replies until every
  /// request is answered or `drain_s` after the last due time.
  [[nodiscard]] LoadWindow run(const std::vector<std::string>& payloads,
                               const std::vector<double>& due_s,
                               double rate_rps, double seconds,
                               double drain_s = 5.0);

 private:
  std::uint16_t port_;
  std::vector<std::unique_ptr<SocketStream>> streams_;
};

}  // namespace perfbench
