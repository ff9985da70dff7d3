#include "load.h"

#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "serve/protocol.h"

namespace perfbench {

std::vector<double> poisson_schedule(double rate_rps, double seconds,
                                     jps::util::Rng& rng) {
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate_rps * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate_rps;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

OpenLoop::OpenLoop(std::uint16_t port, int connections) : port_(port) {
  for (int i = 0; i < connections; ++i)
    streams_.push_back(std::make_unique<SocketStream>(port));
}

namespace {

void sleep_until_s(double target_s) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(target_s);
  ts.tv_nsec = static_cast<long>((target_s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

}  // namespace

LoadWindow OpenLoop::run(const std::vector<std::string>& payloads,
                         const std::vector<double>& due_s, double rate_rps,
                         double seconds, double drain_s) {
  const std::size_t n = due_s.size();
  if (payloads.size() != n) throw std::invalid_argument("OpenLoop: size mismatch");
  const std::size_t conns = streams_.size();

  LoadWindow w;
  w.rate_rps = rate_rps;
  w.seconds = seconds;
  w.due_s = due_s;
  w.send_s.assign(n, std::nan(""));
  w.recv_s.assign(n, std::nan(""));
  w.replies.assign(n, std::string());

  // Per-connection request order (round robin).
  std::vector<std::vector<std::size_t>> order(conns);
  for (std::size_t i = 0; i < n; ++i) order[i % conns].push_back(i);

  const double t0 = now_s() + 0.005;
  std::exception_ptr send_error;
  std::thread sender([&] {
    try {
      // The default 50 us timer slack would make every wake-up late.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const double target = t0 + due_s[i];
        if (now_s() < target) sleep_until_s(target);
        jps::serve::write_frame(*streams_[i % conns], payloads[i]);
        w.send_s[i] = now_s() - t0;
      }
    } catch (...) {
      send_error = std::current_exception();
    }
  });

  std::vector<pollfd> fds(conns);
  for (std::size_t c = 0; c < conns; ++c) fds[c] = {streams_[c]->fd(), POLLIN, 0};
  std::vector<std::size_t> next(conns, 0);
  std::size_t received = 0;
  const double last_due = n == 0 ? 0.0 : due_s.back();
  std::exception_ptr recv_error;
  try {
    while (received < n) {
      if (now_s() - t0 > std::max(last_due, seconds) + drain_s) break;
      if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
      for (std::size_t c = 0; c < conns; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        std::optional<std::string> frame = jps::serve::read_frame(*streams_[c]);
        if (!frame) throw std::runtime_error("perfbench: server closed a connection");
        if (next[c] >= order[c].size())
          throw std::runtime_error("perfbench: unsolicited reply");
        const std::size_t i = order[c][next[c]++];
        w.recv_s[i] = now_s() - t0;
        w.replies[i] = std::move(*frame);
        ++received;
      }
    }
  } catch (...) {
    recv_error = std::current_exception();
  }
  sender.join();
  if (received < n) {
    // Late replies would be matched to the next window's requests: start
    // that window on fresh connections instead.
    for (auto& stream : streams_) stream = std::make_unique<SocketStream>(port_);
  }
  if (send_error) std::rethrow_exception(send_error);
  if (recv_error) std::rethrow_exception(recv_error);

  std::vector<double> late_ms;
  late_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    late_ms.push_back((w.send_s[i] - due_s[i]) * 1e3);
    if (due_s[i] < seconds && !(w.recv_s[i] <= seconds)) ++w.backlog_end;
  }
  if (n > 0) {
    w.last_lateness_ms = late_ms.back();
    w.lateness_p50_ms = quantile(late_ms, 0.50);
    w.lateness_p99_ms = quantile(late_ms, 0.99);
  }
  return w;
}

}  // namespace perfbench
