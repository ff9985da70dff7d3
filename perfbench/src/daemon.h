// The jps_serve daemon as a child process, and loopback TCP connections to
// it that expose their file descriptor (the load generator polls them).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/transport.h"

namespace perfbench {

/// A running `jps_serve serve --port 0 <flags>`.  The constructor returns
/// once the daemon prints its listening line; the destructor stops it
/// (SIGTERM, drain, wait).
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& flags);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// SIGTERM, wait for exit; true when it exited 0.  Idempotent.
  bool stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  bool exited_ok_ = false;
};

/// A blocking loopback TCP stream (TCP_NODELAY) with its fd exposed.
class SocketStream final : public jps::serve::ByteStream {
 public:
  explicit SocketStream(std::uint16_t port);
  ~SocketStream() override;
  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  [[nodiscard]] std::size_t read(char* out, std::size_t max) override;
  void write(const char* data, std::size_t size) override;
  void shutdown_read() override;
  void close() override;
  void set_read_timeout_ms(double ms) override;

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace perfbench
