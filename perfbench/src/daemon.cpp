#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

constexpr int kStartTimeoutMs = 20000;
constexpr int kStopTimeoutMs = 10000;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& flags) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error(errno_text("pipe"));
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  std::vector<std::string> args = {binary, "serve", "--port", "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }

  // Wait for "jps_serve listening on 127.0.0.1:PORT".
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartTimeoutMs);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
      stop();
      throw std::runtime_error("jps_serve did not report its port in time");
    }
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      stop();
      throw std::runtime_error("jps_serve exited before listening");
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t colon = line.rfind(':', line.find('\n'));
  if (line.find("listening") == std::string::npos || colon == std::string::npos) {
    stop();
    throw std::runtime_error("unexpected jps_serve banner: " + line);
  }
  port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (pid_ <= 0) return exited_ok_;
  ::kill(pid_, SIGTERM);
  // Drain its stdout (the drain summary) so it never blocks on a full pipe.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStopTimeoutMs);
  int status = 0;
  while (true) {
    if (stdout_fd_ >= 0) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) > 0) {
        char buf[4096];
        if (::read(stdout_fd_, buf, sizeof(buf)) <= 0) {
          ::close(stdout_fd_);
          stdout_fd_ = -1;
        }
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
  exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return exited_ok_;
}

SocketStream::SocketStream(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error(errno_text("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = errno_text("connect");
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(why);
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

SocketStream::~SocketStream() { close(); }

std::size_t SocketStream::read(char* out, std::size_t max) {
  while (true) {
    const ssize_t n = ::recv(fd_, out, max, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw jps::serve::TransportTimeout("perfbench: read timed out");
    throw std::runtime_error(errno_text("recv"));
  }
}

void SocketStream::write(const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd_, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(errno_text("send"));
    }
    written += static_cast<std::size_t>(n);
  }
}

void SocketStream::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void SocketStream::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void SocketStream::set_read_timeout_ms(double ms) {
  timeval tv{};
  if (ms > 0.0) {
    tv.tv_sec = static_cast<time_t>(ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>((ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace perfbench
