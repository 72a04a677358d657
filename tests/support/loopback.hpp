// Loopback TCP client helpers for tests that drive `Server::runSocket` or
// `owlcl serve --port` from outside: a free port, a connect that waits for
// the listener, and whole-buffer send / line receive.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

namespace owlcl::test {

/// A loopback port nothing listens on right now (0 if none was found).
inline std::uint16_t freeLoopbackPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof a;
  const bool ok =
      fd >= 0 && ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) == 0;
  if (fd >= 0) ::close(fd);
  return ok ? ntohs(a.sin_port) : 0;
}

/// Connects to 127.0.0.1:`port`, retrying while the listener starts;
/// -1 after `patience` without success.
inline int connectLoopback(std::uint16_t port,
                           std::chrono::milliseconds patience =
                               std::chrono::seconds(10)) {
  const auto giveUp = std::chrono::steady_clock::now() + patience;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    a.sin_port = htons(port);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) == 0)
      return fd;
    if (fd >= 0) ::close(fd);
    if (std::chrono::steady_clock::now() > giveUp) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Writes all of `bytes`; false once the peer is gone.
inline bool sendAll(int fd, const std::string& bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line into *line (newline dropped); false on
/// EOF or error before the newline.
inline bool readLine(int fd, std::string* line) {
  line->clear();
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return true;
    line->push_back(c);
  }
  return false;
}

}  // namespace owlcl::test
