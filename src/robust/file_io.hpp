// Byte-level I/O shared by the robust layer's durable files (result
// journal, delta WAL, snapshots). Private to src/robust.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace owlcl::fileio {

inline void putU32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

inline void putU64(unsigned char* p, std::uint64_t v) {
  putU32(p, static_cast<std::uint32_t>(v));
  putU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t getU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t getU64(const unsigned char* p) {
  return static_cast<std::uint64_t>(getU32(p)) |
         (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

inline bool writeAll(int fd, const unsigned char* p, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads the whole file into `bytes`; false on open/read error (a missing
/// file returns true with *exists false).
inline bool readFile(const std::string& path, std::vector<unsigned char>* bytes,
                     bool* exists) {
  *exists = false;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT;
  *exists = true;
  bytes->clear();
  unsigned char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    bytes->insert(bytes->end(), buf, buf + n);
  }
  ::close(fd);
  return true;
}

inline bool syncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace owlcl::fileio
