// Shared plumbing for the serve tests: a minimal blocking unix-socket
// client speaking the newline-delimited wire protocol, plus file helpers.

#ifndef KSYM_TESTS_SERVE_TEST_UTIL_H_
#define KSYM_TESTS_SERVE_TEST_UTIL_H_

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace ksym {
namespace serve_test {

inline std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

inline void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// One connection to a running Server. Every method is blocking; a failed
/// socket operation surfaces as an empty response (callers assert on it).
class TestClient {
 public:
  explicit TestClient(const std::string& socket_path) {
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path)) return;
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~TestClient() { Close(); }

  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Sends raw bytes (no framing added). Returns false on a socket error.
  bool SendRaw(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one '\n'-terminated line (newline stripped). Empty on EOF/error.
  std::string RecvLine() {
    for (;;) {
      const size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Makes RecvLine give up (and return "") after `ms` without data.
  void SetRecvTimeout(int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// Sends one request line and reads its response line.
  std::string RoundTrip(const std::string& line) {
    if (!SendRaw(line + "\n")) return "";
    return RecvLine();
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace serve_test
}  // namespace ksym

#endif  // KSYM_TESTS_SERVE_TEST_UTIL_H_
