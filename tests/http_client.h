/// \file http_client.h
/// \brief The one loopback HTTP client the socket tests share.
///
/// Each call opens a connection to 127.0.0.1:`port`, sends one request,
/// and reads until the server closes (every server under test answers
/// with `Connection: close`). Socket failures are recorded as gtest
/// failures rather than thrown, so a dead server fails the test that
/// asked instead of aborting the binary.
///
/// Test support only.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace dvfs::test {

/// Sends `raw` verbatim in `chunk`-byte pieces with a short pause between
/// them (so a server sees fragmented reads), then returns the whole
/// response, status line and headers included.
inline std::string http_raw(std::uint16_t port, const std::string& raw,
                            std::size_t chunk = SIZE_MAX) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::size_t off = 0;
  while (off < raw.size()) {
    const std::size_t n = std::min(chunk, raw.size() - off);
    EXPECT_EQ(::send(fd, raw.data() + off, n, 0), static_cast<ssize_t>(n));
    off += n;
    if (chunk < raw.size()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// GET `path`, with optional extra header lines (each "Name: value").
inline std::string http_get(std::uint16_t port, const std::string& path,
                            const std::vector<std::string>& headers = {}) {
  std::string req = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n";
  for (const std::string& h : headers) req += h + "\r\n";
  return http_raw(port, req + "\r\n");
}

/// POST `body` to `path` with an exact Content-Length.
inline std::string http_post(std::uint16_t port, const std::string& path,
                             const std::string& body) {
  return http_raw(port, "POST " + path +
                            " HTTP/1.1\r\nHost: localhost\r\n"
                            "Content-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body);
}

/// The body: everything after the blank line ending the headers.
inline std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

}  // namespace dvfs::test
