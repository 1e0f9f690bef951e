/// \file eventually.h
/// \brief The one polling helper the threaded tests share.
///
/// Test support only.
#pragma once

#include <chrono>
#include <thread>

namespace dvfs::test {

/// Polls `pred` every millisecond for up to `timeout_ms`; returns whether
/// it turned true.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

}  // namespace dvfs::test
