// Helpers for tests that must prove an event loop ends by itself: run it on
// a thread with a deadline, and provoke the peer-reset case the hang-up
// rule exists for.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace clear::net {

/// Runs an event loop on its own thread. returned_within() waits for the
/// loop to return by itself; when it does not, `stop` unblocks it, so the
/// test fails instead of hanging. The destructor stops a loop still running.
class LoopThread {
 public:
  LoopThread(std::function<void()> run, std::function<void()> stop)
      : stop_(std::move(stop)), thread_([this, run = std::move(run)] {
          run();
          done_.set_value();
        }) {}
  ~LoopThread() {
    if (!thread_.joinable()) return;
    stop_();
    thread_.join();
  }

  bool returned_within(std::chrono::seconds limit) {
    const bool returned =
        finished_.wait_for(limit) == std::future_status::ready;
    if (!returned) stop_();
    thread_.join();
    return returned;
  }

 private:
  std::function<void()> stop_;
  std::promise<void> done_;
  std::future<void> finished_ = done_.get_future();
  std::thread thread_;
};

/// Connect a raw socket to `port`, send one encoded kShutdown and close
/// with SO_LINGER{1, 0}, so the kernel sends an RST right behind the frame.
inline void send_shutdown_then_reset(std::uint16_t port) {
  const int fd = connect_tcp({"127.0.0.1", port});
  const std::string frame = encode_shutdown();
  EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  const linger reset{1, 0};
  EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)),
            0);
  ::close(fd);
}

}  // namespace clear::net
