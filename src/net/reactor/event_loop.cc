#include "net/reactor/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace aedb::net::reactor {

namespace {
Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}
}  // namespace

EventLoop::EventLoop() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
}

EventLoop::~EventLoop() {
  Stop();
  if (epfd_ >= 0) ::close(epfd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Status EventLoop::Start(uint32_t tick_ms, std::function<void()> ticker) {
  if (epfd_ < 0 || wake_fd_ < 0) return Errno("epoll_create1/eventfd");
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("event loop already running");
  }
  tick_ms_ = tick_ms;
  ticker_ = std::move(ticker);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wake eventfd
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Errno("epoll_ctl(wake)");
  }
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    accepting_posts_ = true;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EventLoop::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Wake the loop so it observes running_ == false. Already-posted tasks run
  // before the loop exits; new posts are refused from here on.
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    accepting_posts_ = false;
  }
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
}

Status EventLoop::Add(int fd, uint32_t events, EventHandler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Errno("epoll_ctl(add)");
  }
  return Status::OK();
}

Status EventLoop::Mod(int fd, uint32_t events, EventHandler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    return Errno("epoll_ctl(mod)");
  }
  return Status::OK();
}

Status EventLoop::Del(int fd) {
  if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return Errno("epoll_ctl(del)");
  }
  return Status::OK();
}

bool EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    if (!accepting_posts_) return false;
    posted_.push_back(std::move(task));
  }
  // Skipping the write when already on the loop thread would save a syscall,
  // but posted tasks are drained after every dispatch round anyway.
  if (!OnLoopThread()) {
    uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
  return true;
}

void EventLoop::DeferDelete(EventHandler* handler) {
  deferred_deletes_.push_back(handler);
}

void EventLoop::DrainWake() {
  uint64_t count;
  while (::read(wake_fd_, &count, sizeof(count)) > 0) {
  }
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  auto next_tick = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(tick_ms_ ? tick_ms_ : 1000);
  while (running_.load(std::memory_order_acquire)) {
    int timeout_ms = 1000;
    if (tick_ms_ != 0) {
      // Round up: a truncated wait returns before the tick is due, and the
      // loop would spin on zero-timeout waits for the rest of the period.
      auto left = std::chrono::ceil<std::chrono::milliseconds>(
                      next_tick - std::chrono::steady_clock::now())
                      .count();
      timeout_ms = left <= 0 ? 0 : static_cast<int>(left);
    }
    int n = ::epoll_wait(epfd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    wakeups_.fetch_add(1, std::memory_order_relaxed);

    for (int i = 0; i < n; ++i) {
      auto* handler = static_cast<EventHandler*>(events[i].data.ptr);
      if (handler == nullptr) {
        DrainWake();
      } else {
        handler->OnEvents(events[i].events);
      }
    }

    // Posted tasks (query completions, cross-thread registrations) run after
    // fd dispatch so a completion never interleaves with the same
    // connection's read path mid-frame.
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      tasks.swap(posted_);
    }
    for (auto& task : tasks) task();

    if (tick_ms_ != 0 && std::chrono::steady_clock::now() >= next_tick) {
      if (ticker_) ticker_();
      next_tick = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(tick_ms_);
    }

    for (EventHandler* h : deferred_deletes_) delete h;
    deferred_deletes_.clear();
  }
  // The loop is exiting: run whatever was posted before Stop() flipped the
  // gate (e.g. Stop's own close-all-connections task), then free stragglers.
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    accepting_posts_ = false;
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
  for (EventHandler* h : deferred_deletes_) delete h;
  deferred_deletes_.clear();
}

}  // namespace aedb::net::reactor
