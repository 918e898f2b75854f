#include "jsvm/event_loop.h"

#include <chrono>
#include <limits>

#include "jsvm/util.h"

namespace browsix {
namespace jsvm {

namespace {
thread_local EventLoop *tCurrent = nullptr;

struct CurrentGuard
{
    EventLoop *prev;
    explicit CurrentGuard(EventLoop *l) : prev(tCurrent) { tCurrent = l; }
    ~CurrentGuard() { tCurrent = prev; }
};
} // namespace

EventLoop *
EventLoop::current()
{
    return tCurrent;
}

void
EventLoop::setWakeHook(Task hook)
{
    std::lock_guard<std::mutex> lk(mutex_);
    wakeHook_ = std::move(hook);
}

void
EventLoop::post(Task t)
{
    Task hook;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        queue_.push_back(std::move(t));
        hook = wakeHook_;
    }
    cv_.notify_all();
    if (hook)
        hook();
}

uint64_t
EventLoop::setTimeout(Task t, int64_t delay_us)
{
    uint64_t id;
    Task hook;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        id = nextTimerId_++;
        timers_[id] = Timer{nowUs() + (delay_us < 0 ? 0 : delay_us),
                            std::move(t)};
        hook = wakeHook_;
    }
    cv_.notify_all();
    if (hook)
        hook();
    return id;
}

void
EventLoop::clearTimeout(uint64_t id)
{
    std::lock_guard<std::mutex> lk(mutex_);
    timers_.erase(id);
}

void
EventLoop::promoteDueTimersLocked(int64_t now)
{
    for (auto it = timers_.begin(); it != timers_.end();) {
        if (it->second.due_us <= now) {
            queue_.push_back(std::move(it->second.fn));
            it = timers_.erase(it);
        } else {
            ++it;
        }
    }
}

bool
EventLoop::takeTask(Task &out, bool wait)
{
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
        promoteDueTimersLocked(nowUs());
        if (!queue_.empty()) {
            out = std::move(queue_.front());
            queue_.pop_front();
            return true;
        }
        if (!wait)
            return false;
        // Sleep until the next timer is due or something is posted.
        int64_t next = std::numeric_limits<int64_t>::max();
        for (const auto &[id, t] : timers_)
            next = std::min(next, t.due_us);
        if (next == std::numeric_limits<int64_t>::max()) {
            cv_.wait(lk);
        } else {
            int64_t now = nowUs();
            if (next > now) {
                cv_.wait_for(lk,
                             std::chrono::microseconds(next - now));
            }
        }
    }
}

bool
EventLoop::pumpOne(bool wait)
{
    Task t;
    if (!takeTask(t, wait))
        return false;
    CurrentGuard guard(this);
    t();
    return true;
}

size_t
EventLoop::pump()
{
    size_t n = 0;
    while (pumpOne(false))
        n++;
    return n;
}

int64_t
EventLoop::nextTimerDueUs() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    int64_t next = -1;
    for (const auto &[id, t] : timers_)
        if (next < 0 || t.due_us < next)
            next = t.due_us;
    return next;
}

bool
EventLoop::idle() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    return queue_.empty() && timers_.empty();
}

} // namespace jsvm
} // namespace browsix
