/**
 * @file
 * A per-context event loop, the execution model of a JavaScript context.
 *
 * The main browser context and every Web Worker run one of these. Tasks
 * posted from other threads model postMessage delivery; timers model
 * setTimeout. A context never blocks except inside Atomics.wait.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>

namespace browsix {
namespace jsvm {

class EventLoop
{
  public:
    using Task = std::function<void()>;

    EventLoop() = default;
    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Enqueue a task; thread-safe. */
    void post(Task t);

    /**
     * Install a hook invoked (outside the loop lock) whenever a task or
     * timer is posted. A worker uses this to re-enqueue itself on the
     * pool when work arrives for its loop while it is parked.
     */
    void setWakeHook(Task hook);

    /** Schedule a task after delay_us microseconds; returns a timer id. */
    uint64_t setTimeout(Task t, int64_t delay_us);

    /** Cancel a pending timer; no-op if already fired. */
    void clearTimeout(uint64_t id);

    /**
     * Run a single task.
     *
     * @param wait block until a task is ready when none pending.
     * @return true if a task ran.
     */
    bool pumpOne(bool wait);

    /** Drain all currently-ready tasks (and due timers); returns count. */
    size_t pump();

    /** True when no tasks are queued and no timers are pending. */
    bool idle() const;

    /**
     * Absolute due time (us) of the soonest pending timer, or -1 when no
     * timers are pending. Lets a test clock jump straight to the next
     * deadline instead of sleeping (see jsvm::TestClock::pumpUntilIdle).
     */
    int64_t nextTimerDueUs() const;

    /** The loop currently executing on this thread, or nullptr. */
    static EventLoop *current();

  private:
    struct Timer
    {
        int64_t due_us;
        Task fn;
    };

    // Pop one ready task; with wait, blocks until one is ready.
    bool takeTask(Task &out, bool wait);
    void promoteDueTimersLocked(int64_t now);

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Task> queue_;
    std::map<uint64_t, Timer> timers_; // id -> timer; ids are monotonic
    uint64_t nextTimerId_ = 1;
    Task wakeHook_;
};

} // namespace jsvm
} // namespace browsix
