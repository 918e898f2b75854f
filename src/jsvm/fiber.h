/**
 * @file
 * Resumable guest execution contexts for the worker-pool scheduler.
 *
 * A Fiber is a ucontext-backed stackful coroutine owned by a Worker. Every
 * guest "thread" (an Emscripten program, a goroutine, a bytecode VM host
 * loop) runs as a fiber multiplexed onto a fixed pool of host threads: a
 * blocked guest parks its fiber and costs zero threads until the wake
 * event re-enqueues its worker.
 *
 * Parker protocol (the wake/park race is decided by a three-state cell):
 *
 *   kIdle      running or runnable, no pending notification
 *   kNotified  a wake arrived; the next park() consumes it and returns
 *   kParked    committed parked; the next wake() must re-enqueue the owner
 *
 * park() consumes any notification, otherwise raises parkIntent and
 * switches back to the scheduler. The *scheduler* then tries to commit the
 * park with a kIdle -> kParked CAS (commitPark); if a wake slipped in
 * between, the CAS fails and the fiber simply stays runnable. This keeps
 * every state transition a single atomic op and makes lost wakeups
 * structurally impossible.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ucontext.h>
#include <vector>

namespace browsix {
namespace jsvm {

class Fiber
{
  public:
    using Fn = std::function<void()>;
    /** Invoked (from any thread) when wake() hits a committed-parked fiber;
     * must make the owning worker re-resume this fiber. */
    using WakeHook = std::function<void()>;

    /** stack_bytes 0 picks the default (guard-paged, lazily committed). */
    Fiber(Fn fn, WakeHook on_wake, size_t stack_bytes = 0);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Run the fiber on the calling thread until it parks, yields, or
     * finishes. Never call concurrently for the same fiber.
     *
     * @return true when the fiber's fn has returned (or unwound).
     */
    bool resume();

    bool finished() const { return finished_.load(std::memory_order_acquire); }

    /** True once the fiber has been given its first quantum. A never-
     * started fiber can be dropped without unwinding (its fn never ran). */
    bool started() const { return started_; }

    /** After resume() returned false: did the fiber request a park? */
    bool wantsPark() const { return parkIntent_; }

    /**
     * Scheduler side: commit the pending park (kIdle -> kParked CAS).
     * @return false if a wake raced in — the fiber is still runnable.
     */
    bool commitPark();

    /**
     * Notify the fiber; thread-safe, callable from any thread. If the
     * fiber had committed a park, the WakeHook runs (once per park).
     */
    void wake();

    /** The fiber currently executing on this thread, or nullptr. */
    static Fiber *current();

    /**
     * Block the current fiber until wake(). Must be called from inside a
     * fiber. Callers re-check their predicate in a loop: a park may end
     * without a matching wake (commitPark lost the race) and wakes are
     * permitted to be spurious.
     */
    static void park();

    /** Cooperatively yield: switch out but stay runnable (FIFO re-queue). */
    static void yieldNow();

    /**
     * yieldNow() once the calling fiber has held its host thread for a
     * full quantum (1 ms of host steady-clock time since resume()); a
     * no-op before that and outside a fiber. Compute-bound guest loops
     * call this at their interrupt checks for pool fairness: emvm tests
     * its interrupt token every 4096 instructions (a few µs) but gives
     * up the pool thread only once per quantum, as an OS preempts a
     * Web Worker's thread. The quantum is host time, not jsvm::nowUs(),
     * so a frozen TestClock cannot stop the yields.
     */
    static void maybeYield();

  private:
    enum ParkState : int { kIdle = 0, kNotified = 1, kParked = 2 };

    static void trampoline();
    void switchOut();

    Fn fn_;
    WakeHook onWake_;
    std::atomic<int> state_{kIdle};
    std::atomic<bool> finished_{false};
    bool parkIntent_ = false;
    bool started_ = false;
    std::chrono::steady_clock::time_point resumedAt_; // quantum start

    uint8_t *stackBase_ = nullptr; // mmap base (guard page first)
    size_t stackMapBytes_ = 0;     // total mapping incl. guard page
    uint8_t *stackLo_ = nullptr;   // usable stack bottom
    size_t stackBytes_ = 0;        // usable stack size

    ucontext_t ctx_;
    ucontext_t callerCtx_;

    // Sanitizer bookkeeping (no-ops outside ASan/TSan builds).
    void *tsanFiber_ = nullptr;
    void *tsanCaller_ = nullptr;
    void *asanFakeStack_ = nullptr;       // fiber's saved fake stack
    const void *asanCallerBottom_ = nullptr;
    size_t asanCallerSize_ = 0;
};

/**
 * Condition-variable analogue usable from both host threads and fibers.
 *
 * Waiting threads block on an internal std::condition_variable; waiting
 * fibers park. The waiter list is guarded by the caller's mutex — both
 * wait() and notifyAll() must be called with the same mutex held (wait
 * releases it while blocked, exactly like std::condition_variable).
 */
class FiberCv
{
  public:
    /** Block until notified (spurious returns allowed, as with any cv). */
    void wait(std::unique_lock<std::mutex> &lk);

    template <class Pred>
    void wait(std::unique_lock<std::mutex> &lk, Pred pred)
    {
        while (!pred())
            wait(lk);
    }

    /** Wake all waiting threads and fibers; call with the mutex held. */
    void notifyAll();

  private:
    std::condition_variable cv_;
    std::vector<Fiber *> fiberWaiters_; // guarded by the external mutex
};

} // namespace jsvm
} // namespace browsix
