/**
 * @file
 * Web Worker: an isolated JavaScript context running in parallel.
 *
 * Workers share nothing with the main context (except SharedArrayBuffers)
 * and communicate only via postMessage, whose payloads are structured-clone
 * copied. Browsix builds Unix processes on top of these (§3.3).
 *
 * A worker is a run-queue item on its Browser's executor
 * (Browser::setExecutor; the kernel installs its kernel::Scheduler). A
 * fixed pool of host threads pops workers and calls step(), which pumps
 * the worker's event loop and resumes its guest fibers. Parked guests cost
 * zero threads; every wake-up (a message, a timer, a woken fiber) goes
 * through signalWork(), which re-enqueues the worker. This is what takes
 * the process table to 10k+ live.
 *
 * A new worker boots like a browser's: `new Worker()` returns at once, and
 * the worker itself waits out its construction and script parse
 * (CostModel::workerBootUs) on a scheduler timer before the bootstrap
 * runs. Messages posted meanwhile queue on its loop and arrive after the
 * bootstrap has installed onmessage.
 */
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "jsvm/event_loop.h"
#include "jsvm/fiber.h"
#include "jsvm/sab.h"
#include "jsvm/value.h"

namespace browsix {
namespace jsvm {

class Browser;
class Worker;
class CostModel;

/**
 * Where workers get their host-thread time. Implemented by the kernel's
 * Scheduler; declared here so jsvm stays independent of kernel.
 */
class WorkerExecutor
{
  public:
    virtual ~WorkerExecutor() = default;

    /** Hand the worker a step of execution; must not run it inline unless
     * the executor has shut down. Callable from any thread. */
    virtual void enqueue(std::shared_ptr<Worker> w) = 0;

    /** Re-enqueue the worker once nowUs() reaches due_us (worker-loop
     * timers). Callable from any thread. */
    virtual void scheduleTimer(std::shared_ptr<Worker> w, int64_t due_us) = 0;
};

/**
 * The worker-global scope: what code running inside the worker sees.
 *
 * Mirrors DedicatedWorkerGlobalScope: postMessage back to the parent,
 * an onmessage handler, and (our addition) the interrupt token that
 * Worker::terminate() trips so blocked guests can unwind. Owned by the
 * Worker itself (not a stack frame), so guest contexts can never outlive
 * it.
 */
class WorkerScope
{
  public:
    explicit WorkerScope(Worker &w) : worker_(w) {}

    /** Send a message to the parent (main) context. */
    void postMessage(const Value &v);

    /** Register the worker-side message handler (runs on the worker loop). */
    void setOnMessage(std::function<void(Value)> handler);

    EventLoop &loop();
    InterruptToken &token();
    const CostModel &costs() const;

    /**
     * Launch a guest execution context running fn: a fiber multiplexed on
     * the worker pool. fn may block in Atomics::wait, blockingCall, and
     * channel waits; on termination those sites throw WorkerTerminated (or
     * return Interrupted) to unwind it.
     */
    void startGuest(std::function<void()> fn);

    /** Run fn once the worker is torn down, after every guest fiber has
     * unwound (e.g. release state the guests captured). */
    void atExit(std::function<void()> fn);

  private:
    Worker &worker_;
};

/**
 * Handle to a worker, held by the creating (main) context.
 */
class Worker : public std::enable_shared_from_this<Worker>
{
  public:
    /// The "script": invoked once, in the worker's first step past its
    /// boot delay, before the loop runs any message.
    using Main = std::function<void(WorkerScope &,
                                    std::shared_ptr<const std::vector<uint8_t>>)>;

    ~Worker();

    /** Send a message to the worker (structured-clone copied). */
    void postMessage(const Value &v);

    /** Parent-side message handler; runs on the main loop. */
    void setOnMessage(std::function<void(Value)> handler);

    /**
     * Immediately terminate the worker, like Worker.terminate(): wakes any
     * Atomics.wait, stops the loop, and re-enqueues the worker so a pool
     * thread unwinds its fibers (a queued-but-never-run guest is simply
     * dropped). Returns without waiting for the unwind. Idempotent.
     */
    void terminate();

    bool terminated() const;

    /**
     * Run one scheduling quantum on the calling thread — bootstrap on
     * the first call after the boot delay (before it, the step only
     * re-arms the boot timer), pump the event loop, resume each runnable
     * fiber once, then either re-enqueue (more work / signalled during
     * the step) or go idle. Called only by the executor, never
     * concurrently.
     */
    void step();

    /**
     * Mark the worker runnable and enqueue it if it is idle; coalesces
     * into a dirty flag if a step is in flight. Thread-safe.
     */
    void signalWork();

    /** Scheduling phase for introspection (kernel run states). */
    enum class RunPhase {
        Running, ///< a pool thread is stepping it right now
        Queued,  ///< in the run queue waiting for a pool thread
        Parked   ///< idle: every guest is parked, no pending work
    };
    RunPhase runPhase() const;

    InterruptToken &token() { return token_; }
    uint64_t id() const { return id_; }

  private:
    friend class Browser;
    friend class WorkerScope;

    Worker(Browser &browser, uint64_t id,
           std::shared_ptr<const std::vector<uint8_t>> script, Main main);
    void start(std::shared_ptr<WorkerExecutor> executor,
               int64_t boot_delay_us);
    bool bootDue();
    void startGuest(std::function<void()> fn);
    void fiberWoken(uint64_t fiber_id);
    void resumeRunnableFibers();
    void teardownFibers();
    void finishStep();
    bool hasPendingWork();

    /// One guest execution context.
    struct GuestFiber
    {
        uint64_t id = 0;
        bool runnable = true; ///< guarded by Worker::mutex_
        std::unique_ptr<Fiber> fiber;
    };

    /// Scheduling state; transitions are lock-free CAS.
    enum class SchedState : int {
        Idle,    ///< not queued, not running
        Queued,  ///< in the executor's run queue
        Running, ///< step() in flight on a pool thread
        Dirty    ///< step() in flight AND new work arrived: re-queue after
    };

    Browser &browser_;
    uint64_t id_;
    std::shared_ptr<const std::vector<uint8_t>> script_;
    Main main_;

    EventLoop loop_;
    InterruptToken token_;
    std::unique_ptr<WorkerScope> scope_; // worker-owned: outlives all guests

    std::shared_ptr<WorkerExecutor> executor_;
    std::atomic<SchedState> schedState_{SchedState::Idle};
    int64_t bootDueUs_ = 0; // set by start(), then read-only
    bool booted_ = false;   // step-thread only
    bool tornDown_ = false; // step-thread only

    mutable std::mutex mutex_;
    bool terminated_ = false;
    uint64_t nextFiberId_ = 1;
    std::vector<std::shared_ptr<GuestFiber>> fibers_;
    std::function<void(Value)> parentHandler_;
    std::function<void(Value)> workerHandler_;
    std::vector<std::function<void()>> atExit_;
};

} // namespace jsvm
} // namespace browsix
