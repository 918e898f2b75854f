/**
 * @file
 * The kernel run queue: a fixed pool of host threads driving pooled
 * workers (jsvm::WorkerExecutor implementation).
 *
 * Decouples "process" from "thread" (ROADMAP item 1): every guest process
 * is a queue item, not a thread pair, so 10k+ live processes share
 * hardware_concurrency host threads. FIFO ordering gives starvation
 * freedom at worker granularity: a guest that blocks ends its step at
 * once, and a compute-bound one ends it when its fiber's host-time
 * quantum (1 ms, jsvm::Fiber::maybeYield) is spent, then re-queues
 * behind everyone else. A step is thus a block point or a quantum, never
 * a few µs of compute.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "jsvm/worker.h"

namespace browsix {
namespace kernel {

class Scheduler final : public jsvm::WorkerExecutor
{
  public:
    /** threads == 0 sizes the pool to hardware_concurrency (min 2). */
    explicit Scheduler(unsigned threads = 0);
    ~Scheduler() override;

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Push a worker onto the run queue; pool threads start lazily on the
     * first enqueue. After shutdown(), runs the step inline instead (so
     * late terminations still unwind their guests). */
    void enqueue(std::shared_ptr<jsvm::Worker> w) override;

    /** Re-enqueue w once jsvm::nowUs() reaches due_us. */
    void scheduleTimer(std::shared_ptr<jsvm::Worker> w,
                       int64_t due_us) override;

    /**
     * Stop the pool: drains the remaining queue (stepping each worker so
     * terminated guests unwind), then joins every thread. Idempotent.
     */
    void shutdown();

    unsigned poolSize() const { return poolSize_; }

    /** Total steps executed (pool + inline); scheduling observability. */
    uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }

    /** Run-queue depth right now. */
    size_t queueDepth() const;

  private:
    void threadMain();
    void startThreadsLocked();
    // Collect workers whose timers are due into `due`; returns the next
    // pending due time (us) or -1. Caller holds mutex_ and must drop it
    // before waking the collected workers via Worker::signalWork (whose
    // Idle->Queued CAS dedupes — a raw queue_ push could double-queue a
    // worker and let two pool threads step it concurrently).
    int64_t promoteDueTimersLocked(int64_t now,
                                   std::vector<std::shared_ptr<jsvm::Worker>> &due);

    struct PendingTimer
    {
        int64_t due_us;
        std::weak_ptr<jsvm::Worker> worker;
    };

    unsigned poolSize_;
    std::atomic<uint64_t> steps_{0};

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<jsvm::Worker>> queue_;
    std::vector<PendingTimer> timers_;
    std::vector<std::thread> threads_;
    bool started_ = false;
    bool stopping_ = false;
    bool shutdownDone_ = false;
};

} // namespace kernel
} // namespace browsix
