/**
 * @file
 * The browser: the main JavaScript context plus the worker machinery.
 *
 * The Browsix kernel runs "in the main browser context" — i.e. on this
 * object's main event loop, which the embedding application pumps (just as
 * a web page yields to the browser's event loop). Workers run on the
 * executor installed with setExecutor (the kernel's worker pool); see
 * worker.h.
 */
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "jsvm/blob.h"
#include "jsvm/cost_model.h"
#include "jsvm/event_loop.h"
#include "jsvm/worker.h"

namespace browsix {
namespace jsvm {

class Browser
{
  public:
    explicit Browser(BrowserProfile profile = BrowserProfile::fast());
    ~Browser();

    EventLoop &mainLoop() { return mainLoop_; }
    const CostModel &costs() const { return costs_; }
    BlobRegistry &blobs() { return blobs_; }

    /**
     * Install the worker-pool executor every later createWorker schedules
     * its worker on (see worker.h). Workers capture the shared_ptr at
     * start, so the executor outlives every worker scheduled on it.
     */
    void setExecutor(std::shared_ptr<WorkerExecutor> exec);

    /**
     * Construct a Worker from a blob: URL. Returns at once, as `new
     * Worker()` does: the worker waits out its own construction and parse
     * (CostModel::workerBootUs of the script size) before `main` runs.
     * Panics when no executor is installed.
     *
     * @param url blob URL of the worker script (the executable's bytes).
     * @param main the bootstrap, run in the worker's first step with the
     *        bytes.
     */
    std::shared_ptr<Worker> createWorker(const std::string &url,
                                         Worker::Main main);

    /**
     * Pump the main loop on the calling thread until pred() holds. In
     * between it waits on the loop: a post or a timer ends the wait at
     * once, and pred() is re-checked at least every 200 µs.
     *
     * @return true if pred became true before timeout_ms elapsed.
     */
    bool runUntil(const std::function<bool()> &pred, int64_t timeout_ms = 30000);

    /** Terminate all live workers (page unload). */
    void terminateAll();

  private:
    CostModel costs_;
    EventLoop mainLoop_;
    BlobRegistry blobs_;

    std::mutex mutex_;
    std::shared_ptr<WorkerExecutor> executor_;
    uint64_t nextWorkerId_ = 1;
    std::vector<std::weak_ptr<Worker>> workers_;
};

} // namespace jsvm
} // namespace browsix
