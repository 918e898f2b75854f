#include "jsvm/browser.h"

#include <chrono>
#include <thread>

#include "jsvm/util.h"

namespace browsix {
namespace jsvm {

Browser::Browser(BrowserProfile profile) : costs_(std::move(profile)) {}

Browser::~Browser()
{
    terminateAll();
}

void
Browser::setExecutor(std::shared_ptr<WorkerExecutor> exec)
{
    std::lock_guard<std::mutex> lk(mutex_);
    executor_ = std::move(exec);
}

std::shared_ptr<Worker>
Browser::createWorker(const std::string &url, Worker::Main main)
{
    auto script = blobs_.resolve(url);
    if (!script)
        panic("createWorker: unknown blob URL " + url);

    uint64_t id;
    std::shared_ptr<WorkerExecutor> exec;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        exec = executor_;
        id = nextWorkerId_++;
    }
    if (!exec)
        panic("createWorker: no executor installed (Browser::setExecutor)");
    // Not make_shared: the constructor is private.
    std::shared_ptr<Worker> w(new Worker(*this, id, script, std::move(main)));
    {
        std::lock_guard<std::mutex> lk(mutex_);
        workers_.push_back(w);
    }
    w->start(std::move(exec), costs_.workerBootUs(script->size()));
    return w;
}

bool
Browser::runUntil(const std::function<bool()> &pred, int64_t timeout_ms)
{
    int64_t deadline = nowUs() + timeout_ms * 1000;
    for (;;) {
        mainLoop_.pump();
        if (pred())
            return true;
        if (nowUs() >= deadline)
            return false;
        if (!mainLoop_.pumpOne(false))
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

void
Browser::terminateAll()
{
    std::vector<std::weak_ptr<Worker>> workers;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        workers.swap(workers_);
    }
    for (auto &wp : workers) {
        if (auto w = wp.lock())
            w->terminate();
    }
}

} // namespace jsvm
} // namespace browsix
