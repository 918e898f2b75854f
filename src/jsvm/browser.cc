#include "jsvm/browser.h"

#include <algorithm>

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
    // A post or a timer ends the wait at once. The bound remains because
    // some predicates read state that pool threads change without posting
    // to the main loop (a worker's run state, say).
    constexpr int64_t kRecheckUs = 200;
    int64_t deadline = nowUs() + timeout_ms * 1000;
    for (;;) {
        mainLoop_.pump();
        if (pred())
            return true;
        int64_t now = nowUs();
        if (now >= deadline)
            return false;
        mainLoop_.waitForWork(std::min(deadline, now + kRecheckUs));
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
