/**
 * @file
 * Worker-pool scheduler tests (ROADMAP item 1: decouple "process" from
 * "thread"): pooled workers on the kernel run queue, run-state
 * introspection, FIFO fairness under a single pool thread, SIGKILL of a
 * task that never reached a pool thread, the per-tenant NPROC quota
 * (the fork-bomb fence), Kernel::system surfacing spawn failures
 * instead of panicking, and asynchronous worker boot (construction and
 * parse paid by the new worker, not the kernel loop).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.h"
#include "core/browsix.h"
#include "jsvm/test_clock.h"
#include "jsvm/util.h"
#include "tests/test_util.h"

using namespace browsix;

namespace {

using testutil::stage;

void
addProgram(const std::string &name, rt::EmProgramFn fn,
           apps::RuntimeKind kind = apps::RuntimeKind::EmAsync)
{
    testutil::addProgram(name, std::move(fn), kind);
}

/// Worker construction time of the boot tests' profile, its only cost:
/// long enough that no slow thread wake-up on a loaded host outlasts it.
constexpr int64_t kBootUs = 200000;

jsvm::BrowserProfile
slowBootProfile()
{
    jsvm::BrowserProfile p;
    p.name = "slow-boot";
    p.workerSpawnUs = kBootUs;
    return p;
}

BootConfig
slowBootConfig()
{
    BootConfig cfg;
    cfg.profile = slowBootProfile();
    return cfg;
}

std::string
oneByteBlob(jsvm::Browser &browser)
{
    return browser.blobs().createObjectUrl(
        std::make_shared<const std::vector<uint8_t>>(1, 'x'));
}

} // namespace

TEST(Scheduler, ProcessesAreQueueItemsNotThreads)
{
    // The tentpole contract: every process worker is pooled (a run-queue
    // item stepped by the shared pool), not a dedicated thread pair.
    testutil::addParkProgram("sched-park");
    Browsix bx;
    stage(bx, "sched-park");
    EXPECT_GE(bx.kernel().scheduler().poolSize(), 2u);

    int pid = 0;
    bx.kernel().spawnRoot({"/usr/bin/sched-park"}, bx.kernel().defaultEnv,
                          "/", [](int) {}, nullptr, nullptr,
                          [&](int p) { pid = p; });
    ASSERT_TRUE(bx.runUntil([&]() { return pid > 0; }, 30000));
    kernel::Task *t = bx.kernel().task(pid);
    ASSERT_NE(t, nullptr);
    ASSERT_NE(t->worker, nullptr);

    // Once it blocks on its empty pipe the process costs zero threads:
    // the worker winds down to Parked (idle, not queued, not running).
    ASSERT_TRUE(bx.runUntil(
        [&]() { return bx.kernel().runState(pid) == kernel::RunState::Parked; },
        30000))
        << "a blocked process must park instead of holding a thread";
    EXPECT_GT(bx.kernel().scheduler().steps(), 0u);

    EXPECT_EQ(bx.kernel().kill(pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil(
        [&]() { return bx.kernel().taskCount() == 0; }, 30000));
    EXPECT_EQ(bx.kernel().runState(pid), kernel::RunState::Zombie)
        << "a reaped pid reads as Zombie, not a stale phase";
}

TEST(Scheduler, SingleThreadPoolCannotBeStarvedBySpinners)
{
    // Fairness at worker granularity: with ONE pool thread, four guests
    // spinning in a syscall loop must not starve a newcomer — each spin
    // iteration parks its fiber awaiting the reply, the worker yields its
    // quantum, and FIFO ordering guarantees the newcomer's turn.
    addProgram("sched-spin", [](rt::EmEnv &env) -> int {
        for (;;)
            env.getpid(); // parks per call; killed by the host at the end
        return 0;
    });
    addProgram("sched-visitor", [](rt::EmEnv &env) -> int {
        return env.getpid() > 0 ? 0 : 1;
    });
    Browsix bx;
    bx.kernel().setPoolThreads(1);
    stage(bx, "sched-spin");
    stage(bx, "sched-visitor");

    int spinners = 0;
    for (int i = 0; i < 4; i++) {
        bx.kernel().spawnRoot({"/usr/bin/sched-spin"},
                              bx.kernel().defaultEnv, "/", [](int) {},
                              nullptr, nullptr,
                              [&](int p) { spinners += p > 0 ? 1 : 0; });
    }
    ASSERT_TRUE(bx.runUntil([&]() { return spinners == 4; }, 30000));

    // The visitor must run to completion while the spinners never exit.
    auto r = bx.runArgv({"/usr/bin/sched-visitor"}, 60000);
    EXPECT_TRUE(r.ok) << "spinners starved the run queue";
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(bx.kernel().taskCount(), 4u) << "spinners must still be live";

    EXPECT_EQ(bx.kernel().kill(-1, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil(
        [&]() { return bx.kernel().taskCount() == 0; }, 30000));
}

TEST(Scheduler, SigkillOfQueuedNeverRunTaskReapsCleanly)
{
    // SIGKILL a task whose worker is Runnable but has never been stepped:
    // a hog pins the single pool thread in a long CPU burst (no syscalls,
    // so its fiber never yields), the victim is spawned and killed while
    // provably still in the run queue, and its never-started guest fiber
    // must be dropped without unwinding — clean reap, right status.
    addProgram("sched-hog", [](rt::EmEnv &) -> int {
        auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        volatile uint64_t x = 0;
        while (std::chrono::steady_clock::now() < until)
            x += 1;
        return x ? 0 : 1;
    });
    testutil::addParkProgram("sched-park");
    Browsix bx;
    bx.kernel().setPoolThreads(1);
    stage(bx, "sched-hog");
    stage(bx, "sched-park");

    int hog_exit = -1, hog_pid = 0;
    bx.kernel().spawnRoot({"/usr/bin/sched-hog"}, bx.kernel().defaultEnv,
                          "/", [&](int st) { hog_exit = st; }, nullptr,
                          nullptr, [&](int p) { hog_pid = p; });
    ASSERT_TRUE(bx.runUntil(
        [&]() {
            return hog_pid > 0 &&
                   bx.kernel().runState(hog_pid) ==
                       kernel::RunState::Running;
        },
        30000))
        << "hog never started its CPU burst";

    int victim_exit = -1, victim_pid = 0;
    bx.kernel().spawnRoot({"/usr/bin/sched-park"}, bx.kernel().defaultEnv,
                          "/", [&](int st) { victim_exit = st; }, nullptr,
                          nullptr, [&](int p) { victim_pid = p; });
    ASSERT_TRUE(bx.runUntil([&]() { return victim_pid > 0; }, 30000));
    // The one pool thread is inside the hog's burst: the victim can only
    // be queued (its boot step has not happened, its fiber never ran).
    EXPECT_EQ(bx.kernel().runState(victim_pid), kernel::RunState::Runnable)
        << "victim should be waiting in the run queue";
    EXPECT_EQ(bx.kernel().kill(victim_pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil([&]() { return victim_exit != -1; }, 30000));
    EXPECT_EQ(sys::wtermsig(victim_exit), sys::SIGKILL);
    EXPECT_EQ(bx.kernel().runState(victim_pid), kernel::RunState::Zombie);

    ASSERT_TRUE(bx.runUntil([&]() { return hog_exit != -1; }, 60000))
        << "hog never finished after the kill";
    EXPECT_EQ(sys::wexitstatus(hog_exit), 0);
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}

TEST(Scheduler, NprocQuotaReturnsEagainAndRecoversAfterReap)
{
    // The per-tenant NPROC fence: a root process and its descendants
    // share one live-process budget. Spawns past it fail with -EAGAIN;
    // reaping a child frees the slot.
    testutil::addParkProgram("sched-park");
    addProgram("sched-quota", [](rt::EmEnv &env) -> int {
        std::vector<int> kids;
        int rc = 0;
        for (int i = 0; i < 16; i++) {
            int pid =
                env.spawn({"/usr/bin/sched-park"}, std::vector<int>{});
            if (pid < 0) {
                rc = pid;
                break;
            }
            kids.push_back(pid);
        }
        if (rc != -EAGAIN)
            return 1; // quota never engaged
        // Limit 4, root charges 1: exactly 3 children fit.
        if (kids.size() != 3)
            return 2;
        // Reap one child: its slot must become spawnable again.
        if (env.kill(kids[0], sys::SIGKILL) != 0)
            return 3;
        int st = 0;
        if (env.waitpid(kids[0], &st, 0) != kids[0])
            return 4;
        int again = env.spawn({"/usr/bin/sched-park"}, std::vector<int>{});
        if (again <= 0)
            return 5;
        // And the budget is exhausted again right after.
        if (env.spawn({"/usr/bin/sched-park"}, std::vector<int>{}) !=
            -EAGAIN)
            return 6;
        if (env.kill(-1, sys::SIGKILL) != 0) // broadcast excludes self
            return 7;
        while (env.waitpid(-1, nullptr, 0) > 0) {
        }
        return 0;
    });
    Browsix bx;
    bx.kernel().setNprocLimit(4);
    stage(bx, "sched-park");
    stage(bx, "sched-quota");
    auto r = bx.runArgv({"/usr/bin/sched-quota"}, 60000);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}

TEST(Scheduler, TimerParkedWorkerRewakesThroughTheDedupedWakePath)
{
    // A pooled worker that goes Idle with a pending loop timer is brought
    // back by the scheduler's timer rail. Regression: timer promotion
    // used to push the worker onto the run queue directly, skipping
    // signalWork's Idle->Queued CAS — a wake landing in the same window
    // (Atomics::notify of a parked guest, or any signalWork) could then
    // double-queue the worker and two pool threads would resume the same
    // guest fiber at once. Race hundreds of 1ms promotions against a
    // notify/signalWork hammer so TSan (and step()'s ownership CAS)
    // catch any return of the raw push.
    jsvm::Browser browser;
    auto sched = std::make_shared<kernel::Scheduler>(2);
    browser.setExecutor(sched);
    std::string url = browser.blobs().createObjectUrl(
        std::make_shared<const std::vector<uint8_t>>(1, 'x'));
    auto sab = std::make_shared<jsvm::SharedArrayBuffer>(16);
    std::atomic<int> rounds{0};
    std::atomic<int> timer_fired{0};
    auto w = browser.createWorker(url, [&](jsvm::WorkerScope &scope, auto) {
        // Rail 1: a self-re-arming 1ms loop timer, so nearly every step
        // parks the worker with a pending deadline (finishStep ->
        // scheduleTimer -> promoteDueTimersLocked, over and over).
        auto rearm = std::make_shared<std::function<void()>>();
        jsvm::EventLoop *loop = &scope.loop();
        *rearm = [rearm, loop, &timer_fired]() {
            timer_fired++;
            loop->setTimeout(*rearm, 1000);
        };
        loop->setTimeout(*rearm, 1000);
        // Rail 2: a guest fiber parking in Atomics::wait each round; the
        // main-thread notify makes it runnable — and signals the worker —
        // right as a timer promotion may be in flight.
        jsvm::InterruptToken *token = &scope.token();
        scope.startGuest([sab, token, &rounds]() {
            for (;;) {
                if (jsvm::Atomics::wait(*sab, 0, 0, -1, token) !=
                    jsvm::WaitResult::Ok)
                    return; // interrupted: terminate() is unwinding us
                rounds++;
            }
        });
    });
    const int kRounds = 300;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((rounds < kRounds || timer_fired < 20) &&
           std::chrono::steady_clock::now() < deadline) {
        jsvm::Atomics::notify(*sab, 0);
        w->signalWork();
        std::this_thread::yield();
    }
    EXPECT_GE(rounds.load(), kRounds) << "parked guest stopped being rewoken";
    EXPECT_GE(timer_fired.load(), 20) << "scheduler timer rail never fired";
    w->terminate();
    // Retire the pool from this thread (the Kernel does the same in its
    // destructor): without it, a pool thread can drop the last Worker ref
    // — and with it the last Scheduler ref — and ~Scheduler would then
    // join the pool from inside one of its own threads.
    sched->shutdown();
}

TEST(Scheduler, KernelSystemSurfacesSpawnFailureInsteadOfPanicking)
{
    // Regression: a missing /bin/sh used to panic the whole embedder
    // from inside Kernel::system's spawn callback. The negative errno
    // must surface through on_exit instead.
    Browsix bx;
    int unlink_rc = -1;
    bx.fs().unlink("/bin/sh", [&](int err) { unlink_rc = err; });
    ASSERT_TRUE(bx.runUntil([&]() { return unlink_rc != -1; }, 30000));
    ASSERT_EQ(unlink_rc, 0);

    int got = 1;
    bx.kernel().system("echo hi", [&](int status) { got = status; },
                       nullptr, nullptr);
    ASSERT_TRUE(bx.runUntil([&]() { return got != 1; }, 30000))
        << "spawn failure never reached on_exit";
    EXPECT_EQ(got, -ENOENT) << "on_exit must carry the spawn errno";
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}

// ---------- asynchronous worker boot ----------

TEST(Scheduler, SpawnReturnsAtOnceAndChildrenBootConcurrently)
{
    // Construction and parse are the new worker's own wait: a parent
    // spawning four children back to back has all four pids before any
    // child runs, and the four boot within one boot delay of each other,
    // not one delay apart as when the kernel loop slept through each.
    struct Times
    {
        std::atomic<int64_t> issued{0}, spawned{0}, start[4];
    };
    auto tm = std::make_shared<Times>();
    for (auto &s : tm->start)
        s = 0;
    addProgram("boot-child", [tm](rt::EmEnv &env) -> int {
        tm->start[std::stoi(env.argv().at(1))] = jsvm::nowUs();
        return 0;
    });
    addProgram("boot-parent", [tm](rt::EmEnv &env) -> int {
        tm->issued = jsvm::nowUs();
        for (int i = 0; i < 4; i++)
            if (env.spawn({"/usr/bin/boot-child", std::to_string(i)}) <= 0)
                return 1;
        tm->spawned = jsvm::nowUs();
        for (int i = 0; i < 4; i++)
            if (env.waitpid(-1, nullptr, 0) <= 0)
                return 2;
        return 0;
    });
    Browsix bx(slowBootConfig());
    stage(bx, "boot-child");
    stage(bx, "boot-parent");
    auto r = bx.runArgv({"/usr/bin/boot-parent"}, 60000);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.exitCode(), 0);

    int64_t first = tm->start[0], last = tm->start[0];
    for (auto &s : tm->start) {
        ASSERT_GT(s.load(), 0);
        EXPECT_GE(s - tm->issued, kBootUs)
            << "every child waits out its own construction";
        first = std::min<int64_t>(first, s);
        last = std::max<int64_t>(last, s);
    }
    EXPECT_LT(tm->spawned.load(), first)
        << "the parent had all four pids before any child ran";
    EXPECT_LT(last - first, kBootUs) << "the children booted one by one";
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}

TEST(Scheduler, OtherProcessesAreServedWhileAChildBoots)
{
    // While a child boots, the kernel loop keeps answering syscalls and
    // the child holds no pool thread: with ONE pool thread, an already
    // running process's getpid loop completes calls throughout the
    // middle of the child's boot delay.
    struct Shared
    {
        std::atomic<bool> stop{false};
        std::atomic<int64_t> childStart{0};
        std::mutex mu;
        std::vector<int64_t> done; // completion time of each getpid
    };
    auto sh = std::make_shared<Shared>();
    addProgram("boot-looper", [sh](rt::EmEnv &env) -> int {
        while (!sh->stop) {
            if (env.getpid() <= 0)
                return 1;
            std::lock_guard<std::mutex> lk(sh->mu);
            sh->done.push_back(jsvm::nowUs());
        }
        return 0;
    });
    addProgram("boot-late", [sh](rt::EmEnv &) -> int {
        sh->childStart = jsvm::nowUs();
        return 0;
    });
    Browsix bx(slowBootConfig());
    bx.kernel().setPoolThreads(1);
    stage(bx, "boot-looper");
    stage(bx, "boot-late");

    int looper_exit = -1;
    bx.kernel().spawnRoot({"/usr/bin/boot-looper"}, bx.kernel().defaultEnv,
                          "/", [&](int st) { looper_exit = st; }, nullptr,
                          nullptr, [](int) {});
    ASSERT_TRUE(bx.runUntil(
        [&]() {
            std::lock_guard<std::mutex> lk(sh->mu);
            return !sh->done.empty();
        },
        30000))
        << "the looper never ran";

    int late_exit = -1;
    const int64_t t0 = jsvm::nowUs();
    bx.kernel().spawnRoot({"/usr/bin/boot-late"}, bx.kernel().defaultEnv,
                          "/", [&](int st) { late_exit = st; }, nullptr,
                          nullptr, [](int) {});
    ASSERT_TRUE(bx.runUntil([&]() { return late_exit != -1; }, 30000));
    sh->stop = true;
    ASSERT_TRUE(bx.runUntil([&]() { return looper_exit != -1; }, 30000));
    EXPECT_EQ(sys::wexitstatus(looper_exit), 0);
    EXPECT_GE(sh->childStart - t0, kBootUs);

    size_t mid = 0;
    {
        std::lock_guard<std::mutex> lk(sh->mu);
        for (int64_t t : sh->done)
            if (t > t0 + kBootUs / 4 && t < t0 + 3 * kBootUs / 4)
                mid++;
    }
    EXPECT_GT(mid, 0u)
        << "no syscall completed during the middle of the child's boot";
}

TEST(Scheduler, BootingChildIsParkedAndSigkillBeforeBootNeverRunsIt)
{
    // A booting child is Parked: not queued, not on a pool thread. A
    // SIGKILL before its boot deadline reaps it with the signal's status,
    // and its program never runs, even after the deadline has passed.
    auto ran = std::make_shared<std::atomic<bool>>(false);
    addProgram("boot-victim", [ran](rt::EmEnv &) -> int {
        *ran = true;
        return 0;
    });
    Browsix bx(slowBootConfig());
    stage(bx, "boot-victim");

    int exit_st = -1, pid = 0;
    const int64_t t0 = jsvm::nowUs();
    bx.kernel().spawnRoot({"/usr/bin/boot-victim"}, bx.kernel().defaultEnv,
                          "/", [&](int st) { exit_st = st; }, nullptr,
                          nullptr, [&](int p) { pid = p; });
    ASSERT_TRUE(bx.runUntil(
        [&]() {
            return pid > 0 &&
                   bx.kernel().runState(pid) == kernel::RunState::Parked;
        },
        30000));
    EXPECT_LT(jsvm::nowUs() - t0, kBootUs) << "observed after the boot";
    EXPECT_FALSE(*ran);
    EXPECT_EQ(bx.kernel().scheduler().queueDepth(), 0u);

    EXPECT_EQ(bx.kernel().kill(pid, sys::SIGKILL), 0);
    ASSERT_TRUE(bx.runUntil([&]() { return exit_st != -1; }, 30000));
    EXPECT_EQ(sys::wtermsig(exit_st), sys::SIGKILL);
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
    bx.runUntil([&]() { return jsvm::nowUs() > t0 + 2 * kBootUs; }, 30000);
    EXPECT_FALSE(*ran) << "a process killed while booting must never run";
}

TEST(Scheduler, MessagesPostedBeforeBootArriveAfterTheBootstrap)
{
    // createWorker returns at once; messages posted while the worker
    // boots (the kernel's init, then a signal) queue on its loop and are
    // delivered in order once the bootstrap has installed onmessage.
    jsvm::Browser browser(slowBootProfile());
    auto sched = std::make_shared<kernel::Scheduler>(2);
    browser.setExecutor(sched);
    std::atomic<int64_t> booted{0};
    std::mutex mu;
    std::vector<std::string> got;
    bool early = false; // a message ran before the bootstrap
    const int64_t t0 = jsvm::nowUs();
    auto w = browser.createWorker(
        oneByteBlob(browser), [&](jsvm::WorkerScope &scope, auto) {
            booted = jsvm::nowUs();
            scope.setOnMessage([&](jsvm::Value v) {
                std::lock_guard<std::mutex> lk(mu);
                early |= booted == 0;
                got.push_back(v.get("t").asString());
            });
        });
    EXPECT_LT(jsvm::nowUs() - t0, kBootUs)
        << "createWorker must not wait out the construction";
    for (const char *t : {"init", "signal"}) {
        jsvm::Value msg = jsvm::Value::object();
        msg.set("t", jsvm::Value(t));
        w->postMessage(msg);
    }
    ASSERT_TRUE(browser.runUntil(
        [&]() {
            std::lock_guard<std::mutex> lk(mu);
            return got.size() == 2;
        },
        30000));
    EXPECT_GE(booted - t0, kBootUs);
    EXPECT_FALSE(early);
    EXPECT_EQ(got, (std::vector<std::string>{"init", "signal"}));
    w->terminate();
    sched->shutdown();
}

TEST(Scheduler, BootDelayElapsesAsVirtualTimeUnderTestClock)
{
    // Under a jsvm::TestClock the boot delay is virtual time, like any
    // cost charge: a frozen clock must not hang the boot, and the first
    // instruction still lands a full delay after creation.
    {
        jsvm::TestClock clock;
        jsvm::Browser browser(slowBootProfile());
        auto sched = std::make_shared<kernel::Scheduler>(2);
        browser.setExecutor(sched);
        std::atomic<int64_t> booted{0};
        const int64_t t0 = jsvm::nowUs();
        auto w = browser.createWorker(
            oneByteBlob(browser),
            [&](jsvm::WorkerScope &, auto) { booted = jsvm::nowUs(); });
        auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (booted == 0 && std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_NE(booted.load(), 0) << "the boot hung on the frozen clock";
        EXPECT_GE(booted - t0, kBootUs) << "the boot delay was lost";
        w->terminate();
        sched->shutdown();
    }
    // And through the kernel: a whole spawn-to-exit under the clock
    // (declared first, so the kernel's workers go before the clock).
    jsvm::TestClock clock;
    auto ran = std::make_shared<std::atomic<int64_t>>(0);
    addProgram("boot-clocked", [ran](rt::EmEnv &) -> int {
        *ran = jsvm::nowUs();
        return 0;
    });
    Browsix bx(slowBootConfig());
    stage(bx, "boot-clocked");
    const int64_t t0 = jsvm::nowUs();
    auto r = bx.runArgv({"/usr/bin/boot-clocked"}, 30000);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_GE(ran->load() - t0, kBootUs);
}
