/**
 * @file
 * GopherJS-runtime tests: Chan<T> semantics (FIFO, capacity blocking,
 * close, interruption) and full Go programs running as Browsix processes
 * with goroutines coordinating over channels and syscalls.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "apps/registry.h"
#include "core/browsix.h"
#include "jsvm/fiber.h"
#include "runtime/gopher/go_runtime.h"

using namespace browsix;
using rt::Chan;

TEST(Chan, FifoOrder)
{
    jsvm::InterruptToken token;
    Chan<int> ch(&token);
    ch.send(1);
    ch.send(2);
    ch.send(3);
    int v = 0;
    EXPECT_TRUE(ch.recv(v));
    EXPECT_EQ(v, 1);
    ch.recv(v);
    EXPECT_EQ(v, 2);
    ch.recv(v);
    EXPECT_EQ(v, 3);
}

TEST(Chan, RecvBlocksUntilSend)
{
    jsvm::InterruptToken token;
    Chan<std::string> ch(&token);
    std::string got;
    std::thread consumer([&]() {
        ch.recv(got);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(got.empty());
    ch.send("late");
    consumer.join();
    EXPECT_EQ(got, "late");
}

TEST(Chan, BoundedSendBlocksUntilDrained)
{
    jsvm::InterruptToken token;
    Chan<int> ch(&token, 1);
    ch.send(1);
    std::atomic<bool> second_sent{false};
    std::thread producer([&]() {
        ch.send(2); // capacity full: must wait
        second_sent = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(second_sent);
    int v;
    ch.recv(v);
    producer.join();
    EXPECT_TRUE(second_sent);
}

TEST(Chan, CloseDrainsThenReportsClosed)
{
    jsvm::InterruptToken token;
    Chan<int> ch(&token);
    ch.send(7);
    ch.close();
    int v = 0;
    EXPECT_TRUE(ch.recv(v)) << "buffered values survive close";
    EXPECT_EQ(v, 7);
    EXPECT_FALSE(ch.recv(v)) << "drained closed channel reports closed";
}

TEST(Chan, CloseWakesBlockedReceiver)
{
    jsvm::InterruptToken token;
    Chan<int> ch(&token);
    std::atomic<bool> returned{false};
    bool ok = true;
    std::thread consumer([&]() {
        int v;
        ok = ch.recv(v);
        returned = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ch.close();
    consumer.join();
    EXPECT_TRUE(returned);
    EXPECT_FALSE(ok);
}

TEST(Chan, InterruptUnblocksWithWorkerTerminated)
{
    jsvm::InterruptToken token;
    Chan<int> ch(&token);
    std::atomic<bool> threw{false};
    std::thread consumer([&]() {
        try {
            int v;
            ch.recv(v);
        } catch (jsvm::WorkerTerminated &) {
            threw = true;
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.interrupt();
    consumer.join();
    EXPECT_TRUE(threw);
}

namespace {

void
registerGoPrograms()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    apps::registerAllPrograms();
    auto &reg = apps::ProgramRegistry::instance();

    // Goroutine fan-in: N workers compute squares, a channel collects,
    // main sums and writes the result to the shared FS.
    reg.add(apps::ProgramSpec{
        "go-fanin", apps::RuntimeKind::Gopher, 128, nullptr,
        [](rt::GoEnv &env) {
            auto ch = std::make_shared<Chan<int>>(env.token());
            for (int i = 1; i <= 5; i++) {
                env.go([ch, i]() { ch->send(i * i); });
            }
            int sum = 0;
            for (int i = 0; i < 5; i++) {
                int v = 0;
                ch->recv(v);
                sum += v;
            }
            bfs::Buffer out;
            std::string s = std::to_string(sum) + "\n";
            env.writeFile("/tmp/fanin.txt",
                          bfs::Buffer(s.begin(), s.end()));
            env.write(1, s);
        }});

    // Pipeline: generator -> squarer goroutines chained by channels.
    reg.add(apps::ProgramSpec{
        "go-pipeline", apps::RuntimeKind::Gopher, 128, nullptr,
        [](rt::GoEnv &env) {
            auto nums = std::make_shared<Chan<int>>(env.token(), 2);
            auto squares = std::make_shared<Chan<int>>(env.token(), 2);
            env.go([nums]() {
                for (int i = 1; i <= 4; i++)
                    nums->send(i);
                nums->close();
            });
            env.go([nums, squares]() {
                int v;
                while (nums->recv(v))
                    squares->send(v * v);
                squares->close();
            });
            std::string out;
            int v;
            while (squares->recv(v))
                out += std::to_string(v) + " ";
            out += "\n";
            env.write(1, out);
        }});
}

} // namespace

TEST(GoRuntime, GoroutineFanInOverChannels)
{
    registerGoPrograms();
    Browsix bx;
    bx.rootFs().writeFile(
        "/usr/bin/go-fanin",
        apps::ProgramRegistry::instance().bundleFor("go-fanin"));
    auto r = bx.runArgv({"/usr/bin/go-fanin"}, 30000);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "55\n") << "1+4+9+16+25";
    bfs::Buffer f;
    ASSERT_EQ(bx.fs().readFileSync("/tmp/fanin.txt", f), 0)
        << "goroutine results must reach the shared filesystem";
    EXPECT_EQ(std::string(f.begin(), f.end()), "55\n");
}

TEST(GoRuntime, ChannelPipelinePreservesOrder)
{
    registerGoPrograms();
    Browsix bx;
    bx.rootFs().writeFile(
        "/usr/bin/go-pipeline",
        apps::ProgramRegistry::instance().bundleFor("go-pipeline"));
    auto r = bx.runArgv({"/usr/bin/go-pipeline"}, 30000);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "1 4 9 16 \n");
}

TEST(GoRuntime, KilledServerGoroutinesUnwindCleanly)
{
    // A Go process blocked in accept() plus per-connection goroutines
    // must all unwind when the worker is terminated (no hangs/leaks).
    BootConfig cfg;
    cfg.memeAssets = true;
    Browsix bx(cfg);
    int pid = 0;
    bool exited = false;
    bx.kernel().spawnRoot({"/usr/bin/meme-server"},
                          {{"MEME_PORT", "8123"}}, "/",
                          [&](int) { exited = true; }, nullptr, nullptr,
                          [&](int p) { pid = p; });
    ASSERT_TRUE(bx.waitForPort(8123, 10000));
    // Open a connection the server is mid-reading, then SIGKILL.
    net::HttpRequest req;
    req.target = "/api/images";
    auto x = bx.xhr(8123, req);
    EXPECT_EQ(x.err, 0);
    bx.kernel().kill(pid, sys::SIGKILL);
    ASSERT_TRUE(bx.runUntil([&]() { return exited; }, 10000));
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}

TEST(GoRuntime, GoroutinesOutliveAReturnedMain)
{
    // Goroutines hold the GoEnv by reference, so it must live until the
    // last of them unwinds, not only until main returns: here main exits
    // while its goroutine keeps making syscalls through the env (the asan
    // preset reports any use of a freed env).
    apps::registerAllPrograms();
    apps::ProgramRegistry::instance().add(apps::ProgramSpec{
        "go-orphan", apps::RuntimeKind::Gopher, 128, nullptr,
        [](rt::GoEnv &env) {
            env.go([&env]() {
                for (;;)
                    env.rawSyscall("getpid", {});
            });
            // runtime.Gosched(): main and the goroutine share the next
            // quantum, main first, so the goroutine runs right after main
            // has returned.
            jsvm::Fiber::yieldNow();
        }});
    Browsix bx;
    bx.rootFs().writeFile(
        "/usr/bin/go-orphan",
        apps::ProgramRegistry::instance().bundleFor("go-orphan"));
    auto r = bx.runArgv({"/usr/bin/go-orphan"}, 30000);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(bx.kernel().taskCount(), 0u);
}

TEST(GoRuntime, RawSyscallReturnsKernelData)
{
    registerGoPrograms();
    apps::ProgramRegistry::instance().add(apps::ProgramSpec{
        "go-raw", apps::RuntimeKind::Gopher, 128, nullptr,
        [](rt::GoEnv &env) {
            rt::CallResult r = env.rawSyscall("getpid", {});
            rt::CallResult cwd = env.rawSyscall("getcwd", {});
            env.write(1, "pid>0:" +
                             std::string(r.r0 > 0 ? "y" : "n") + " cwd:" +
                             (cwd.data.isString() ? cwd.data.asString()
                                                  : "?") +
                             "\n");
        }});
    Browsix bx;
    bx.rootFs().writeFile(
        "/usr/bin/go-raw",
        apps::ProgramRegistry::instance().bundleFor("go-raw"));
    auto r = bx.runArgv({"/usr/bin/go-raw"}, 30000);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_EQ(r.out, "pid>0:y cwd:/\n");
}
