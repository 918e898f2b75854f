/**
 * @file
 * In-worker POSIX surface tests: a C-style test program runs inside a
 * Browsix process and exercises every EmEnv call — parameterized over
 * the two syscall conventions (§3.2), so each operation is verified both
 * through structured-clone messages and through the shared-heap path
 * (string marshalling, heap out-copies, packed stats, dirent records).
 *
 * The program reports failures as "FAIL <what>" lines on stdout and its
 * exit code is the failure count; the host asserts on both.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "apps/registry.h"
#include "core/browsix.h"

using namespace browsix;

namespace {

/** The in-process assertion helper. */
struct Checker
{
    rt::EmEnv &env;
    int failures = 0;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            env.write(1, "FAIL " + what + "\n");
            failures++;
        }
    }
};

int
posixTestMain(rt::EmEnv &env)
{
    Checker t{env};
    using bfs::flags::APPEND;
    using bfs::flags::CREAT;
    using bfs::flags::RDONLY;
    using bfs::flags::RDWR;
    using bfs::flags::TRUNC;
    using bfs::flags::WRONLY;

    // --- open/write/read/llseek ---
    int fd = env.open("/tmp/posix.txt", CREAT | TRUNC | RDWR);
    t.check(fd >= 0, "open CREAT");
    t.check(env.write(fd, std::string("hello world")) == 11, "write 11");
    t.check(env.llseek(fd, 0, 0) == 0, "llseek SET 0");
    bfs::Buffer buf;
    t.check(env.read(fd, buf, 5) == 5 &&
                std::string(buf.begin(), buf.end()) == "hello",
            "read 5 after seek");
    t.check(env.llseek(fd, -5, 2) == 6, "llseek END-5");
    t.check(env.read(fd, buf, 16) == 5 &&
                std::string(buf.begin(), buf.end()) == "world",
            "read tail");

    // --- pread/pwrite do not move the cursor ---
    t.check(env.pwrite(fd, "WORLD", 5, 6) == 5, "pwrite at 6");
    t.check(env.pread(fd, buf, 5, 6) == 5 &&
                std::string(buf.begin(), buf.end()) == "WORLD",
            "pread at 6");
    t.check(env.read(fd, buf, 16) == 0, "cursor still at EOF");

    // --- writev gather (iovec SQE / sync call under the shared-heap
    // conventions; concatenated single write under async) ---
    int vfd = env.open("/tmp/posix-writev.txt", CREAT | TRUNC | RDWR);
    t.check(vfd >= 0, "open writev file");
    std::vector<std::string> parts = {"alpha ", "", "beta ", "gamma"};
    t.check(env.writev(vfd, parts) == 16, "writev total");
    t.check(env.llseek(vfd, 0, 0) == 0, "llseek writev SET 0");
    t.check(env.read(vfd, buf, 64) == 16 &&
                std::string(buf.begin(), buf.end()) ==
                    "alpha beta gamma",
            "writev content in order");
    // Hundreds of fragments exercise the chunking path end to end.
    std::vector<std::string> many(300, "x");
    t.check(env.writev(vfd, many) == 300, "writev 300 fragments");
    t.check(env.writev(vfd, {}) == 0, "empty writev is a no-op");
    t.check(env.close(vfd) == 0, "close writev file");

    // --- fstat / stat ---
    sys::StatX st;
    t.check(env.fstat(fd, st) == 0 && st.size == 11 && st.isFile(),
            "fstat size/type");
    t.check(env.stat("/tmp/posix.txt", st) == 0 && st.size == 11,
            "stat by path");
    t.check(env.close(fd) == 0, "close");
    t.check(env.close(fd) < 0, "double close fails");

    // --- dup/dup2 share the description ---
    int a = env.open("/tmp/dup.txt", CREAT | TRUNC | WRONLY);
    int b = env.dup(a);
    t.check(b >= 0 && b != a, "dup returns new fd");
    t.check(env.write(a, std::string("xx")) == 2, "write via a");
    t.check(env.write(b, std::string("yy")) == 2, "write via b");
    env.close(a);
    env.close(b);
    t.check(env.stat("/tmp/dup.txt", st) == 0 && st.size == 4,
            "dup'd fds share the offset");
    int c = env.open("/tmp/dup.txt", RDONLY);
    t.check(env.dup2(c, 17) == 17, "dup2 to chosen fd");
    t.check(env.read(17, buf, 4) == 4, "read via dup2'd fd");
    env.close(c);
    env.close(17);

    // --- append mode ---
    int ap = env.open("/tmp/dup.txt", WRONLY | APPEND);
    env.write(ap, std::string("!"));
    env.close(ap);
    env.stat("/tmp/dup.txt", st);
    t.check(st.size == 5, "O_APPEND writes at the end");

    // --- directories & dirents ---
    t.check(env.mkdir("/tmp/dir") == 0, "mkdir");
    t.check(env.mkdir("/tmp/dir") < 0, "mkdir EEXIST");
    env.close(env.open("/tmp/dir/f1", CREAT | WRONLY));
    env.close(env.open("/tmp/dir/f2", CREAT | WRONLY));
    int dfd = env.open("/tmp/dir", RDONLY);
    std::vector<sys::Dirent> entries;
    t.check(env.getdents(dfd, entries) == 0, "getdents");
    env.close(dfd);
    size_t regular = 0;
    for (const auto &e : entries)
        if (e.type == sys::DT_REG)
            regular++;
    t.check(regular == 2, "getdents finds 2 files");
    t.check(env.rmdir("/tmp/dir") < 0, "rmdir non-empty fails");
    t.check(env.unlink("/tmp/dir/f1") == 0 &&
                env.unlink("/tmp/dir/f2") == 0 &&
                env.rmdir("/tmp/dir") == 0,
            "unlink+rmdir");

    // --- rename / access / utimes ---
    t.check(env.rename("/tmp/dup.txt", "/tmp/renamed.txt") == 0, "rename");
    t.check(env.access("/tmp/renamed.txt", 0) == 0, "access new");
    t.check(env.access("/tmp/dup.txt", 0) < 0, "access old gone");
    t.check(env.utimes("/tmp/renamed.txt", 5000000, 7000000) == 0,
            "utimes");
    env.stat("/tmp/renamed.txt", st);
    t.check(st.mtimeUs == 7000000, "utimes mtime visible");

    // --- symlink / readlink ---
    t.check(env.symlink("/tmp/renamed.txt", "/tmp/link") == 0, "symlink");
    std::string target;
    t.check(env.readlink("/tmp/link", target) == 0 &&
                target == "/tmp/renamed.txt",
            "readlink");
    int lf = env.open("/tmp/link", RDONLY);
    t.check(lf >= 0, "open through symlink");
    env.close(lf);
    t.check(env.lstat("/tmp/link", st) == 0 && st.isSymlink(),
            "lstat sees the link");

    // --- cwd ---
    t.check(env.chdir("/tmp") == 0, "chdir");
    t.check(env.getcwd() == "/tmp", "getcwd");
    t.check(env.access("renamed.txt", 0) == 0, "relative path after chdir");
    t.check(env.chdir("/tmp/renamed.txt") < 0, "chdir to file fails");

    // --- process metadata ---
    t.check(env.getpid() > 0, "getpid");
    t.check(env.getppid() == 0, "root task has ppid 0");
    t.check(env.nowMs() > 0, "gettimeofday");
    t.check(env.ioctlIsatty(1) == 0, "stdout isatty (callback sink)");

    // --- pipe2 round trip ---
    int pfds[2] = {-1, -1};
    t.check(env.pipe2(pfds) == 0 && pfds[0] >= 0 && pfds[1] >= 0,
            "pipe2");
    t.check(env.write(pfds[1], std::string("ping")) == 4, "pipe write");
    t.check(env.read(pfds[0], buf, 16) == 4 &&
                std::string(buf.begin(), buf.end()) == "ping",
            "pipe read");
    env.close(pfds[0]);
    env.close(pfds[1]);

    // --- a signal sent to self is handled by the time kill returns ---
    bool got_usr1 = false;
    env.signal(sys::SIGUSR1, [&got_usr1](int) { got_usr1 = true; });
    t.check(env.kill(env.getpid(), sys::SIGUSR1) == 0, "kill self");
    t.check(got_usr1, "SIGUSR1 handler ran before kill returned");
    env.signal(sys::SIGUSR1, nullptr);

    // --- error paths ---
    t.check(env.open("/no/such/file", RDONLY) == -ENOENT, "ENOENT open");
    bfs::Buffer scratch;
    t.check(env.read(99, scratch, 4) == -EBADF, "EBADF read");
    t.check(env.unlink("/tmp") == -EISDIR, "EISDIR unlink");

    return t.failures;
}

void
registerPosixTest()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    apps::registerAllPrograms();
    auto &reg = apps::ProgramRegistry::instance();
    reg.add(apps::ProgramSpec{"posixtest-sync", apps::RuntimeKind::EmSync,
                              64, posixTestMain, nullptr});
    reg.add(apps::ProgramSpec{"posixtest-async",
                              apps::RuntimeKind::EmAsync, 64,
                              posixTestMain, nullptr});
    reg.add(apps::ProgramSpec{"posixtest-ring", apps::RuntimeKind::EmRing,
                              64, posixTestMain, nullptr});
}

class EmEnvPosix : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EmEnvPosix, FullSurface)
{
    registerPosixTest();
    Browsix bx;
    std::string prog = GetParam();
    bx.rootFs().writeFile(
        "/usr/bin/" + prog,
        apps::ProgramRegistry::instance().bundleFor(prog));
    uint64_t sync_before = bx.kernel().stats().syncSyscallCount;
    auto r = bx.runArgv({"/usr/bin/" + prog}, 60000);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.out, "") << "in-process assertion failures:\n" << r.out;
    EXPECT_EQ(r.exitCode(), 0) << prog << " reported failures";
    if (prog == "posixtest-ring") {
        // Every shared-heap call of a ring process rides the ring.
        EXPECT_EQ(bx.kernel().stats().syncSyscallCount, sync_before)
            << "a ring process made sync-convention calls";
    }
}

INSTANTIATE_TEST_SUITE_P(Conventions, EmEnvPosix,
                         ::testing::Values("posixtest-sync",
                                           "posixtest-async",
                                           "posixtest-ring"),
                         [](const ::testing::TestParamInfo<const char *> &i) {
                             std::string p(i.param);
                             if (p.find("ring") != std::string::npos)
                                 return std::string("Ring");
                             if (p.find("async") != std::string::npos)
                                 return std::string("AsyncEmterpreter");
                             return std::string("Sync");
                         });

TEST(EmEnvSignals, HandlerRunsAtSyscallBoundary)
{
    registerPosixTest();
    apps::ProgramRegistry::instance().add(apps::ProgramSpec{
        "sigwait-test", apps::RuntimeKind::EmAsync, 64,
        [](rt::EmEnv &env) -> int {
            bool got_usr1 = false;
            env.signal(sys::SIGUSR1,
                       [&got_usr1](int) { got_usr1 = true; });
            // Tell the host we're ready, then wait for the signal by
            // polling at syscall boundaries (JS cannot be preempted).
            env.write(1, "ready\n");
            for (int i = 0; i < 2000 && !got_usr1; i++)
                env.getpid(); // each call polls pending signals
            env.write(1, got_usr1 ? "handled\n" : "missed\n");
            return got_usr1 ? 0 : 1;
        },
        nullptr});
    Browsix bx;
    bx.rootFs().writeFile(
        "/usr/bin/sigwait-test",
        apps::ProgramRegistry::instance().bundleFor("sigwait-test"));

    std::string out;
    bool exited = false;
    int status = 0;
    int pid = 0;
    bx.kernel().spawnRoot(
        {"/usr/bin/sigwait-test"}, bx.kernel().defaultEnv, "/",
        [&](int st) {
            status = st;
            exited = true;
        },
        [&](const bfs::Buffer &d) { out.append(d.begin(), d.end()); },
        nullptr, [&](int p) { pid = p; });
    ASSERT_TRUE(
        bx.runUntil([&]() { return out.find("ready") != std::string::npos; },
                    10000));
    bx.kernel().kill(pid, sys::SIGUSR1);
    ASSERT_TRUE(bx.runUntil([&]() { return exited; }, 10000));
    EXPECT_EQ(sys::wexitstatus(status), 0);
    EXPECT_NE(out.find("handled"), std::string::npos) << out;
}

TEST(EmEnvSignals, IgnoredSignalDoesNotKill)
{
    registerPosixTest();
    apps::ProgramRegistry::instance().add(apps::ProgramSpec{
        "sigign-test", apps::RuntimeKind::EmAsync, 64,
        [](rt::EmEnv &env) -> int {
            env.signal(sys::SIGTERM, [](int) {}); // handler: survive
            env.write(1, "ready\n");
            for (int i = 0; i < 50; i++)
                env.getpid();
            env.write(1, "survived\n");
            return 0;
        },
        nullptr});
    Browsix bx;
    bx.rootFs().writeFile(
        "/usr/bin/sigign-test",
        apps::ProgramRegistry::instance().bundleFor("sigign-test"));
    std::string out;
    bool exited = false;
    int status = 0;
    int pid = 0;
    bx.kernel().spawnRoot(
        {"/usr/bin/sigign-test"}, bx.kernel().defaultEnv, "/",
        [&](int st) {
            status = st;
            exited = true;
        },
        [&](const bfs::Buffer &d) { out.append(d.begin(), d.end()); },
        nullptr, [&](int p) { pid = p; });
    ASSERT_TRUE(
        bx.runUntil([&]() { return out.find("ready") != std::string::npos; },
                    10000));
    bx.kernel().kill(pid, sys::SIGTERM);
    ASSERT_TRUE(bx.runUntil([&]() { return exited; }, 10000));
    EXPECT_TRUE(sys::wifExited(status))
        << "SIGTERM with a handler must not terminate";
    EXPECT_NE(out.find("survived"), std::string::npos);
}

TEST(EmEnvPipes, PipeBetweenParentAndSpawnedChild)
{
    registerPosixTest();
    apps::ProgramRegistry::instance().add(apps::ProgramSpec{
        "pipespawn-test", apps::RuntimeKind::EmAsync, 64,
        [](rt::EmEnv &env) -> int {
            // parent: pipe2, spawn `echo` with stdout = write end, read
            // the result back through the pipe.
            int fds[2];
            if (env.pipe2(fds) != 0)
                return 1;
            int pid = env.spawn({"/usr/bin/echo", "through-pipe"},
                                {0, fds[1], 2});
            if (pid < 0)
                return 2;
            env.close(fds[1]);
            std::string got;
            for (;;) {
                bfs::Buffer chunk;
                int64_t n = env.read(fds[0], chunk, 4096);
                if (n <= 0)
                    break;
                got.append(chunk.begin(), chunk.end());
            }
            env.close(fds[0]);
            int status = 0;
            env.waitpid(pid, &status, 0);
            if (got != "through-pipe\n")
                return 3;
            if (sys::wexitstatus(status) != 0)
                return 4;
            return 0;
        },
        nullptr});
    Browsix bx;
    bx.rootFs().writeFile(
        "/usr/bin/pipespawn-test",
        apps::ProgramRegistry::instance().bundleFor("pipespawn-test"));
    auto r = bx.runArgv({"/usr/bin/pipespawn-test"}, 60000);
    EXPECT_EQ(r.exitCode(), 0)
        << "pipe/spawn/wait through EmEnv failed with code "
        << r.exitCode();
}

TEST(EmEnvWait, WnohangReturnsZeroForRunningChild)
{
    registerPosixTest();
    apps::ProgramRegistry::instance().add(apps::ProgramSpec{
        "wnohang-test", apps::RuntimeKind::EmAsync, 64,
        [](rt::EmEnv &env) -> int {
            int pid = env.spawn({"/usr/bin/primes"});
            if (pid < 0)
                return 1;
            int status = -1;
            // Child is computing: WNOHANG sees nothing yet (0), a
            // blocking wait then reaps it.
            int rc1 = env.waitpid(pid, &status, sys::WNOHANG);
            int rc2 = env.waitpid(pid, &status, 0);
            if (rc2 != pid)
                return 2;
            if (rc1 != 0 && rc1 != pid)
                return 3;
            // ECHILD afterwards: already reaped.
            if (env.waitpid(pid, &status, 0) != -ECHILD)
                return 4;
            return 0;
        },
        nullptr});
    Browsix bx;
    bx.rootFs().writeFile(
        "/usr/bin/wnohang-test",
        apps::ProgramRegistry::instance().bundleFor("wnohang-test"));
    auto r = bx.runArgv({"/usr/bin/wnohang-test"}, 60000);
    EXPECT_EQ(r.exitCode(), 0) << "code " << r.exitCode();
}

} // namespace
