#include "runtime/gopher/go_runtime.h"

#include "jsvm/util.h"

namespace browsix {
namespace rt {

GoEnv::GoEnv(std::shared_ptr<SyscallClient> client, jsvm::WorkerScope &scope)
    : client_(std::move(client)), scope_(scope)
{
    init_ = client_->init();
}

jsvm::InterruptToken *
GoEnv::token()
{
    return &scope_.token();
}

void
GoEnv::go(std::function<void()> fn)
{
    scope_.startGuest([fn = std::move(fn)]() {
        try {
            fn();
        } catch (GoExit &) {
            // os.Exit from a non-main goroutine: swallowed here; the main
            // goroutine owns process exit.
        }
    });
}

CallResult
GoEnv::rawSyscall(const std::string &name, jsvm::Value::Array args)
{
    return blockingCall(*client_, name, std::move(args));
}

int
GoEnv::listenTcp(int port, int backlog)
{
    CallResult s = rawSyscall("socket", {});
    if (s.r0 < 0)
        return static_cast<int>(s.r0);
    int fd = static_cast<int>(s.r0);
    CallResult b = rawSyscall("bind", {jsvm::Value(fd), jsvm::Value(port)});
    if (b.r0 < 0)
        return static_cast<int>(b.r0);
    CallResult l =
        rawSyscall("listen", {jsvm::Value(fd), jsvm::Value(backlog)});
    if (l.r0 < 0)
        return static_cast<int>(l.r0);
    return fd;
}

int
GoEnv::accept(int listener_fd)
{
    return static_cast<int>(
        rawSyscall("accept", {jsvm::Value(listener_fd)}).r0);
}

int
GoEnv::connectTcp(int port)
{
    CallResult s = rawSyscall("socket", {});
    if (s.r0 < 0)
        return static_cast<int>(s.r0);
    int fd = static_cast<int>(s.r0);
    CallResult c =
        rawSyscall("connect", {jsvm::Value(fd), jsvm::Value(port)});
    if (c.r0 < 0)
        return static_cast<int>(c.r0);
    return fd;
}

int64_t
GoEnv::read(int fd, bfs::Buffer &out, size_t n)
{
    CallResult r = rawSyscall(
        "read", {jsvm::Value(fd), jsvm::Value(static_cast<double>(n))});
    if (r.r0 > 0 && r.data.isBytes() && r.data.asBytes())
        out = *r.data.asBytes();
    else
        out.clear();
    return r.r0;
}

int64_t
GoEnv::write(int fd, const void *data, size_t n)
{
    return rawSyscall(
               "write",
               {jsvm::Value(fd),
                jsvm::Value::bytes(static_cast<const uint8_t *>(data), n)})
        .r0;
}

int64_t
GoEnv::write(int fd, const std::string &s)
{
    return write(fd, s.data(), s.size());
}

int
GoEnv::close(int fd)
{
    return static_cast<int>(rawSyscall("close", {jsvm::Value(fd)}).r0);
}

int
GoEnv::getsockname(int fd)
{
    return static_cast<int>(
        rawSyscall("getsockname", {jsvm::Value(fd)}).r0);
}

int
GoEnv::shutdown(int fd, int how)
{
    return static_cast<int>(
        rawSyscall("shutdown", {jsvm::Value(fd), jsvm::Value(how)}).r0);
}

int
GoEnv::readFile(const std::string &path, bfs::Buffer &out)
{
    CallResult o =
        rawSyscall("open", {jsvm::Value(path), jsvm::Value(0),
                            jsvm::Value(0)});
    if (o.r0 < 0)
        return static_cast<int>(o.r0);
    int fd = static_cast<int>(o.r0);
    out.clear();
    for (;;) {
        bfs::Buffer chunk;
        int64_t n = read(fd, chunk, 64 * 1024);
        if (n < 0) {
            close(fd);
            return static_cast<int>(n);
        }
        if (n == 0)
            break;
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    close(fd);
    return 0;
}

int
GoEnv::writeFile(const std::string &path, const bfs::Buffer &data)
{
    CallResult o = rawSyscall(
        "open", {jsvm::Value(path),
                 jsvm::Value(bfs::flags::CREAT | bfs::flags::TRUNC |
                             bfs::flags::WRONLY),
                 jsvm::Value(0644)});
    if (o.r0 < 0)
        return static_cast<int>(o.r0);
    int fd = static_cast<int>(o.r0);
    int64_t n = write(fd, data.data(), data.size());
    close(fd);
    return n < 0 ? static_cast<int>(n) : 0;
}

std::vector<std::string>
GoEnv::readDir(const std::string &path, int &err)
{
    CallResult r = rawSyscall("readdir", {jsvm::Value(path)});
    std::vector<std::string> names;
    if (r.r0 < 0) {
        err = static_cast<int>(-r.r0);
        return names;
    }
    err = 0;
    if (r.data.isArray()) {
        for (const auto &n : r.data.asArray())
            names.push_back(n.isString() ? n.asString() : "");
    }
    return names;
}

int64_t
GoEnv::nowMs()
{
    return rawSyscall("gettimeofday", {}).r0;
}

void
GoEnv::logf(const std::string &line)
{
    write(2, line + "\n");
}

void
GoRuntime::boot(jsvm::WorkerScope &scope,
                std::shared_ptr<SyscallClient> client, GoProgramFn program)
{
    client->onInit([&scope, client,
                    program = std::move(program)](const InitInfo &) {
        auto env = std::make_shared<GoEnv>(client, scope);
        // Goroutines hold the env by reference and may outlive main:
        // anchor it to the worker, which releases it only after every
        // goroutine has unwound.
        scope.atExit([env]() {});
        // The main goroutine is a guest fiber (WorkerScope::startGuest)
        // that owns process exit.
        scope.startGuest([client, env, program]() {
            int code = 0;
            try {
                program(*env);
            } catch (GoExit &e) {
                code = e.code;
            }
            // §4.3: "an explicit call to the exit system call when the
            // main function exits".
            client->post("exit", {jsvm::Value(code)});
        });
    });
}

} // namespace rt
} // namespace browsix
