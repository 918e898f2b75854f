/**
 * @file
 * Browsix-enabled GopherJS runtime (§4.3, Go).
 *
 * Go programs are C++ callables against GoEnv. The integration points
 * mirror the paper's: a replacement syscall.RawSyscall that suspends the
 * calling goroutine until the kernel's reply (our goroutines park on a
 * condition variable, GopherJS's unwind the JS stack — same semantics),
 * an overridden net.Listen backed by Browsix sockets, an explicit exit
 * syscall when main returns, and deferred startup until the init message
 * delivers argv/environment.
 *
 * A Browsix process may have many outstanding syscalls at once (§4.2);
 * with one goroutine per connection this happens naturally here too.
 */
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "jsvm/fiber.h"
#include "runtime/gopher/int64emu.h"
#include "runtime/syscall_client.h"

namespace browsix {
namespace rt {

/** Thrown by GoEnv::exit (os.Exit). */
struct GoExit
{
    int code;
};

/** A Go channel: goroutine-blocking, interrupt-aware. */
template <typename T>
class Chan
{
  public:
    explicit Chan(jsvm::InterruptToken *token, size_t capacity = 0)
        : token_(token), capacity_(capacity == 0 ? SIZE_MAX : capacity)
    {
    }

    void
    send(T v)
    {
        std::unique_lock<std::mutex> lk(m_);
        waitOn(lk, [&]() { return q_.size() < capacity_ || closed_; });
        if (closed_)
            return; // send on closed channel: dropped (Go would panic)
        q_.push_back(std::move(v));
        cv_.notifyAll();
    }

    /** Returns false when the channel is closed and drained. */
    bool
    recv(T &out)
    {
        std::unique_lock<std::mutex> lk(m_);
        waitOn(lk, [&]() { return !q_.empty() || closed_; });
        if (q_.empty())
            return false;
        out = std::move(q_.front());
        q_.pop_front();
        cv_.notifyAll();
        return true;
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lk(m_);
        closed_ = true;
        cv_.notifyAll();
    }

  private:
    template <typename Pred>
    void
    waitOn(std::unique_lock<std::mutex> &lk, Pred pred)
    {
        uint64_t waker = token_->addWaker([this]() {
            // A goroutine is a fiber, a test's waiter a host thread:
            // notifyAll (under the channel mutex) wakes both alike.
            std::lock_guard<std::mutex> lk2(m_);
            cv_.notifyAll();
        });
        cv_.wait(lk, [&]() { return pred() || token_->interrupted(); });
        lk.unlock();
        token_->removeWaker(waker);
        lk.lock();
        if (token_->interrupted() && !pred())
            throw jsvm::WorkerTerminated{};
    }

    jsvm::InterruptToken *token_;
    size_t capacity_;
    std::mutex m_;
    jsvm::FiberCv cv_;
    std::deque<T> q_;
    bool closed_ = false;
};

class GoEnv
{
  public:
    GoEnv(std::shared_ptr<SyscallClient> client, jsvm::WorkerScope &scope);

    const std::vector<std::string> &argv() const { return init_.args; }
    const std::map<std::string, std::string> &environ() const
    {
        return init_.env;
    }
    int pid() const { return init_.pid; }
    jsvm::InterruptToken *token();

    /** Spawn a goroutine: a guest fiber on the worker, unwound when the
     * worker dies. */
    void go(std::function<void()> fn);

    /** syscall.RawSyscall: suspend this goroutine until the reply. */
    CallResult rawSyscall(const std::string &name, jsvm::Value::Array args);

    // --- net, via Browsix sockets (§4.3 net.Listen override) ---
    int listenTcp(int port, int backlog = 16);
    int accept(int listener_fd);
    int connectTcp(int port);
    int64_t read(int fd, bfs::Buffer &out, size_t n);
    int64_t write(int fd, const void *data, size_t n);
    int64_t write(int fd, const std::string &s);
    int close(int fd);
    int getsockname(int fd);
    /** shutdown(2): how is sys::SHUT_RD_/SHUT_WR_/SHUT_RDWR_. */
    int shutdown(int fd, int how);

    // --- os / io ---
    int readFile(const std::string &path, bfs::Buffer &out);
    int writeFile(const std::string &path, const bfs::Buffer &data);
    std::vector<std::string> readDir(const std::string &path, int &err);
    int64_t nowMs();
    [[noreturn]] void exit(int code) { throw GoExit{code}; }

    /** stderr for log.Printf-style output. */
    void logf(const std::string &line);

  private:
    std::shared_ptr<SyscallClient> client_;
    jsvm::WorkerScope &scope_;
    InitInfo init_;

    friend class GoRuntime;
};

using GoProgramFn = std::function<void(GoEnv &)>;

class GoRuntime
{
  public:
    static void boot(jsvm::WorkerScope &scope,
                     std::shared_ptr<SyscallClient> client,
                     GoProgramFn program);
};

} // namespace rt
} // namespace browsix
