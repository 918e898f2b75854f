/**
 * @file
 * Browsix-enhanced Emscripten runtime (§4.3, C and C++).
 *
 * "Compiled" C programs are C++ callables written against EmEnv, a
 * blocking POSIX-style API. Two modes exist, selected at "compile time"
 * exactly as in the paper:
 *
 *  - Sync (asm.js + SharedArrayBuffer): system calls use the synchronous
 *    convention — arguments marshalled into the shared heap, the program
 *    thread blocked in Atomics.wait. Fast, but fork is unavailable.
 *
 *  - Ring: like Sync, plus an io_uring-style SQ/CQ pair in the shared
 *    heap. Every shared-heap call rides the ring (one doorbell message
 *    and one wake per batch; a call that would block parks kernel-side
 *    until its CQE lands). Programs reach the batch API via ring().
 *
 *  - AsyncEmterpreter: system calls are asynchronous; the "Emterpreter"
 *    (our app thread + the emvm bytecode VM for compute kernels) can
 *    suspend and resume, which also enables fork. A program compiled
 *    *without* the Emterpreter that calls fork fails at runtime with
 *    ENOSYS (§2.2's warning about misconfigured builds).
 *
 * fork for C-style callables: the program supplies a small resume-state
 * string; the kernel ships it (like the heap+PC payload) to the child,
 * whose main() starts with resumeState() set. Bytecode programs hosted by
 * EmVmHost get full-fidelity fork: the entire VM state is the snapshot.
 */
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "jsvm/cost_model.h"
#include "runtime/emvm/vm.h"
#include "runtime/syscall_client.h"

namespace browsix {
namespace rt {

enum class EmMode { Sync, Ring, AsyncEmterpreter };

/** Thrown by EmEnv::exit; unwinds the program thread. */
struct ExitRequested
{
    int code;
};

class EmEnv
{
  public:
    EmEnv(std::shared_ptr<SyscallClient> client, EmMode mode,
          bool emterpreter, const jsvm::CostModel &costs);

    // --- process identity / startup ---
    const std::vector<std::string> &argv() const { return init_.args; }
    const std::map<std::string, std::string> &environ() const
    {
        return init_.env;
    }
    std::string getenv(const std::string &key) const;
    int pid() const { return init_.pid; }
    bool emterpreted() const { return emterpreter_; }
    EmMode mode() const { return mode_; }
    const jsvm::CostModel &costs() const { return costs_; }
    /** Non-empty when this process is a fork/exec resumption. */
    const std::string &resumeState() const { return resumeState_; }

    // --- file I/O (all blocking; negative returns are -errno) ---
    int open(const std::string &path, int oflags, int mode = 0644);
    int close(int fd);
    int64_t read(int fd, bfs::Buffer &out, size_t n);
    int64_t write(int fd, const void *data, size_t n);
    int64_t write(int fd, const std::string &s);
    /**
     * Gather write — the stdio hot path for printf-heavy programs (els
     * emits its whole listing through one of these): fragments are
     * marshalled into the shared heap and each writev syscall covers a
     * whole chunk of them, capped by the iovec limit and a scratch-byte
     * budget. Each chunk is one writev call over a packed iovec array
     * (in Ring mode one SQE and one CQE) instead of one call per
     * fragment; the async convention (no shared heap for the iovec
     * array to point into) falls back to concatenating into a single
     * write. Returns the total bytes written (short-count on a partial
     * chunk).
     */
    int64_t writev(int fd, const std::vector<std::string> &parts);
    int64_t pread(int fd, bfs::Buffer &out, size_t n, int64_t off);
    int64_t pwrite(int fd, const void *data, size_t n, int64_t off);
    int64_t llseek(int fd, int64_t off, int whence);
    int stat(const std::string &path, sys::StatX &out);
    int lstat(const std::string &path, sys::StatX &out);
    int fstat(int fd, sys::StatX &out);

    /** One entry of a batched metadata scan. */
    struct StatResult
    {
        int err = 0; ///< 0 or -errno, per path
        sys::StatX st;
    };

    /**
     * stat (or lstat) many paths in one go — the coreutils/make hot path
     * (`ls -lR` per-entry stats, make's dependency scans). In Ring mode
     * the scan is chunked through RingSyscalls::submit + one flush per
     * chunk: one doorbell message and one Atomics wake cover a whole
     * chunk of calls instead of one each. Other modes fall back to one
     * call per path with identical results.
     */
    std::vector<StatResult> statBatch(const std::vector<std::string> &paths,
                                      bool follow = true);
    int access(const std::string &path, int amode);
    int unlink(const std::string &path);
    int mkdir(const std::string &path, int mode = 0755);
    int rmdir(const std::string &path);
    int rename(const std::string &from, const std::string &to);
    int readlink(const std::string &path, std::string &out);
    int symlink(const std::string &target, const std::string &path);
    int utimes(const std::string &path, int64_t atime_us, int64_t mtime_us);
    int getdents(int fd, std::vector<sys::Dirent> &out);
    int ioctlIsatty(int fd);

    // --- directories / process metadata ---
    int chdir(const std::string &path);
    std::string getcwd();
    int getpid();
    int getppid();
    int64_t nowMs();

    // --- pipes / descriptors ---
    int pipe2(int fds_out[2]);
    int dup(int fd);
    int dup2(int oldfd, int newfd);

    // --- sockets / readiness ---
    int socket();
    int bind(int fd, int port);
    int listen(int fd, int backlog);
    /**
     * Accept one connection; blocks until a peer connects. In Ring mode,
     * with no pending connection the SQE parks kernel-side and the CQE
     * arrives with the connection (the deferral protocol). Returns the
     * connected fd; *remote_port (if non-null) gets the peer's port.
     */
    int accept(int fd, int *remote_port = nullptr);
    int connect(int fd, int port);
    /** Returns the bound port (>= 0) or -errno. */
    int getsockname(int fd);
    /** shutdown(2): how is sys::SHUT_RD_/SHUT_WR_/SHUT_RDWR_. */
    int shutdown(int fd, int how);

    /** One descriptor's poll interest/result (mirrors sys::PollFd). */
    struct PollSpec
    {
        int fd = -1;
        int16_t events = 0;  ///< requested: sys::POLLIN_ / POLLOUT_
        int16_t revents = 0; ///< granted: may add POLLERR_/POLLHUP_/POLLNVAL_
    };

    /**
     * Readiness wait over a descriptor set — one syscall, one SQE in Ring
     * mode, no timeout (blocks until something is ready). Returns the
     * number of ready descriptors (> 0) or -errno; revents is updated in
     * place for every entry. Requires the shared-heap personality
     * (-ENOSYS under the async convention).
     */
    int poll(std::vector<PollSpec> &fds);

    /**
     * Stateful readiness: a kernel-side registered interest list. Create
     * an epoll descriptor, edit its set with ctl (op is one of
     * sys::EPOLL_CTL_ADD_/MOD_/DEL_; events uses the POLL*_ bits), then
     * wait — only ready (events, fd) pairs travel back, nothing is
     * re-marshalled per call. epollWait blocks level-triggered (one SQE
     * in Ring mode, parked kernel-side until something is ready) and
     * fills `out` with up to its existing size() records, returning the
     * ready count (> 0) or -errno. Requires the shared-heap personality
     * (-ENOSYS under the async convention).
     */
    int epollCreate();
    int epollCtl(int epfd, int op, int fd, int32_t events);
    int epollWait(int epfd, std::vector<PollSpec> &out);

    /**
     * Move up to `count` bytes from in_fd at `off` into out_fd entirely
     * kernel-side (file → pipe/socket with no guest-heap bounce).
     * Returns bytes moved — short at EOF — or -errno.
     */
    int64_t sendfile(int out_fd, int in_fd, int64_t off, int64_t count);

    // --- processes & signals ---
    int spawn(const std::vector<std::string> &argv,
              const std::vector<int> &fds = {0, 1, 2});
    int spawn(const std::vector<std::string> &argv,
              const std::map<std::string, std::string> &env,
              const std::string &cwd, const std::vector<int> &fds);
    int waitpid(int pid, int *status, int options);
    int kill(int pid, int sig);
    /** Register a handler; runs at syscall boundaries (JS cannot preempt
     * running code, so neither do we). */
    void signal(int sig, std::function<void(int)> handler);
    int fork(const std::string &resume_state);
    int execv(const std::vector<std::string> &argv);
    [[noreturn]] void exit(int code);

    /**
     * Run a compute kernel. In AsyncEmterpreter mode the bytecode is
     * genuinely interpreted (the Emterpreter tax); in Sync mode the
     * caller's native callable runs instead, scaled by the profile's
     * asm.js factor via costs().
     */
    int64_t runInterpreted(const emvm::Image &image, const std::string &fn,
                           std::vector<int64_t> args);

    /** Run the handlers of pending signals, whether the kernel left them
     * in the shared heap's signal slot or sent a signal message; called
     * at syscall boundaries. */
    void pollSignals();

    /** Enqueue a kernel-delivered signal (runs on the worker loop). */
    void queueSignal(int sig);

    /** The ring façade (batch submit/flush/wait); null unless Ring mode. */
    RingSyscalls *ring() { return ring_.get(); }
    /** The sync façade; null in AsyncEmterpreter mode. */
    SyncSyscalls *syncCalls() { return sync_.get(); }
    SyscallClient &client() { return *client_; }

  private:
    friend class EmscriptenRuntime;

    /** True when syscalls use the shared-heap i32 encoding (Sync/Ring). */
    bool usesSharedHeap() const
    {
        return mode_ != EmMode::AsyncEmterpreter;
    }
    /** Shared-heap call: through the ring in Ring mode, else sync. */
    int64_t heapCall(int trap, std::array<int32_t, 6> args,
                     int32_t *r1_out = nullptr);
    CallResult invoke(int trap, jsvm::Value::Array async_args,
                      std::array<int32_t, 6> sync_args,
                      bool sync_capable = true);
    int64_t pathCall(int trap, const std::string &path, int32_t a = 0,
                     int32_t b = 0);
    int statCall(int trap, const std::string &path, int fd,
                 sys::StatX &out);

    std::shared_ptr<SyscallClient> client_;
    EmMode mode_;
    bool emterpreter_;
    const jsvm::CostModel &costs_;
    InitInfo init_;
    std::string resumeState_;
    std::unique_ptr<SyncSyscalls> sync_;
    std::unique_ptr<RingSyscalls> ring_;

    std::mutex sigMutex_;
    std::vector<int> pendingSignals_;
    std::map<int, std::function<void(int)>> handlers_;
};

using EmProgramFn = std::function<int(EmEnv &)>;

/** Boot a "compiled C program" inside a worker. */
class EmscriptenRuntime
{
  public:
    static void boot(jsvm::WorkerScope &scope,
                     std::shared_ptr<SyscallClient> client,
                     EmProgramFn program, EmMode mode, bool emterpreter);
};

/** Boot a bytecode (BSXBC) executable: full-fidelity Emterpreter. */
class EmVmHost
{
  public:
    static void boot(jsvm::WorkerScope &scope,
                     std::shared_ptr<SyscallClient> client,
                     emvm::Image image);
};

} // namespace rt
} // namespace browsix
