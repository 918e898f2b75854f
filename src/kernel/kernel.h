/**
 * @file
 * The Browsix kernel (§3): lives in the main browser context, owns the
 * shared Unix subsystems (filesystem, pipes, sockets, task structures),
 * dispatches system calls from processes, and delivers signals.
 *
 * Threading model: everything here runs on the browser's main event loop.
 * Processes post syscall messages from their workers; the postMessage
 * machinery delivers them here as loop tasks, so kernel state needs no
 * locks — exactly like JavaScript.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bfs/vfs.h"
#include "jsvm/browser.h"
#include "kernel/latency_histogram.h"
#include "kernel/scheduler.h"
#include "kernel/socket.h"
#include "kernel/task.h"
#include "kernel/task_table.h"
#include "net/net_backend.h"

namespace browsix {
namespace kernel {

class SyscallCtx;
using SyscallCtxPtr = std::shared_ptr<SyscallCtx>;

/**
 * A process's run state, decoupled from host threads (ROADMAP item 1):
 * a parked process holds no thread, just a queue-able worker.
 */
enum class RunState {
    Runnable, ///< in the run queue, waiting for a pool thread
    Running,  ///< a pool thread is executing it right now
    Parked,   ///< blocked (syscall wait, channel, timer): costs no thread
    Zombie    ///< exited, awaiting reap
};

/** Experiment counters, one per interesting kernel event. Read-only for
 * embedders via Kernel::stats(). */
struct KernelStats
{
    uint64_t syscallCount = 0;
    uint64_t asyncSyscallCount = 0;
    uint64_t syncSyscallCount = 0;
    uint64_t ringSyscallCount = 0;
    /// Ring batching effectiveness: doorbells serviced, Atomics notifies
    /// issued (the whole point is notifies << ring syscalls), and CQEs
    /// dropped because a non-conforming producer overflowed its CQ.
    uint64_t ringBatchesDrained = 0;
    /// Doorbell messages received ("ring" worker messages). Under the
    /// coalesced doorbell this stays below the batch count: producers
    /// skip the message while a drain pass is queued.
    uint64_t ringDoorbells = 0;
    uint64_t ringNotifies = 0;
    uint64_t ringCqOverflows = 0;
    /// Adaptive doorbell coalescing: drain passes the kernel queued
    /// itself (inside a wake-up window, or for a tail found at disarm
    /// time). While one is queued the drainPending header word stays
    /// armed and producers skip the doorbell message entirely (see
    /// syscall_ring.h).
    uint64_t ringDrainsScheduled = 0;
    /// Wake-up window (see Task::RingState): drain passes the window
    /// kept queued to poll a just-woken process's SQ, batches such a
    /// pass caught (each one a doorbell message the process did not
    /// post), and the wall-clock µs the pipeline stayed armed on the
    /// window's account alone.
    uint64_t ringPollPasses = 0;
    uint64_t ringPollCatches = 0;
    uint64_t ringPollUs = 0;
    /// SQEs rejected at drain time because a heap-offset argument fell
    /// outside the personality heap (completed with -EFAULT, never
    /// dispatched to a handler).
    uint64_t ringEfaults = 0;
    /// Completion-deferral protocol: CQEs pushed outside a drain pass.
    /// The SQE's trap would have blocked (read on an empty pipe, accept
    /// with no pending connection, poll with nothing ready), so the
    /// completion parked against a pipe/socket waiter list and landed
    /// when the event arrived, paying its own notify.
    uint64_t ringDeferredCompletions = 0;
    /// Deferral-protocol coverage beyond pipe reads: wait4 calls parked
    /// against the process table's wait-waiter list (completed later by
    /// completeWaits), connect calls parked on a full listener backlog
    /// (completed when accept frees a slot, or ECONNREFUSED when the
    /// listener closes), and epoll_wait calls parked against their
    /// registered interest list's readiness watchers.
    uint64_t wait4Parked = 0;
    uint64_t connectsParked = 0;
    uint64_t epollWaitsParked = 0;
    /// Bytes sendfile moved file→pipe/socket entirely kernel-side (no
    /// guest-heap bounce: preadInto a staging window, writeFrom it out).
    uint64_t sendfileBytes = 0;
    /// Read-path data movement: completions whose out-data the backend
    /// wrote directly into the guest heap through a heapSpan window
    /// (zero-copy), vs completions that bounced an intermediate
    /// bfs::Buffer through a kernel-side memcpy (completeData).
    uint64_t zeroCopyCompletions = 0;
    uint64_t copiedCompletions = 0;
    uint64_t messagesSent = 0;
    uint64_t signalsDelivered = 0;
    uint64_t processesSpawned = 0;

    /// Ring drain-pass shape: SQEs consumed per productive pass (the
    /// batching the one-notify-per-batch design amortizes against) and
    /// how long each pass took, wall-clock µs. Both feed the bench
    /// trajectory gates alongside the per-syscall histograms.
    LatencyHistogram ringBatchDepth;
    LatencyHistogram ringDrainUs;

    /// Per-syscall dispatch→completion latency, log2-bucketed in µs.
    /// Keyed by syscall name; only calls actually observed appear. Calls
    /// that never complete (exit, a read parked when its process dies)
    /// are not recorded.
    std::map<std::string, LatencyHistogram> syscallLatencyUs;

    /** Histogram for one syscall, or nullptr if never observed. */
    const LatencyHistogram *latency(const std::string &name) const
    {
        auto it = syscallLatencyUs.find(name);
        return it == syscallLatencyUs.end() ? nullptr : &it->second;
    }
};

class Kernel
{
  public:
    /// Runs inside a freshly-created worker; instantiates the right
    /// language runtime for the executable bytes (set by core/).
    using Bootstrapper = std::function<void(
        jsvm::WorkerScope &,
        std::shared_ptr<const std::vector<uint8_t>> code)>;

    using OutputCb = std::function<void(const bfs::Buffer &)>;
    using ExitCb = std::function<void(int status)>;
    using SpawnCb = std::function<void(int err_or_pid)>;

    /**
     * `net` selects the connection transport every socket on this kernel
     * uses (port namespace + per-connection byte streams); nullptr means
     * the in-kernel LoopbackBackend — the classic Browsix behavior.
     */
    Kernel(jsvm::Browser &browser, bfs::VfsPtr vfs,
           net::NetBackendPtr net = nullptr);
    ~Kernel();

    void setBootstrapper(Bootstrapper b) { bootstrapper_ = std::move(b); }

    bfs::Vfs &fs() { return *vfs_; }
    jsvm::Browser &browser() { return browser_; }

    /// Default environment for root processes (PATH etc.).
    std::map<std::string, std::string> defaultEnv = {
        {"PATH", "/usr/bin:/bin"}, {"HOME", "/"}, {"TERM", "xterm"}};

    // ----- embedder API (§4.1) -----

    /**
     * Run a shell command, Figure 4 style: stdout/stderr are delivered to
     * the callbacks, on_exit receives the wait status.
     */
    void system(const std::string &cmd, ExitCb on_exit, OutputCb out,
                OutputCb err);

    /** Spawn a root process (ppid 0) with callback-wired stdio. */
    void spawnRoot(std::vector<std::string> argv,
                   std::map<std::string, std::string> env, std::string cwd,
                   ExitCb on_exit, OutputCb out, OutputCb err, SpawnCb cb,
                   bfs::Buffer stdin_data = {});

    /** Send a signal (kernel.kill). pid == -1 broadcasts to every
     * process except skip_pid — sysKill passes the calling task so a
     * guest kill(-1) excludes itself, Linux style, while embedder
     * teardown (skip_pid 0) hits everything. ESRCH when no process was
     * signalled. */
    int kill(int pid, int sig, int skip_pid = 0);

    /** Register a socket notification: cb fires when a process starts
     * listening on port (§4.1 "Socket notifications"). */
    void onPortListen(int port, std::function<void()> cb);

    /** True once some process is listening on port. */
    bool portListening(int port) const;

    /**
     * Host-side connection into a Browsix socket server, used by the
     * XMLHttpRequest-like API. on_data fires per received chunk; on_close
     * at EOF. The returned functions write to / close the connection.
     */
    struct HostConn
    {
        std::function<void(bfs::Buffer)> write;
        std::function<void()> close;
    };
    void connect(int port,
                 std::function<void(const bfs::Buffer &)> on_data,
                 std::function<void()> on_close,
                 std::function<void(int err, std::shared_ptr<HostConn>)> cb);

    // ----- introspection / experiment counters -----
    size_t taskCount() const { return tasks_.size(); }
    Task *task(int pid);
    std::vector<int> pids() const;

    /** The run state of pid (ESRCH-gone pids read as Zombie). */
    RunState runState(int pid);

    /** The worker-pool run queue driving every process. */
    Scheduler &scheduler() { return *sched_; }

    /**
     * Test hook: replace the pool with one of `threads` threads. Must be
     * called before the first spawn (pool threads start lazily on the
     * first enqueue, so the swap is cheap until then).
     */
    void setPoolThreads(unsigned threads);

    /**
     * Per-tenant process quota, RLIMIT_NPROC-shaped: every root process
     * and its descendants share one live-process budget; spawn/fork past
     * it fails with -EAGAIN. This is what contains a fork bomb to its own
     * process tree instead of exhausting the pid table.
     */
    void setNprocLimit(int limit) { nprocLimit_ = limit < 1 ? 1 : limit; }
    int nprocLimit() const { return nprocLimit_; }

    /** Visit every task band by band — the only sanctioned whole-table
     * walk (shutdown, broadcast). fn must not spawn or reap. */
    template <typename Fn>
    void forEachTask(Fn &&fn)
    {
        tasks_.forEach(std::forward<Fn>(fn));
    }

    const KernelStats &stats() const { return stats_; }
    /** Mutable counters for the syscall handlers (kernel_syscalls.cc),
     * which live outside the class and record deferral-protocol events
     * (wait4Parked, epollWaitsParked, sendfileBytes, ...). */
    KernelStats &statsMut() { return stats_; }

    /// Wake-up window pass budget per µs of window. A pass re-posts
    /// itself and yields, which takes far longer than 1/16 µs, so under
    /// a running clock the deadline always ends the window first; under
    /// a frozen virtual clock (jsvm::TestClock) the budget does.
    static constexpr int64_t kRingPollPassesPerUs = 16;

    /// Pid allocation wraps past this; the allocator then skips pids
    /// still present in the table (Linux's PID_MAX_LIMIT).
    static constexpr int kMaxPid = 4 * 1024 * 1024;

    /** Test hook: move the pid-allocation cursor (wraparound coverage in
     * the stress suite). Clamped to [1, kMaxPid]. */
    void setNextPid(int pid)
    {
        nextPid_ = (pid < 1 || pid > kMaxPid) ? 1 : pid;
    }

    // ----- internal (used by syscall handlers; public for the ctx) -----

    void doSpawn(Task *parent, std::vector<std::string> argv,
                 std::map<std::string, std::string> env, std::string cwd,
                 std::map<int, KFilePtr> fds, jsvm::Value snapshot,
                 SpawnCb cb, ExitCb root_exit = nullptr);
    void doExec(Task &t, std::vector<std::string> argv,
                std::map<std::string, std::string> env, SpawnCb cb);
    /** fork(): duplicate the task, booting the child from the parent's
     * executable blob with the serialized heap+PC snapshot (§4.3). */
    int doFork(Task &parent, jsvm::Value snapshot);
    void doExit(Task &t, int status);
    void deliverSignal(Task &t, int sig);
    /**
     * Drain the task's submission ring: consume every published SQE,
     * dispatch it, and issue (at most) one Atomics notify for the whole
     * batch. Invoked per doorbell message and per pass the kernel queued
     * itself; a batch submitted under one doorbell is drained in one
     * pump. Afterwards the pass re-queues itself while the task's
     * wake-up window is open, and otherwise disarms drainPending and
     * re-checks the tail.
     */
    void drainSyscallRing(int pid);
    /**
     * Queue a drain pass for pid on the main loop. The caller holds the
     * armed drainPending word (adaptive doorbell coalescing): producers
     * publishing meanwhile skip the doorbell message entirely.
     */
    void scheduleRingDrain(int pid);
    /** Wake a ring waiter (wait word := 1 + notify). Used at end-of-batch
     * and for completions that land outside a drain. Opens the task's
     * wake-up window (Task::RingState::pollDeadlineUs). */
    void ringNotify(Task &t);
    /**
     * Before a wake-up outside any drain pass (a deferred CQE): CAS
     * drainPending 0 -> 1 and queue one pass if the CAS wins (else one is
     * already queued), so the batch the woken process publishes inside
     * the window skips the doorbell message. It must precede the notify:
     * a woken process may publish at once. A no-op when the window is
     * zero-length.
     */
    void ringArmForWake(Task &t);
    int doConnect(Task *client_task, SocketFile &client, int port);
    /**
     * Deferral-protocol connect: like doConnect, but when the listener's
     * backlog is full the rendezvous parks on the socket and `done` fires
     * later — with 0 when accept frees a slot (the client endpoint is
     * established by then), or ECONNREFUSED when the listener closes.
     * Immediate outcomes run `done` before returning. Returns true when
     * the completion parked.
     */
    bool connectOrPark(SocketFilePtr client, int port,
                       std::function<void(int err)> done);
    void notifyListen(int port, SocketFilePtr listener);
    void completeWaits(Task &parent);
    void reapTask(int pid);
    /**
     * Record one completed syscall's dispatch→completion time into the
     * per-name latency histogram (called by SyscallCtx). Sync/ring calls
     * pass their trap number so the hot path is an array index into a
     * cached histogram pointer; only async calls (trap < 0) and each
     * trap's first completion pay the name-keyed map lookup.
     */
    void noteSyscallLatency(int trap, const std::string &name, uint64_t us)
    {
        if (trap >= 0 && trap < kTrapHistSlots) {
            LatencyHistogram *&slot = trapHist_[trap];
            if (!slot)
                slot = &stats_.syscallLatencyUs[name]; // map nodes are stable
            slot->record(us);
            return;
        }
        stats_.syscallLatencyUs[name].record(us);
    }

    /** The connection transport behind every socket on this kernel. */
    net::NetBackend &net() { return *net_; }

  private:
    void onWorkerMessage(int pid, jsvm::Value msg);
    void dispatchSyscall(Task &t, SyscallCtxPtr ctx);
    void replyTo(Task &t, const jsvm::Value &msg);

    /** Resolve shebangs: yields final executable bytes + argv. */
    void resolveExecutable(std::vector<std::string> argv,
                           const std::string &cwd, int depth,
                           std::function<void(int err, bfs::BufferPtr,
                                              std::vector<std::string>)>
                               cb);

    /** Next free pid from the round-robin cursor (skips pids still in
     * the table after wraparound), or -EAGAIN when the table is full. */
    int allocPid();

    /** Leave the window-only polling state, charging its time. */
    void ringPollStop(Task &t, int64_t now);

    jsvm::Browser &browser_;
    /// Wake-up window length: the cost of the doorbell message it saves
    /// (BrowserProfile::postMessageUs of the booted profile).
    int64_t ringPollWindowUs_;
    bfs::VfsPtr vfs_;
    Bootstrapper bootstrapper_;
    KernelStats stats_;
    /// The worker pool every process runs on (installed as the Browser's
    /// executor in the ctor; createWorker requires one).
    std::shared_ptr<Scheduler> sched_;
    int nprocLimit_ = 4096;
    /// Liveness tag for loop tasks the kernel posts to itself (scheduled
    /// ring drains): a task whose weak_ptr expired outlived the kernel
    /// and must do nothing.
    std::shared_ptr<int> aliveTag_ = std::make_shared<int>(0);

    int nextPid_ = 1;
    TaskTable tasks_;
    /// Trap-indexed cache of histogram map nodes (covers every sys::Trap
    /// value; 423 = RING_PERSONALITY is the current ceiling).
    static constexpr int kTrapHistSlots = 512;
    std::array<LatencyHistogram *, kTrapHistSlots> trapHist_{};
    /// Connection transport: port namespace, rendezvous, byte streams.
    net::NetBackendPtr net_;

    friend class SyscallCtx;
};

} // namespace kernel
} // namespace browsix
