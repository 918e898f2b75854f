/**
 * @file
 * Worker-side syscall layer (§4.2 "Common Services"): a typed API for
 * system calls over the browser's message-passing primitives, used by all
 * language runtimes. A Browsix process can have multiple outstanding
 * system calls (which is how GopherJS multiplexes goroutines over one
 * worker). Signals arrive over the same message interface.
 *
 * Four façades:
 *  - SyscallClient: raw async (CPS) calls + init/signal dispatch; must be
 *    used from the worker's loop thread.
 *  - blockingCall(): lets a runtime's guest fiber (the Emterpreter or a
 *    goroutine) issue an async call and park until the reply.
 *  - SyncSyscalls: the synchronous convention — a shared heap registered
 *    with the kernel ("personality"), calls that block in Atomics.wait.
 *  - RingSyscalls: the io_uring-style batched convention — SQ/CQ rings
 *    inside the same shared heap; one doorbell message and one Atomics
 *    wake per batch instead of per call. Blocking traps (read on an
 *    empty pipe, accept, poll/epoll_wait, wait4, connect, a sendfile
 *    into a full pipe) ride the kernel's completion-deferral protocol:
 *    their CQE is parked kernel-side and pushed when the event arrives,
 *    so they cost a ring slot while parked instead of a per-call sync
 *    round trip. See docs/ARCHITECTURE.md for the protocol.
 */
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "jsvm/sab.h"
#include "jsvm/worker.h"
#include "runtime/syscall_proto.h"
#include "runtime/syscall_ring.h"

namespace browsix {
namespace rt {

/** Process start-up parameters, delivered in the kernel's init message
 * (§3.3: runtimes "delay execution of a process's main() function until
 * after the worker has received an 'init' message"). */
struct InitInfo
{
    int pid = 0;
    std::vector<std::string> args;
    std::map<std::string, std::string> env;
    std::string cwd = "/";
    bfs::Buffer snapshot; ///< fork/exec resume state (empty if fresh)
    bool forked = false;
};

class SyscallClient
{
  public:
    /// (r0, r1, extra-data) — Linux convention: r0 < 0 is -errno.
    using RetCb =
        std::function<void(int64_t r0, int64_t r1, jsvm::Value data)>;

    explicit SyscallClient(jsvm::WorkerScope &scope);

    /** Fires (once) when the kernel's init message arrives. */
    void onInit(std::function<void(const InitInfo &)> cb);

    /** Register the signal handler dispatcher. */
    void onSignal(std::function<void(int sig)> cb);

    /** Issue an async syscall; must run on the worker loop thread. */
    void call(const std::string &name, jsvm::Value::Array args, RetCb cb);

    /** Fire-and-forget (exit). Safe from any thread. */
    void post(const std::string &name, jsvm::Value::Array args);

    jsvm::WorkerScope &scope() { return scope_; }
    const InitInfo &init() const { return init_; }
    bool initReceived() const { return initReceived_; }

    uint64_t callsIssued() const { return calls_; }

  private:
    void onMessage(jsvm::Value msg);

    jsvm::WorkerScope &scope_;
    InitInfo init_;
    bool initReceived_ = false;
    std::function<void(const InitInfo &)> initCb_;
    std::function<void(int)> signalCb_;
    double nextId_ = 1;
    std::map<double, RetCb> outstanding_;
    uint64_t calls_ = 0;
};

/** Result of a blocking call. */
struct CallResult
{
    int64_t r0 = 0;
    int64_t r1 = 0;
    jsvm::Value data;
};

/**
 * Issue an async syscall from a guest fiber (WorkerScope::startGuest) and
 * park until the reply; throws jsvm::WorkerTerminated if the worker is
 * killed meanwhile. This is the Emterpreter's save/restore-the-stack
 * trick and GopherJS's suspended goroutine, in substrate form.
 */
CallResult blockingCall(SyscallClient &client, const std::string &name,
                        jsvm::Value::Array args);

/**
 * The synchronous convention (§3.2). Layout of the shared heap:
 *   [0..4)   wake word (Atomics.wait address)
 *   [4..8)   pending-signal slot
 *   [8..16)  return values (two int32)
 *   [16..)   scratch + program memory (bump-allocated per call)
 */
class SyncSyscalls
{
  public:
    static constexpr size_t kWaitOff = 0;
    static constexpr size_t kSigOff = 4;
    static constexpr size_t kRetOff = 8;
    static constexpr size_t kScratchOff = 16;

    /**
     * Allocate the heap and register the personality with the kernel
     * (via an async call, per the paper). Blocking; call from the app
     * thread after init.
     */
    SyncSyscalls(SyscallClient &client, size_t heap_bytes);

    /** Blocking syscall; returns r0 (and r1 via out-param if non-null). */
    int64_t call(int trap, std::array<int32_t, 6> args,
                 int32_t *r1_out = nullptr);

    // --- scratch marshalling helpers (reset per call by the caller) ---
    uint32_t pushString(const std::string &s);
    /** Marshal a packed iovec array (sys::IoVec x iovs.size()) into
     * scratch; returns its heap offset. Shared by RingSyscalls::submitv
     * and EmEnv::writev. */
    uint32_t pushIovArray(const std::vector<sys::IoVec> &iovs);
    uint32_t alloc(size_t n);
    void resetScratch() { scratchTop_ = scratchBase_; }
    /** Permanently carve n bytes out of the scratch region (8-aligned);
     * resetScratch() no longer reclaims them. Used for ring regions. */
    uint32_t reserve(size_t n);
    uint8_t *heapData() { return heap_->data(); }
    size_t heapSize() const { return heap_->size(); }
    jsvm::SharedArrayBuffer &heap() { return *heap_; }
    SyscallClient &client() { return client_; }

    /** Handler invoked (on the app thread) when a signal is delivered
     * while blocked in Atomics.wait. */
    std::function<void(int sig)> signalHandler;

    /** Check-and-clear any signal the kernel parked in the signal slot. */
    void pollSignal();

  private:
    SyscallClient &client_;
    jsvm::SabPtr heap_;
    size_t scratchBase_ = kScratchOff;
    size_t scratchTop_ = kScratchOff;
};

/**
 * The ring convention, process side. Built over a SyncSyscalls heap: the
 * ring region is reserve()d from the shared heap, so pointer arguments
 * keep the sync convention's encoding (offsets into the heap) and every
 * marshalling helper keeps working.
 *
 * Usage, batched:
 *   uint32_t s0 = ring.submit(sys::GETPID, {});
 *   ...                 // up to capacity() calls in flight
 *   ring.flush();       // one doorbell message for the whole batch
 *   auto r = ring.wait(s0);
 *
 * or per call via call(). Every heap-encoded trap rides the ring.
 * Blocking traps (read, readv, accept, poll, epoll_wait, wait4,
 * connect, sendfile) park kernel-side and their CQE lands whenever the
 * event arrives; a parked or late completion just occupies its
 * in-flight slot (and CQ reservation) until it does.
 *
 * Single-threaded like the rest of the runtime facades: all methods must
 * run on the process's app thread.
 */
class RingSyscalls
{
  public:
    static constexpr uint32_t kDefaultEntries = 64;

    /** Reserve the ring inside sync's heap and register it with the
     * kernel (blocking; call from the app thread after init). */
    RingSyscalls(SyncSyscalls &sync, uint32_t entries = kDefaultEntries);

    struct Completion
    {
        int32_t r0 = 0;
        int32_t r1 = 0;
    };

    /** One call through the ring: submit + flush + wait. */
    int64_t call(int trap, std::array<int32_t, 6> args,
                 int32_t *r1_out = nullptr);

    /**
     * Write one SQE; returns its completion tag. Blocks (parking on the
     * ring wait word) when the submission queue or the in-flight window
     * is full — SQ backpressure.
     */
    uint32_t submit(int trap, std::array<int32_t, 6> args);

    /**
     * Vectored submission: write `iovs` as a packed iovec array into the
     * heap's scratch region (the caller owns resetScratch timing, as
     * with every marshalling helper) and submit ONE gather/scatter SQE
     * covering all of them — one ring entry, one CQE, many spans. trap
     * must be one of READV/WRITEV/PREADV/PWRITEV; `off` is the file
     * offset for the positional pair and ignored otherwise.
     */
    uint32_t submitv(int trap, int32_t fd,
                     const std::vector<sys::IoVec> &iovs, int64_t off = 0);

    /**
     * Make pending submissions visible to the kernel: CAS the
     * drainPending header word 0 -> 1 and post the doorbell message only
     * when that CAS wins. A lost CAS means a drain pass is already
     * queued (a doorbell in flight, or a pass the kernel queued itself)
     * and it will read the published tail, so no message is sent.
     */
    void flush();

    /** Park until the completion for seq arrives; reaps the CQ. Throws
     * jsvm::WorkerTerminated if the worker is killed meanwhile. */
    Completion wait(uint32_t seq);

    uint32_t capacity() const { return layout_.entries(); }
    /** Submitted but not yet reaped. */
    uint32_t inflight() const { return inflight_; }
    uint64_t doorbellsRung() const { return doorbells_; }
    /** Flushes that posted no doorbell message because a drain pass was
     * already queued (their drainPending CAS lost). */
    uint64_t doorbellsCoalesced() const { return coalesced_; }

  private:
    void reap();
    /** Arm the wait word and park until the kernel pokes it (completion,
     * freed SQ space, or signal). pred() short-circuits the park. */
    void park(const std::function<bool()> &pred);

    SyncSyscalls &sync_;
    sys::RingLayout layout_;
    jsvm::RingIndices sq_;
    jsvm::RingIndices cq_;
    uint32_t nextSeq_ = 1;
    uint32_t inflight_ = 0;
    uint32_t unflushed_ = 0; // submitted since the last doorbell coverage
    uint64_t doorbells_ = 0;
    uint64_t coalesced_ = 0;
    std::map<uint32_t, Completion> done_;
};

} // namespace rt
} // namespace browsix
