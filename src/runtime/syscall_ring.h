/**
 * @file
 * The third syscall convention: an io_uring-style submission/completion
 * ring pair in the process's shared heap.
 *
 * Motivation: the sync convention (§3.2) already avoids the reply message,
 * but still pays one postMessage and one Atomics wake per call. The ring
 * amortizes both across a batch: the process writes fixed-size entries
 * (trap + 6 i32 args, pointer args as heap offsets, exactly the sync
 * convention's argument encoding) into a submission queue and posts a
 * single doorbell message; the kernel drains the whole batch in one
 * event-loop turn, writes results into the completion queue, and issues a
 * single Atomics notify for the batch.
 *
 * Layout (byte offsets relative to the ring region's base, which the
 * runtime reserves inside its personality heap and registers with the
 * kernel via the ring_personality call):
 *
 *   +0   sqHead    SQ consumer index (kernel-owned)
 *   +4   sqTail    SQ producer index (process-owned)
 *   +8   cqHead    CQ consumer index (process-owned)
 *   +12  cqTail    CQ producer index (kernel-owned)
 *   +16  wait word the process parks here; the kernel stores 1 + notifies
 *   +20  reserved (0)
 *   +24  drainPending  1 while a drain pass is queued: a doorbell message
 *                  in flight, or a pass the kernel queued itself. The one
 *                  doorbell flag. Set to 1 only by a 0 -> 1 CAS, and
 *                  whoever wins it queues the pass: the producer's
 *                  flush() (which then posts the doorbell message), or
 *                  the kernel re-arming for a wake-up or for a tail found
 *                  at disarm time. A producer whose CAS fails posts
 *                  nothing: the queued pass will read its published tail.
 *                  Only the kernel stores 0, after a pass outside the
 *                  wake-up window, and it re-checks the tail right after,
 *                  so a producer that skipped the message is never
 *                  stranded.
 *   +28  reserved (0)
 *   +32  SQ entries: entries × 32 B, each 8 × i32:
 *          [trap, seq, arg0..arg5]
 *   +32 + entries*32  CQ entries: entries × 16 B, each 4 × i32:
 *          [seq, r0, r1, reserved]
 *
 * head/tail are free-running counters managed by jsvm::RingIndices; both
 * queues hold `entries` slots (a power of two). The runtime caps in-flight
 * calls at `entries`, so the CQ can never overflow a conforming producer.
 *
 * Completion deferral: a drained SQE whose trap would block (read on an
 * empty pipe, accept with no pending connection, poll with nothing
 * ready) does NOT produce a CQE in the same drain pass. The kernel
 * parks the completion against the pipe/socket waiter list and pushes
 * the CQE — with its own Atomics notify — when the event arrives. The
 * in-flight cap above is what makes this safe: a parked SQE keeps its
 * CQ reservation, so however late the completion lands there is a slot
 * for it, and the producer's reap loop picks it up whenever it runs.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace browsix {
namespace jsvm {
class SharedArrayBuffer;
}

namespace sys {

/** One submission-queue entry, decoded. */
struct Sqe
{
    int32_t trap = 0;
    uint32_t seq = 0;
    std::array<int32_t, 6> args{};
};

/** One completion-queue entry, decoded. */
struct Cqe
{
    uint32_t seq = 0;
    int32_t r0 = 0;
    int32_t r1 = 0;
};

/**
 * True when every heap-offset argument carried by this SQE names memory
 * fully inside the personality heap: (pointer, length) out/in-buffers
 * must fit end to end, string pointers must start in bounds (the NUL
 * scan itself is heap-clamped), and for the vectored traps (readv/
 * writev/preadv/pwritev) both the iovec array itself and every entry's
 * (ptr, len) span must fit — which is why this takes the heap, not just
 * its size: per-iov validation reads the entries. The kernel checks this
 * at drain time so a corrupt or hostile SQE completes with -EFAULT
 * instead of reaching the heap-write path out of bounds. Traps without
 * heap arguments always validate.
 */
bool sqeHeapArgsValid(const Sqe &e, const jsvm::SharedArrayBuffer &heap);

/** Byte offsets of a ring region registered at `base` in a shared heap. */
class RingLayout
{
  public:
    static constexpr size_t kHeaderBytes = 32;
    static constexpr size_t kSqeBytes = 32;
    static constexpr size_t kCqeBytes = 16;

    RingLayout(uint32_t base, uint32_t entries)
        : base_(base), entries_(entries)
    {
    }

    /** Total bytes a ring with `entries` slots occupies. */
    static size_t bytesFor(uint32_t entries)
    {
        return kHeaderBytes + entries * (kSqeBytes + kCqeBytes);
    }

    /** True when (base, entries) describes a well-formed ring that fits
     * inside a heap of heap_bytes. */
    static bool valid(int64_t base, int64_t entries, size_t heap_bytes);

    uint32_t entries() const { return entries_; }

    size_t sqHeadOff() const { return base_ + 0; }
    size_t sqTailOff() const { return base_ + 4; }
    size_t cqHeadOff() const { return base_ + 8; }
    size_t cqTailOff() const { return base_ + 12; }
    size_t waitOff() const { return base_ + 16; }
    size_t drainPendingOff() const { return base_ + 24; }

    size_t sqeOff(uint32_t slot) const
    {
        return base_ + kHeaderBytes + slot * kSqeBytes;
    }
    size_t cqeOff(uint32_t slot) const
    {
        return base_ + kHeaderBytes + entries_ * kSqeBytes +
               slot * kCqeBytes;
    }

    // --- payload (plain, non-atomic) slot access; callers order these
    // with the RingIndices publish/consume edges ---
    void writeSqe(jsvm::SharedArrayBuffer &heap, uint32_t slot,
                  const Sqe &e) const;
    Sqe readSqe(const jsvm::SharedArrayBuffer &heap, uint32_t slot) const;
    void writeCqe(jsvm::SharedArrayBuffer &heap, uint32_t slot,
                  const Cqe &e) const;
    Cqe readCqe(const jsvm::SharedArrayBuffer &heap, uint32_t slot) const;

  private:
    uint32_t base_;
    uint32_t entries_;
};

} // namespace sys
} // namespace browsix
