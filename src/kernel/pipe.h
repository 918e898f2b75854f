/**
 * @file
 * Pipes: in-memory buffers with read-side wait queues (§3.4).
 *
 * A read against an empty pipe enqueues its completion callback, invoked
 * when data is written; a write that overfills the buffer is held until
 * the pipe is drained (backpressure — §6 argues browsers themselves need
 * this for postMessage). Sockets reuse Pipe as their per-direction stream.
 *
 * Waiters come in two shapes. Buffer-shaped waiters (read/write) carry
 * their own storage and serve async/host callers. Span-shaped waiters
 * (readInto/writeFrom) carry a caller-pinned window — for sync/ring
 * syscalls it aliases the guest heap, kept alive by the completion
 * callback's captured pin — and are what makes the ring's deferred-CQE
 * protocol zero-copy: a writer's source window is memcpy'd straight into
 * a parked reader's destination window, with no intermediate bfs::Buffer
 * and no transit through the pipe's own deque.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "kernel/file.h"

namespace browsix {
namespace kernel {

class Pipe : public std::enable_shared_from_this<Pipe>
{
  public:
    static constexpr size_t kDefaultCapacity = 64 * 1024;

    explicit Pipe(size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {
    }

    /**
     * Read up to maxlen bytes. Completes immediately when data is
     * buffered; at EOF (writer closed, buffer drained) completes with
     * empty data; otherwise queues.
     */
    void read(size_t maxlen, bfs::DataCb cb);

    /**
     * Span-shaped read: fill the caller-pinned window and complete with
     * the byte count (0 at EOF). An empty pipe parks the window in the
     * read queue; a later writeFrom lands bytes in it directly.
     */
    void readInto(bfs::ByteSpan dst, bfs::SizeCb cb);

    /**
     * Write data. The completion callback fires once every byte has been
     * accepted into the buffer (i.e. a blocking write); writes beyond
     * capacity wait for readers.
     */
    void write(bfs::Buffer data, bfs::SizeCb cb);

    /**
     * Span-shaped write: consume the caller-pinned source window. Parked
     * readers are served straight from the window (span-to-span for
     * span-shaped readers — the zero-copy leg); the remainder lands in
     * the buffer, and overflow parks the window itself (the completion
     * callback's captures keep it alive).
     */
    void writeFrom(bfs::ConstByteSpan src, bfs::SizeCb cb);

    void closeReader();
    void closeWriter();

    bool readerClosed() const { return readerClosed_; }
    bool writerClosed() const { return writerClosed_; }
    size_t buffered() const { return buf_.size(); }
    size_t capacity() const { return capacity_; }

    /** POLLIN-shaped readiness: a read would not block (data buffered,
     * or EOF/closure makes it complete immediately). */
    bool readable() const
    {
        return !buf_.empty() || writerClosed_ || readerClosed_;
    }

    /** POLLOUT-shaped readiness: a write would make progress (buffer
     * space free, or reader gone so it fails fast with EPIPE). */
    bool writable() const
    {
        return buf_.size() < capacity_ || readerClosed_ || writerClosed_;
    }

    /**
     * One-shot readiness watchers (the poll trap's parking hook): fires
     * once, as soon as the matching readiness predicate holds —
     * immediately when it already does (returning 0), otherwise from the
     * pump pass that makes it true (returning an id for unwatch).
     * Watchers must tolerate firing spuriously late (the poller
     * re-evaluates readiness itself).
     */
    uint64_t watchReadable(std::function<void()> fn);
    uint64_t watchWritable(std::function<void()> fn);
    /** Cancel a watcher that has not fired; true when it was here. */
    bool unwatch(uint64_t id)
    {
        return readWatchers_.cancel(id) || writeWatchers_.cancel(id);
    }

    /// Experiment counters.
    uint64_t bytesTransferred() const { return bytesTransferred_; }
    uint64_t backpressureStalls() const { return stalls_; }
    /** Bytes moved window-to-window (writer span memcpy'd straight into
     * a parked reader span, no deque transit) — the deferred-CQE
     * zero-copy leg. */
    uint64_t spanToSpanBytes() const { return spanToSpanBytes_; }

  private:
    struct ReadWaiter
    {
        size_t maxlen;     // == span.len for span-shaped waiters
        bfs::DataCb cb;    // buffer-shaped completion
        bfs::ByteSpan span; // span-shaped destination (caller-pinned)
        bfs::SizeCb scb;   // span-shaped completion
        bool spanShaped() const { return static_cast<bool>(scb); }
    };
    struct WriteWaiter
    {
        bfs::Buffer data;       // buffer-shaped source (owned)
        bfs::ConstByteSpan src; // span-shaped source (caller-pinned)
        size_t off;
        size_t total;
        bfs::SizeCb cb;
        bool span_shaped = false;
        const uint8_t *bytes() const
        {
            return span_shaped ? src.data : data.data();
        }
    };

    void pump();
    void fireWatchers();
    /** Serve parked readers directly from a source window; returns bytes
     * consumed. Callbacks are invoked with no loop state held.
     * `src_is_span` marks the source as a caller-pinned window, so
     * window-to-window transfers can be counted. */
    size_t serveReadersFrom(const uint8_t *data, size_t len,
                            bool src_is_span);

    size_t capacity_;
    std::deque<uint8_t> buf_;
    std::deque<ReadWaiter> readWaiters_;
    std::deque<WriteWaiter> writeWaiters_;
    WatcherList readWatchers_;
    WatcherList writeWatchers_;
    bool readerClosed_ = false;
    bool writerClosed_ = false;
    bool pumping_ = false;
    uint64_t bytesTransferred_ = 0;
    uint64_t stalls_ = 0;
    uint64_t spanToSpanBytes_ = 0;
};

using PipePtr = std::shared_ptr<Pipe>;

/** One end of a pipe, exposed as a file descriptor. */
class PipeEndFile : public KFile
{
  public:
    PipeEndFile(PipePtr pipe, bool reader)
        : pipe_(std::move(pipe)), reader_(reader)
    {
    }

    const char *kind() const override
    {
        return reader_ ? "pipe:r" : "pipe:w";
    }

    /** Pipe span ops move data through the caller's window directly
     * (window-to-window when the peer is span-shaped, deque<->window
     * otherwise) — never via an intermediate bfs::Buffer. */
    bool spanIoDirect() const override { return true; }

    void read(size_t maxlen, bfs::DataCb cb) override
    {
        if (!reader_) {
            cb(EBADF, nullptr);
            return;
        }
        pipe_->read(maxlen, std::move(cb));
    }

    void readInto(bfs::ByteSpan dst, bfs::SizeCb cb) override
    {
        if (!reader_) {
            cb(EBADF, 0);
            return;
        }
        pipe_->readInto(dst, std::move(cb));
    }

    void write(bfs::Buffer data, bfs::SizeCb cb) override
    {
        if (reader_) {
            cb(EBADF, 0);
            return;
        }
        pipe_->write(std::move(data), std::move(cb));
    }

    void writeFrom(bfs::ConstByteSpan src, bfs::SizeCb cb) override
    {
        if (reader_) {
            cb(EBADF, 0);
            return;
        }
        pipe_->writeFrom(src, std::move(cb));
    }

    PipePtr pipe() const { return pipe_; }
    bool isReader() const { return reader_; }

    /** An end watches its own direction whatever the poller asked: a
     * reader wakes on data or hang-up, a writer on room or a closed
     * reader (the POLLERR wake). */
    uint64_t watch(bool, std::function<void()> fn) override
    {
        return reader_ ? pipe_->watchReadable(std::move(fn))
                       : pipe_->watchWritable(std::move(fn));
    }
    void unwatch(uint64_t id) override { pipe_->unwatch(id); }

  protected:
    void onLastClose() override
    {
        if (reader_)
            pipe_->closeReader();
        else
            pipe_->closeWriter();
    }

  private:
    PipePtr pipe_;
    bool reader_;
};

} // namespace kernel
} // namespace browsix
