#include "kernel/pipe.h"

#include <algorithm>
#include <cstring>

namespace browsix {
namespace kernel {

size_t
Pipe::serveReadersFrom(const uint8_t *data, size_t len, bool src_is_span)
{
    size_t off = 0;
    while (off < len && !readWaiters_.empty()) {
        // Pop before invoking: the callback may reenter read()/write()
        // and reallocate the deque.
        ReadWaiter r = std::move(readWaiters_.front());
        readWaiters_.pop_front();
        size_t want = r.spanShaped() ? r.span.len : r.maxlen;
        size_t n = std::min(want, len - off);
        bytesTransferred_ += n;
        if (r.spanShaped()) {
            std::memcpy(r.span.data, data + off, n);
            if (src_is_span)
                spanToSpanBytes_ += n;
            off += n;
            r.scb(0, n);
        } else {
            auto out =
                std::make_shared<bfs::Buffer>(data + off, data + off + n);
            off += n;
            r.cb(0, std::move(out));
        }
    }
    return off;
}

void
Pipe::pump()
{
    // Reentrant calls (a completion callback re-entering read()/write()
    // on this pipe) fold into the active scan: every loop below re-reads
    // the deques after each callback, and no reference into a deque is
    // held across one — a callback that pushes or pops waiters can
    // reallocate the storage (the PR 6 dangling-reference fix).
    if (pumping_)
        return;
    pumping_ = true;
    for (;;) {
        bool progress = false;

        // Parked readers drink straight from stalled writers while the
        // buffer is empty — window-to-window when both sides are spans,
        // skipping the deque transit entirely.
        while (buf_.empty() && !readWaiters_.empty() &&
               !writeWaiters_.empty()) {
            const WriteWaiter &front = writeWaiters_.front();
            const uint8_t *p = front.bytes() + front.off;
            size_t remain = front.total - front.off;
            bool src_span = front.span_shaped;
            size_t n = serveReadersFrom(p, remain, src_span);
            if (n == 0)
                break;
            progress = true;
            WriteWaiter &w = writeWaiters_.front();
            w.off += n;
            if (w.off == w.total) {
                WriteWaiter done = std::move(writeWaiters_.front());
                writeWaiters_.pop_front();
                done.cb(0, done.total);
            }
        }

        // Move queued writer data into freed buffer space. The waiter is
        // popped (moved out) before its callback runs.
        while (!writeWaiters_.empty() && buf_.size() < capacity_) {
            WriteWaiter &w = writeWaiters_.front();
            size_t space = capacity_ - buf_.size();
            size_t n = std::min(space, w.total - w.off);
            const uint8_t *p = w.bytes() + w.off;
            buf_.insert(buf_.end(), p, p + n);
            w.off += n;
            progress = progress || n > 0;
            if (w.off == w.total) {
                WriteWaiter done = std::move(writeWaiters_.front());
                writeWaiters_.pop_front();
                done.cb(0, done.total);
            } else {
                break; // buffer full again
            }
        }

        // Satisfy readers from the buffer (deque -> window for
        // span-shaped waiters: still no intermediate bfs::Buffer).
        while (!readWaiters_.empty() && !buf_.empty()) {
            ReadWaiter r = std::move(readWaiters_.front());
            readWaiters_.pop_front();
            if (r.spanShaped()) {
                size_t n = std::min(r.span.len, buf_.size());
                std::copy(buf_.begin(), buf_.begin() + n, r.span.data);
                buf_.erase(buf_.begin(), buf_.begin() + n);
                bytesTransferred_ += n;
                progress = true;
                r.scb(0, n);
            } else {
                size_t n = std::min(r.maxlen, buf_.size());
                auto out = std::make_shared<bfs::Buffer>(buf_.begin(),
                                                         buf_.begin() + n);
                buf_.erase(buf_.begin(), buf_.begin() + n);
                bytesTransferred_ += n;
                progress = true;
                r.cb(0, std::move(out));
            }
        }

        // Writer gone: wake remaining readers with EOF.
        if (writerClosed_ && buf_.empty() && writeWaiters_.empty()) {
            while (!readWaiters_.empty()) {
                ReadWaiter r = std::move(readWaiters_.front());
                readWaiters_.pop_front();
                progress = true;
                if (r.spanShaped())
                    r.scb(0, 0);
                else
                    r.cb(0, std::make_shared<bfs::Buffer>());
            }
        }

        // Reader gone: queued writes fail with EPIPE, and any reads the
        // (former) reader still had queued complete with EOF.
        if (readerClosed_) {
            while (!writeWaiters_.empty()) {
                WriteWaiter w = std::move(writeWaiters_.front());
                writeWaiters_.pop_front();
                progress = true;
                w.cb(EPIPE, 0);
            }
            while (!readWaiters_.empty()) {
                ReadWaiter r = std::move(readWaiters_.front());
                readWaiters_.pop_front();
                progress = true;
                if (r.spanShaped())
                    r.scb(0, 0);
                else
                    r.cb(0, std::make_shared<bfs::Buffer>());
            }
        }

        if (!progress)
            break;
    }
    pumping_ = false;
    fireWatchers();
}

void
Pipe::fireWatchers()
{
    if (!readWatchers_.empty() && readable())
        readWatchers_.fire();
    if (!writeWatchers_.empty() && writable())
        writeWatchers_.fire();
}

uint64_t
Pipe::watchReadable(std::function<void()> fn)
{
    if (readable()) {
        fn();
        return 0;
    }
    return readWatchers_.add(std::move(fn));
}

uint64_t
Pipe::watchWritable(std::function<void()> fn)
{
    if (writable()) {
        fn();
        return 0;
    }
    return writeWatchers_.add(std::move(fn));
}

void
Pipe::read(size_t maxlen, bfs::DataCb cb)
{
    if (maxlen == 0) {
        cb(0, std::make_shared<bfs::Buffer>());
        return;
    }
    if (!buf_.empty()) {
        size_t n = std::min(maxlen, buf_.size());
        auto out =
            std::make_shared<bfs::Buffer>(buf_.begin(), buf_.begin() + n);
        buf_.erase(buf_.begin(), buf_.begin() + n);
        bytesTransferred_ += n;
        cb(0, std::move(out));
        pump();
        return;
    }
    if (writerClosed_) {
        cb(0, std::make_shared<bfs::Buffer>()); // EOF
        return;
    }
    readWaiters_.push_back(
        ReadWaiter{maxlen, std::move(cb), bfs::ByteSpan{}, bfs::SizeCb{}});
}

void
Pipe::readInto(bfs::ByteSpan dst, bfs::SizeCb cb)
{
    if (dst.len == 0) {
        cb(0, 0);
        return;
    }
    if (!buf_.empty()) {
        size_t n = std::min(dst.len, buf_.size());
        std::copy(buf_.begin(), buf_.begin() + n, dst.data);
        buf_.erase(buf_.begin(), buf_.begin() + n);
        bytesTransferred_ += n;
        cb(0, n);
        pump();
        return;
    }
    if (writerClosed_) {
        cb(0, 0); // EOF
        return;
    }
    // Park the caller-pinned window; a later write lands bytes in it
    // directly and the deferred completion fires then.
    readWaiters_.push_back(
        ReadWaiter{dst.len, bfs::DataCb{}, dst, std::move(cb)});
}

void
Pipe::write(bfs::Buffer data, bfs::SizeCb cb)
{
    if (readerClosed_) {
        cb(EPIPE, 0);
        return;
    }
    if (writerClosed_) {
        cb(EBADF, 0);
        return;
    }
    size_t total = data.size();
    if (total == 0) {
        cb(0, 0);
        return;
    }
    size_t space = capacity_ > buf_.size() ? capacity_ - buf_.size() : 0;
    size_t n = std::min(space, total);
    buf_.insert(buf_.end(), data.begin(), data.begin() + n);
    if (n == total) {
        cb(0, total);
    } else {
        stalls_++;
        writeWaiters_.push_back(WriteWaiter{std::move(data),
                                            bfs::ConstByteSpan{}, n, total,
                                            std::move(cb), false});
    }
    pump();
}

void
Pipe::writeFrom(bfs::ConstByteSpan src, bfs::SizeCb cb)
{
    if (readerClosed_) {
        cb(EPIPE, 0);
        return;
    }
    if (writerClosed_) {
        cb(EBADF, 0);
        return;
    }
    size_t total = src.len;
    if (total == 0) {
        cb(0, 0);
        return;
    }
    size_t off = 0;
    // The zero-copy leg: with nothing buffered and no writers queued
    // ahead, parked readers are served straight from the caller's
    // window (span-to-span when the reader parked a window too).
    if (writeWaiters_.empty() && buf_.empty())
        off = serveReadersFrom(src.data, total, /*src_is_span=*/true);
    if (readerClosed_) { // a served reader's callback closed its end
        cb(EPIPE, 0);
        return;
    }
    size_t space = capacity_ > buf_.size() ? capacity_ - buf_.size() : 0;
    size_t n = std::min(space, total - off);
    std::copy(src.data + off, src.data + off + n,
              std::back_inserter(buf_));
    off += n;
    if (off == total) {
        cb(0, total);
    } else {
        stalls_++;
        // Park the window itself: the completion callback's captures pin
        // the backing heap, so no defensive Buffer copy is needed.
        writeWaiters_.push_back(WriteWaiter{bfs::Buffer{}, src, off, total,
                                            std::move(cb), true});
    }
    pump();
}

void
Pipe::closeReader()
{
    if (readerClosed_)
        return;
    readerClosed_ = true;
    pump();
}

void
Pipe::closeWriter()
{
    if (writerClosed_)
        return;
    writerClosed_ = true;
    pump();
}

} // namespace kernel
} // namespace browsix
