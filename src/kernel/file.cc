#include "kernel/file.h"

#include <atomic>

namespace browsix {
namespace kernel {

uint64_t
WatcherList::add(std::function<void()> fn)
{
    // Ids are unique across every list (main-loop objects of every
    // kernel in the process), so a canceller needs no list identity.
    static std::atomic<uint64_t> next{0};
    uint64_t id = ++next;
    fns_.emplace_back(id, std::move(fn));
    return id;
}

bool
WatcherList::cancel(uint64_t id)
{
    for (auto it = fns_.begin(); it != fns_.end(); ++it) {
        if (it->first == id) {
            fns_.erase(it);
            return true;
        }
    }
    return false;
}

void
WatcherList::fire()
{
    auto fns = std::move(fns_);
    fns_.clear();
    for (auto &e : fns)
        e.second();
}

void
RegularFile::read(size_t maxlen, bfs::DataCb cb)
{
    file_->pread(offset_, maxlen, [this, cb](int err, bfs::BufferPtr data) {
        if (!err && data)
            offset_ += data->size();
        cb(err, std::move(data));
    });
}

void
RegularFile::readInto(bfs::ByteSpan dst, bfs::SizeCb cb)
{
    file_->preadInto(offset_, dst, [this, dst, cb](int err, size_t n) {
        if (!err) {
            // A backend may only have filled the window; never let a
            // lying count run the cursor (or the caller) past it.
            n = std::min(n, dst.len);
            offset_ += n;
        }
        cb(err, n);
    });
}

void
RegularFile::write(bfs::Buffer data, bfs::SizeCb cb)
{
    if (append_) {
        file_->fstat([this, data = std::move(data), cb](int err,
                                                        const bfs::Stat &st) {
            if (err) {
                cb(err, 0);
                return;
            }
            offset_ = st.size;
            file_->pwrite(offset_, data.data(), data.size(),
                          [this, cb](int werr, size_t n) {
                              if (!werr)
                                  offset_ += n;
                              cb(werr, n);
                          });
        });
        return;
    }
    auto buf = std::make_shared<bfs::Buffer>(std::move(data));
    file_->pwrite(offset_, buf->data(), buf->size(),
                  [this, buf, cb](int werr, size_t n) {
                      if (!werr)
                          offset_ += n;
                      cb(werr, n);
                  });
}

void
RegularFile::writeFrom(bfs::ConstByteSpan src, bfs::SizeCb cb)
{
    // The caller pins the source window until the callback runs, so the
    // backend consumes it directly — no intermediate Buffer even across
    // the append-mode fstat hop.
    if (append_) {
        file_->fstat([this, src, cb](int err, const bfs::Stat &st) {
            if (err) {
                cb(err, 0);
                return;
            }
            offset_ = st.size;
            file_->pwriteFrom(offset_, src, [this, cb](int werr, size_t n) {
                if (!werr)
                    offset_ += n;
                cb(werr, n);
            });
        });
        return;
    }
    file_->pwriteFrom(offset_, src, [this, cb](int werr, size_t n) {
        if (!werr)
            offset_ += n;
        cb(werr, n);
    });
}

void
RegularFile::pread(uint64_t off, size_t len, bfs::DataCb cb)
{
    file_->pread(off, len, std::move(cb));
}

void
RegularFile::preadInto(uint64_t off, bfs::ByteSpan dst, bfs::SizeCb cb)
{
    file_->preadInto(off, dst, std::move(cb));
}

void
RegularFile::pwrite(uint64_t off, bfs::Buffer data, bfs::SizeCb cb)
{
    auto buf = std::make_shared<bfs::Buffer>(std::move(data));
    file_->pwrite(off, buf->data(), buf->size(),
                  [buf, cb](int err, size_t n) { cb(err, n); });
}

void
RegularFile::pwriteFrom(uint64_t off, bfs::ConstByteSpan src, bfs::SizeCb cb)
{
    file_->pwriteFrom(off, src, std::move(cb));
}

void
RegularFile::fstat(bfs::StatCb cb)
{
    file_->fstat(std::move(cb));
}

void
RegularFile::seek(int64_t off, int whence, std::function<void(int64_t)> cb)
{
    switch (whence) {
      case SEEK_SET_:
        if (off < 0) {
            cb(-EINVAL);
            return;
        }
        offset_ = static_cast<uint64_t>(off);
        cb(static_cast<int64_t>(offset_));
        return;
      case SEEK_CUR_: {
        int64_t next = static_cast<int64_t>(offset_) + off;
        if (next < 0) {
            cb(-EINVAL);
            return;
        }
        offset_ = static_cast<uint64_t>(next);
        cb(next);
        return;
      }
      case SEEK_END_:
        file_->fstat([this, off, cb](int err, const bfs::Stat &st) {
            if (err) {
                cb(-err);
                return;
            }
            int64_t next = static_cast<int64_t>(st.size) + off;
            if (next < 0) {
                cb(-EINVAL);
                return;
            }
            offset_ = static_cast<uint64_t>(next);
            cb(next);
        });
        return;
      default:
        cb(-EINVAL);
    }
}

void
DirFile::withEntries(bfs::ErrCb fail, std::function<void()> serve)
{
    if (loaded_) {
        serve();
        return;
    }
    vfs_->readdir(path_, [this, fail = std::move(fail),
                          serve = std::move(serve)](
                             int err, std::vector<bfs::DirEntry> es) {
        if (err) {
            fail(err);
            return;
        }
        entries_.clear();
        entries_.push_back(sys::Dirent{1, sys::DT_DIR, "."});
        entries_.push_back(sys::Dirent{1, sys::DT_DIR, ".."});
        for (const auto &e : es)
            entries_.push_back(sys::Dirent{e.ino ? e.ino : 1,
                                           sys::direntTypeFromBfs(e.type),
                                           e.name});
        loaded_ = true;
        serve();
    });
}

void
DirFile::getdents(size_t max_bytes, bfs::DataCb cb)
{
    withEntries([cb](int err) { cb(err, nullptr); },
                [this, max_bytes, cb]() {
        std::vector<sys::Dirent> batch;
        size_t bytes = 0;
        while (cursor_ < entries_.size()) {
            const auto &e = entries_[cursor_];
            size_t reclen = sys::direntRecLen(e);
            if (bytes + reclen > max_bytes && !batch.empty())
                break;
            if (reclen > max_bytes) { // entry alone exceeds buffer
                cb(EINVAL, nullptr);
                return;
            }
            batch.push_back(e);
            bytes += reclen;
            cursor_++;
        }
        cb(0, std::make_shared<bfs::Buffer>(sys::encodeDirents(batch)));
    });
}

void
DirFile::getdentsInto(bfs::ByteSpan dst, bfs::SizeCb cb)
{
    // Encode each record directly into the caller's window (for
    // sync/ring syscalls: the guest heap) — the zero-copy successor to
    // the getdents() bounce. Same cursor, same clamp semantics: serve as
    // many whole records as fit, EINVAL when even one record cannot.
    withEntries([cb](int err) { cb(err, 0); }, [this, dst, cb]() {
        size_t bytes = 0;
        while (cursor_ < entries_.size()) {
            const sys::Dirent &e = entries_[cursor_];
            size_t reclen = sys::direntRecLen(e);
            if (bytes + reclen > dst.len) {
                if (bytes == 0) {
                    cb(EINVAL, 0); // one record alone exceeds the window
                    return;
                }
                break;
            }
            sys::encodeDirentAt(e, dst.data + bytes);
            bytes += reclen;
            cursor_++;
        }
        cb(0, bytes);
    });
}

} // namespace kernel
} // namespace browsix
