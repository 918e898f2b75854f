/**
 * @file
 * Kernel file objects: what a file descriptor refers to.
 *
 * Every object a descriptor can name (regular file, directory, pipe end,
 * socket, host-callback sink) implements KFile. The kernel reference-counts
 * these (§3.6: "BROWSIX manages each object (whether it is a file,
 * directory, pipe or socket) with reference counting"): dup and child fd
 * inheritance bump the count; the last close triggers onLastClose, which
 * is what gives pipes their EOF/EPIPE semantics.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bfs/backend.h"
#include "bfs/vfs.h"
#include "runtime/syscall_proto.h"

namespace browsix {
namespace kernel {

/// seek whence values.
constexpr int SEEK_SET_ = 0;
constexpr int SEEK_CUR_ = 1;
constexpr int SEEK_END_ = 2;

/**
 * One-shot readiness watchers (the poll/epoll_wait parking hook). Every
 * registration gets an id unique across all lists, so a parked call that
 * finishes can cancel what it armed on other objects and leave nothing
 * behind on a descriptor that never became ready. Main-loop only.
 */
class WatcherList
{
  public:
    /** Register fn; returns its id (never 0). */
    uint64_t add(std::function<void()> fn);
    /** Drop one registration; false when id is not (or no longer) here. */
    bool cancel(uint64_t id);
    /** Run every registration once and clear the list (fn may add or
     * cancel registrations; those apply to the next fire). */
    void fire();
    bool empty() const { return fns_.empty(); }
    size_t size() const { return fns_.size(); }

  private:
    std::vector<std::pair<uint64_t, std::function<void()>>> fns_;
};

class KFile
{
  public:
    virtual ~KFile() = default;

    virtual const char *kind() const = 0;

    /** Sequential read (advances the cursor where one exists). Completing
     * with empty data and err==0 signals EOF. */
    virtual void read(size_t maxlen, bfs::DataCb cb) = 0;

    /**
     * Zero-copy sequential read: fill the caller-provided window (for
     * sync/ring syscalls it aliases the guest heap) and complete with the
     * byte count; 0 with err==0 is EOF. The default bounces through
     * read() — regular files override it to let the backend write the
     * destination directly.
     */
    virtual void readInto(bfs::ByteSpan dst, bfs::SizeCb cb)
    {
        read(dst.len, bfs::bounceIntoSpan(dst, std::move(cb)));
    }

    /** Sequential write; completes with the number of bytes written. */
    virtual void write(bfs::Buffer data, bfs::SizeCb cb) = 0;

    /**
     * Zero-copy sequential write: consume the caller-provided source
     * window (for sync/ring syscalls it aliases the guest heap, pinned by
     * the kernel for the duration of the call). The default bounces the
     * window into a Buffer and calls write() — files whose storage the
     * data must land in anyway (pipes, sinks) keep that single necessary
     * copy, while regular files override to hand the window straight to
     * the backend.
     */
    virtual void writeFrom(bfs::ConstByteSpan src, bfs::SizeCb cb)
    {
        write(src.len ? bfs::Buffer(src.data, src.data + src.len)
                      : bfs::Buffer{},
              std::move(cb));
    }

    virtual void pread(uint64_t off, size_t len, bfs::DataCb cb)
    {
        (void)off;
        (void)len;
        cb(ESPIPE, nullptr);
    }

    /** Zero-copy positional read; same contract as readInto. The default
     * routes through pread(), so non-seekable files keep their ESPIPE. */
    virtual void preadInto(uint64_t off, bfs::ByteSpan dst, bfs::SizeCb cb)
    {
        pread(off, dst.len, bfs::bounceIntoSpan(dst, std::move(cb)));
    }

    virtual void pwrite(uint64_t off, bfs::Buffer data, bfs::SizeCb cb)
    {
        (void)off;
        (void)data;
        cb(ESPIPE, 0);
    }

    /** Zero-copy positional write; same contract as writeFrom. The
     * default routes through pwrite(), so non-seekable files keep their
     * ESPIPE. */
    virtual void pwriteFrom(uint64_t off, bfs::ConstByteSpan src,
                            bfs::SizeCb cb)
    {
        pwrite(off,
               src.len ? bfs::Buffer(src.data, src.data + src.len)
                       : bfs::Buffer{},
               std::move(cb));
    }

    virtual void fstat(bfs::StatCb cb)
    {
        bfs::Stat st;
        st.type = bfs::FileType::Regular;
        cb(0, st);
    }

    /** Completes with the new offset, or -errno. */
    virtual void seek(int64_t off, int whence,
                      std::function<void(int64_t)> cb)
    {
        (void)off;
        (void)whence;
        cb(-ESPIPE);
    }

    virtual void getdents(size_t max_bytes, bfs::DataCb cb)
    {
        (void)max_bytes;
        cb(ENOTDIR, nullptr);
    }

    /**
     * Zero-copy getdents: encode dirent records directly into the
     * caller-provided window (for sync/ring syscalls: the guest heap)
     * and complete with the encoded byte count; 0 at end-of-directory.
     * The default bounces through getdents() — directories override to
     * skip the intermediate record buffer.
     */
    virtual void getdentsInto(bfs::ByteSpan dst, bfs::SizeCb cb)
    {
        getdents(dst.len, bfs::bounceIntoSpan(dst, std::move(cb)));
    }

    virtual bool isTty() const { return false; }

    /**
     * True when this file's span operations (readInto/writeFrom/
     * pwriteFrom/getdentsInto) move data through the caller's window
     * directly, rather than via the base-class Buffer bounce. Syscall
     * handlers pass this to completeFilled so the kernel's zero-copy vs
     * copied counters report the path the data actually took.
     */
    virtual bool spanIoDirect() const { return false; }

    /**
     * One-shot readiness watcher: fn fires once, when the file turns
     * readable (`writable` false) or writable, immediately when it
     * already is. Watchers must tolerate firing spuriously late: the
     * poller re-evaluates readiness itself. Returns an id for unwatch(),
     * or 0 when nothing stayed registered (fn already ran, or the file
     * never blocks — the default).
     */
    virtual uint64_t watch(bool writable, std::function<void()> fn)
    {
        (void)writable;
        (void)fn;
        return 0;
    }
    /** Cancel a registration from watch(); unknown ids are ignored. */
    virtual void unwatch(uint64_t id) { (void)id; }

    // --- descriptor reference counting ---
    void ref() { refs_++; }
    /** Drop a reference; runs onLastClose when it was the last. */
    void unref()
    {
        if (--refs_ == 0)
            onLastClose();
    }
    int refCount() const { return refs_; }

  protected:
    virtual void onLastClose() {}

  private:
    int refs_ = 1;
};

using KFilePtr = std::shared_ptr<KFile>;

/** A regular file: a backend OpenFile plus a cursor. */
class RegularFile : public KFile
{
  public:
    RegularFile(bfs::OpenFilePtr f, bool append)
        : file_(std::move(f)), append_(append)
    {
    }

    const char *kind() const override { return "file"; }
    bool spanIoDirect() const override { return true; }

    void read(size_t maxlen, bfs::DataCb cb) override;
    void readInto(bfs::ByteSpan dst, bfs::SizeCb cb) override;
    void write(bfs::Buffer data, bfs::SizeCb cb) override;
    void writeFrom(bfs::ConstByteSpan src, bfs::SizeCb cb) override;
    void pread(uint64_t off, size_t len, bfs::DataCb cb) override;
    void preadInto(uint64_t off, bfs::ByteSpan dst, bfs::SizeCb cb) override;
    void pwrite(uint64_t off, bfs::Buffer data, bfs::SizeCb cb) override;
    void pwriteFrom(uint64_t off, bfs::ConstByteSpan src,
                    bfs::SizeCb cb) override;
    void fstat(bfs::StatCb cb) override;
    void seek(int64_t off, int whence,
              std::function<void(int64_t)> cb) override;

  private:
    bfs::OpenFilePtr file_;
    uint64_t offset_ = 0;
    bool append_;
};

/** An open directory, supporting getdents with a cursor. */
class DirFile : public KFile
{
  public:
    DirFile(bfs::Vfs *vfs, std::string path)
        : vfs_(vfs), path_(std::move(path))
    {
    }

    const char *kind() const override { return "dir"; }
    bool spanIoDirect() const override { return true; }

    void read(size_t, bfs::DataCb cb) override { cb(EISDIR, nullptr); }
    void write(bfs::Buffer, bfs::SizeCb cb) override { cb(EISDIR, 0); }
    void fstat(bfs::StatCb cb) override { vfs_->stat(path_, cb); }
    void getdents(size_t max_bytes, bfs::DataCb cb) override;
    void getdentsInto(bfs::ByteSpan dst, bfs::SizeCb cb) override;

    const std::string &path() const { return path_; }

  private:
    /** Load the entry list once, then run serve() against the cursor. */
    void withEntries(bfs::ErrCb fail, std::function<void()> serve);

    bfs::Vfs *vfs_;
    std::string path_;
    bool loaded_ = false;
    std::vector<sys::Dirent> entries_;
    size_t cursor_ = 0;
};

/**
 * Write-only sink delivering output to a host callback: how standard
 * output/error of a `kernel.system()` process reaches the web application
 * (Figure 4's logStdout/logStderr parameters).
 */
class CallbackSinkFile : public KFile
{
  public:
    using Sink = std::function<void(const bfs::Buffer &)>;

    explicit CallbackSinkFile(Sink sink, bool tty = true)
        : sink_(std::move(sink)), tty_(tty)
    {
    }

    const char *kind() const override { return "tty"; }

    void read(size_t, bfs::DataCb cb) override
    {
        cb(0, std::make_shared<bfs::Buffer>()); // EOF
    }

    void write(bfs::Buffer data, bfs::SizeCb cb) override
    {
        size_t n = data.size();
        if (sink_)
            sink_(data);
        cb(0, n);
    }

    bool isTty() const override { return tty_; }

  private:
    Sink sink_;
    bool tty_;
};

/** /dev/null: reads EOF, writes vanish. */
class NullFile : public KFile
{
  public:
    const char *kind() const override { return "null"; }

    void read(size_t, bfs::DataCb cb) override
    {
        cb(0, std::make_shared<bfs::Buffer>());
    }

    void write(bfs::Buffer data, bfs::SizeCb cb) override
    {
        cb(0, data.size());
    }
};

/** In-memory data source used as stdin for host-fed processes. */
class BufferSourceFile : public KFile
{
  public:
    explicit BufferSourceFile(bfs::Buffer data) : data_(std::move(data)) {}

    const char *kind() const override { return "bufsrc"; }

    void read(size_t maxlen, bfs::DataCb cb) override
    {
        auto out = std::make_shared<bfs::Buffer>();
        if (pos_ < data_.size()) {
            size_t n = std::min(maxlen, data_.size() - pos_);
            out->assign(data_.begin() + pos_, data_.begin() + pos_ + n);
            pos_ += n;
        }
        cb(0, std::move(out));
    }

    void write(bfs::Buffer, bfs::SizeCb cb) override { cb(EBADF, 0); }

  private:
    bfs::Buffer data_;
    size_t pos_ = 0;
};

} // namespace kernel
} // namespace browsix
