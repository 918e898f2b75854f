#include "runtime/emscripten/em_runtime.h"

#include <algorithm>
#include <cstring>

#include "jsvm/util.h"

namespace browsix {
namespace rt {

namespace {

jsvm::Value
bytesValue(const void *data, size_t n)
{
    return jsvm::Value::bytes(static_cast<const uint8_t *>(data), n);
}

} // namespace

EmEnv::EmEnv(std::shared_ptr<SyscallClient> client, EmMode mode,
             bool emterpreter, const jsvm::CostModel &costs)
    : client_(std::move(client)), mode_(mode), emterpreter_(emterpreter),
      costs_(costs)
{
    init_ = client_->init();
    if (!init_.snapshot.empty()) {
        // fork/exec resume payload ("EMSTATE1" + program-defined bytes).
        const char tag[] = "EMSTATE1";
        if (init_.snapshot.size() >= 8 &&
            std::memcmp(init_.snapshot.data(), tag, 8) == 0) {
            resumeState_.assign(init_.snapshot.begin() + 8,
                                init_.snapshot.end());
        }
    }
    if (usesSharedHeap()) {
        sync_ = std::make_unique<SyncSyscalls>(*client_, 1 << 20);
        sync_->signalHandler = [this](int sig) { queueSignal(sig); };
        if (mode_ == EmMode::Ring)
            ring_ = std::make_unique<RingSyscalls>(*sync_);
    }
}

int64_t
EmEnv::heapCall(int trap, std::array<int32_t, 6> args, int32_t *r1_out)
{
    if (ring_)
        return ring_->call(trap, args, r1_out);
    return sync_->call(trap, args, r1_out);
}

std::string
EmEnv::getenv(const std::string &key) const
{
    auto it = init_.env.find(key);
    return it == init_.env.end() ? "" : it->second;
}

void
EmEnv::queueSignal(int sig)
{
    std::lock_guard<std::mutex> lk(sigMutex_);
    pendingSignals_.push_back(sig);
}

void
EmEnv::pollSignals()
{
    // A ring wait can return without ever blocking (its CQE was already
    // in the CQ), so nothing has moved a signal the kernel parked in the
    // heap's signal slot: read it here, at every syscall boundary.
    if (sync_)
        sync_->pollSignal();
    std::vector<int> sigs;
    {
        std::lock_guard<std::mutex> lk(sigMutex_);
        sigs.swap(pendingSignals_);
    }
    for (int sig : sigs) {
        std::function<void(int)> h;
        {
            std::lock_guard<std::mutex> lk(sigMutex_);
            auto it = handlers_.find(sig);
            if (it != handlers_.end())
                h = it->second;
        }
        if (h)
            h(sig);
    }
}

CallResult
EmEnv::invoke(int trap, jsvm::Value::Array async_args,
              std::array<int32_t, 6> sync_args, bool sync_capable)
{
    pollSignals();
    CallResult r;
    if (usesSharedHeap() && sync_capable) {
        int32_t r1 = 0;
        r.r0 = heapCall(trap, sync_args, &r1);
        r.r1 = r1;
    } else {
        r = blockingCall(*client_, sys::trapName(trap),
                         std::move(async_args));
    }
    pollSignals();
    return r;
}

int64_t
EmEnv::pathCall(int trap, const std::string &path, int32_t a, int32_t b)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t p = sync_->pushString(path);
        return heapCall(trap, {static_cast<int32_t>(p), a, b, 0, 0, 0});
    }
    return invoke(trap, {jsvm::Value(path), jsvm::Value(a), jsvm::Value(b)},
                  {}, false)
        .r0;
}

int
EmEnv::open(const std::string &path, int oflags, int mode)
{
    return static_cast<int>(pathCall(sys::OPEN, path, oflags, mode));
}

int
EmEnv::close(int fd)
{
    return static_cast<int>(
        invoke(sys::CLOSE, {jsvm::Value(fd)}, {fd}).r0);
}

int64_t
EmEnv::read(int fd, bfs::Buffer &out, size_t n)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t buf = sync_->alloc(n);
        int64_t r = heapCall(
            sys::READ,
            {fd, static_cast<int32_t>(buf), static_cast<int32_t>(n), 0, 0,
             0});
        if (r > 0) {
            out.assign(sync_->heapData() + buf, sync_->heapData() + buf + r);
        } else {
            out.clear();
        }
        return r;
    }
    CallResult r = blockingCall(*client_, "read",
                                {jsvm::Value(fd),
                                 jsvm::Value(static_cast<double>(n))});
    if (r.r0 >= 0 && r.data.isBytes() && r.data.asBytes())
        out = *r.data.asBytes();
    else
        out.clear();
    return r.r0;
}

int64_t
EmEnv::write(int fd, const void *data, size_t n)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t buf = sync_->alloc(n);
        std::memcpy(sync_->heapData() + buf, data, n);
        return heapCall(
            sys::WRITE,
            {fd, static_cast<int32_t>(buf), static_cast<int32_t>(n), 0, 0,
             0});
    }
    return blockingCall(*client_, "write",
                        {jsvm::Value(fd), bytesValue(data, n)})
        .r0;
}

int64_t
EmEnv::write(int fd, const std::string &s)
{
    return write(fd, s.data(), s.size());
}

int64_t
EmEnv::writev(int fd, const std::vector<std::string> &parts)
{
    if (parts.empty())
        return 0;
    if (!usesSharedHeap()) {
        std::string joined;
        for (const auto &p : parts)
            joined += p;
        return write(fd, joined);
    }
    pollSignals();
    // Chunked like statBatch: each writev call is capped both by the
    // iovec limit and by a scratch-byte budget (the 1 MiB heap also
    // holds the ring region), so arbitrarily long fragment lists — a
    // whole `ls -lR` listing — gather safely.
    const size_t kScratchBudget = 256 * 1024;
    int64_t total = 0;
    size_t i = 0;
    while (i < parts.size()) {
        // A single fragment that cannot fit a chunk streams through
        // plain write() slices instead of tripping the scratch-overflow
        // panic in alloc().
        const std::string &head = parts[i];
        if (head.size() + sys::IOVEC_BYTES > kScratchBudget) {
            size_t done = 0;
            while (done < head.size()) {
                size_t n = std::min(kScratchBudget, head.size() - done);
                int64_t r = write(fd, head.data() + done, n);
                if (r < 0) {
                    pollSignals();
                    return total > 0 ? total : r;
                }
                total += r;
                done += static_cast<size_t>(r);
                if (r < static_cast<int64_t>(n)) {
                    pollSignals();
                    return total; // short write ends the gather
                }
            }
            i++;
            continue;
        }
        sync_->resetScratch();
        std::vector<sys::IoVec> iovs;
        size_t chunk_bytes = 0;
        int64_t chunk_len = 0;
        while (i < parts.size() &&
               iovs.size() < static_cast<size_t>(sys::kIovMax)) {
            const std::string &p = parts[i];
            if (chunk_bytes + p.size() + sys::IOVEC_BYTES >
                kScratchBudget)
                break; // oversized head restarts via the slice path
            uint32_t buf = sync_->alloc(p.size());
            if (!p.empty())
                std::memcpy(sync_->heapData() + buf, p.data(), p.size());
            iovs.push_back(sys::IoVec{static_cast<int32_t>(buf),
                                      static_cast<int32_t>(p.size())});
            chunk_bytes += p.size() + sys::IOVEC_BYTES;
            chunk_len += static_cast<int64_t>(p.size());
            i++;
        }
        uint32_t arr = sync_->pushIovArray(iovs);
        int64_t r = heapCall(sys::WRITEV,
                             {fd, static_cast<int32_t>(arr),
                              static_cast<int32_t>(iovs.size()), 0, 0, 0});
        if (r < 0) {
            pollSignals();
            return total > 0 ? total : r; // POSIX short-count semantics
        }
        total += r;
        if (r < chunk_len)
            break; // short write ends the gather
    }
    pollSignals();
    return total;
}

int64_t
EmEnv::pread(int fd, bfs::Buffer &out, size_t n, int64_t off)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t buf = sync_->alloc(n);
        int64_t r = heapCall(sys::PREAD,
                                {fd, static_cast<int32_t>(buf),
                                 static_cast<int32_t>(n),
                                 static_cast<int32_t>(off), 0, 0});
        if (r > 0)
            out.assign(sync_->heapData() + buf, sync_->heapData() + buf + r);
        else
            out.clear();
        return r;
    }
    CallResult r = blockingCall(
        *client_, "pread",
        {jsvm::Value(fd), jsvm::Value(static_cast<double>(n)),
         jsvm::Value(static_cast<double>(off))});
    if (r.r0 >= 0 && r.data.isBytes() && r.data.asBytes())
        out = *r.data.asBytes();
    else
        out.clear();
    return r.r0;
}

int64_t
EmEnv::pwrite(int fd, const void *data, size_t n, int64_t off)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t buf = sync_->alloc(n);
        std::memcpy(sync_->heapData() + buf, data, n);
        return heapCall(sys::PWRITE,
                           {fd, static_cast<int32_t>(buf),
                            static_cast<int32_t>(n),
                            static_cast<int32_t>(off), 0, 0});
    }
    return blockingCall(*client_, "pwrite",
                        {jsvm::Value(fd), bytesValue(data, n),
                         jsvm::Value(static_cast<double>(off))})
        .r0;
}

int64_t
EmEnv::llseek(int fd, int64_t off, int whence)
{
    return invoke(sys::LLSEEK,
                  {jsvm::Value(fd), jsvm::Value(static_cast<double>(off)),
                   jsvm::Value(whence)},
                  {fd, static_cast<int32_t>(off), whence})
        .r0;
}

int
EmEnv::statCall(int trap, const std::string &path, int fd, sys::StatX &out)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        int32_t a0;
        if (trap == sys::FSTAT) {
            a0 = fd;
        } else {
            a0 = static_cast<int32_t>(sync_->pushString(path));
        }
        uint32_t sp = sync_->alloc(sys::STAT_BYTES);
        int64_t r = heapCall(trap,
                             {a0, static_cast<int32_t>(sp), 0, 0, 0, 0});
        if (r == 0)
            out = sys::unpackStat(sync_->heapData() + sp);
        return static_cast<int>(r);
    }
    jsvm::Value::Array args;
    if (trap == sys::FSTAT)
        args.push_back(jsvm::Value(fd));
    else
        args.push_back(jsvm::Value(path));
    CallResult r = blockingCall(*client_, sys::trapName(trap),
                                std::move(args));
    if (r.r0 == 0 && r.data.isObject())
        out = sys::statFromValue(r.data);
    return static_cast<int>(r.r0);
}

int
EmEnv::stat(const std::string &path, sys::StatX &out)
{
    return statCall(sys::STAT, path, -1, out);
}

std::vector<EmEnv::StatResult>
EmEnv::statBatch(const std::vector<std::string> &paths, bool follow)
{
    int trap = follow ? sys::STAT : sys::LSTAT;
    std::vector<StatResult> out(paths.size());
    if (!ring_) {
        for (size_t i = 0; i < paths.size(); i++)
            out[i].err = statCall(trap, paths[i], -1, out[i].st);
        return out;
    }
    pollSignals();
    // Chunked: each chunk's path strings + stat buffers live in the
    // scratch region together, so the chunk is bounded both by the ring
    // capacity and by a scratch-byte budget (the 1 MiB heap also holds
    // the ring region itself).
    const size_t kScratchBudget = 256 * 1024;
    size_t i = 0;
    while (i < paths.size()) {
        sync_->resetScratch();
        size_t base = i;
        size_t scratch_used = 0;
        std::vector<uint32_t> seqs;
        std::vector<uint32_t> stat_ptrs;
        while (i < paths.size() && seqs.size() < ring_->capacity()) {
            size_t need = paths[i].size() + 1 + sys::STAT_BYTES + 16;
            if (scratch_used + need > kScratchBudget && !seqs.empty())
                break;
            uint32_t p = sync_->pushString(paths[i]);
            uint32_t sp = sync_->alloc(sys::STAT_BYTES);
            seqs.push_back(ring_->submit(
                trap, {static_cast<int32_t>(p), static_cast<int32_t>(sp),
                       0, 0, 0, 0}));
            stat_ptrs.push_back(sp);
            scratch_used += need;
            i++;
        }
        ring_->flush(); // one doorbell covers the whole chunk
        for (size_t j = 0; j < seqs.size(); j++) {
            rt::RingSyscalls::Completion c = ring_->wait(seqs[j]);
            out[base + j].err = c.r0;
            if (c.r0 == 0)
                out[base + j].st =
                    sys::unpackStat(sync_->heapData() + stat_ptrs[j]);
        }
    }
    pollSignals();
    return out;
}


int
EmEnv::lstat(const std::string &path, sys::StatX &out)
{
    return statCall(sys::LSTAT, path, -1, out);
}

int
EmEnv::fstat(int fd, sys::StatX &out)
{
    return statCall(sys::FSTAT, "", fd, out);
}

int
EmEnv::access(const std::string &path, int amode)
{
    return static_cast<int>(pathCall(sys::ACCESS, path, amode));
}

int
EmEnv::unlink(const std::string &path)
{
    return static_cast<int>(pathCall(sys::UNLINK, path));
}

int
EmEnv::mkdir(const std::string &path, int mode)
{
    return static_cast<int>(pathCall(sys::MKDIR, path, mode));
}

int
EmEnv::rmdir(const std::string &path)
{
    return static_cast<int>(pathCall(sys::RMDIR, path));
}

int
EmEnv::rename(const std::string &from, const std::string &to)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t a = sync_->pushString(from);
        uint32_t b = sync_->pushString(to);
        return static_cast<int>(
            heapCall(sys::RENAME, {static_cast<int32_t>(a),
                                   static_cast<int32_t>(b), 0, 0, 0, 0}));
    }
    return static_cast<int>(
        blockingCall(*client_, "rename",
                     {jsvm::Value(from), jsvm::Value(to)})
            .r0);
}

int
EmEnv::readlink(const std::string &path, std::string &out)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t p = sync_->pushString(path);
        uint32_t buf = sync_->alloc(4096);
        int64_t r = heapCall(sys::READLINK,
                                {static_cast<int32_t>(p),
                                 static_cast<int32_t>(buf), 4096, 0, 0, 0});
        if (r >= 0)
            out.assign(reinterpret_cast<char *>(sync_->heapData() + buf),
                       static_cast<size_t>(r));
        return static_cast<int>(r < 0 ? r : 0);
    }
    CallResult r =
        blockingCall(*client_, "readlink", {jsvm::Value(path)});
    if (r.r0 >= 0 && r.data.isString()) {
        out = r.data.asString();
        return 0;
    }
    return static_cast<int>(r.r0);
}

int
EmEnv::symlink(const std::string &target, const std::string &path)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t a = sync_->pushString(target);
        uint32_t b = sync_->pushString(path);
        return static_cast<int>(
            heapCall(sys::SYMLINK,
                     {static_cast<int32_t>(a), static_cast<int32_t>(b),
                      0, 0, 0, 0}));
    }
    return static_cast<int>(
        blockingCall(*client_, "symlink",
                     {jsvm::Value(target), jsvm::Value(path)})
            .r0);
}

int
EmEnv::utimes(const std::string &path, int64_t atime_us, int64_t mtime_us)
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t p = sync_->pushString(path);
        return static_cast<int>(heapCall(
            sys::UTIMES,
            {static_cast<int32_t>(p),
             static_cast<int32_t>(atime_us / 1000000),
             static_cast<int32_t>(mtime_us / 1000000), 0, 0, 0}));
    }
    return static_cast<int>(
        blockingCall(*client_, "utimes",
                     {jsvm::Value(path),
                      jsvm::Value(static_cast<double>(atime_us)),
                      jsvm::Value(static_cast<double>(mtime_us))})
            .r0);
}

int
EmEnv::getdents(int fd, std::vector<sys::Dirent> &out)
{
    out.clear();
    for (;;) {
        constexpr size_t kBuf = 8192;
        bfs::Buffer data;
        int64_t r;
        if (usesSharedHeap()) {
            sync_->resetScratch();
            uint32_t buf = sync_->alloc(kBuf);
            r = heapCall(sys::GETDENTS64,
                            {fd, static_cast<int32_t>(buf),
                             static_cast<int32_t>(kBuf), 0, 0, 0});
            if (r > 0)
                data.assign(sync_->heapData() + buf,
                            sync_->heapData() + buf + r);
        } else {
            CallResult cr = blockingCall(
                *client_, "getdents64",
                {jsvm::Value(fd),
                 jsvm::Value(static_cast<double>(kBuf))});
            r = cr.r0;
            if (r > 0 && cr.data.isBytes() && cr.data.asBytes())
                data = *cr.data.asBytes();
        }
        if (r < 0)
            return static_cast<int>(r);
        if (r == 0 || data.empty())
            return 0;
        auto batch = sys::decodeDirents(data.data(), data.size());
        out.insert(out.end(), batch.begin(), batch.end());
    }
}

int
EmEnv::ioctlIsatty(int fd)
{
    return static_cast<int>(
        invoke(sys::IOCTL, {jsvm::Value(fd), jsvm::Value(0)}, {fd, 0}).r0);
}

int
EmEnv::chdir(const std::string &path)
{
    return static_cast<int>(pathCall(sys::CHDIR, path));
}

std::string
EmEnv::getcwd()
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t buf = sync_->alloc(4096);
        int64_t r = heapCall(
            sys::GETCWD, {static_cast<int32_t>(buf), 4096, 0, 0, 0, 0});
        if (r < 0)
            return "/";
        return std::string(
            reinterpret_cast<char *>(sync_->heapData() + buf));
    }
    CallResult r = blockingCall(*client_, "getcwd", {});
    return r.data.isString() ? r.data.asString() : "/";
}

int
EmEnv::getpid()
{
    return static_cast<int>(invoke(sys::GETPID, {}, {}).r0);
}

int
EmEnv::getppid()
{
    return static_cast<int>(invoke(sys::GETPPID, {}, {}).r0);
}

int64_t
EmEnv::nowMs()
{
    return invoke(sys::GETTIMEOFDAY, {}, {}).r0;
}

int
EmEnv::pipe2(int fds_out[2])
{
    if (usesSharedHeap()) {
        sync_->resetScratch();
        uint32_t p = sync_->alloc(8);
        int64_t r = heapCall(sys::PIPE2,
                             {static_cast<int32_t>(p), 0, 0, 0, 0, 0});
        if (r >= 0) {
            std::memcpy(fds_out, sync_->heapData() + p, 8);
            return 0;
        }
        return static_cast<int>(r);
    }
    CallResult r = blockingCall(*client_, "pipe2", {jsvm::Value(0)});
    if (r.r0 < 0)
        return static_cast<int>(r.r0);
    fds_out[0] = static_cast<int>(r.r0);
    fds_out[1] = static_cast<int>(r.r1);
    return 0;
}

int
EmEnv::dup(int fd)
{
    return static_cast<int>(invoke(sys::DUP, {jsvm::Value(fd)}, {fd}).r0);
}

int
EmEnv::dup2(int oldfd, int newfd)
{
    return static_cast<int>(invoke(sys::DUP2,
                                   {jsvm::Value(oldfd), jsvm::Value(newfd)},
                                   {oldfd, newfd})
                                .r0);
}

int
EmEnv::socket()
{
    return static_cast<int>(invoke(sys::SOCKET, {}, {}).r0);
}

int
EmEnv::bind(int fd, int port)
{
    return static_cast<int>(
        invoke(sys::BIND, {jsvm::Value(fd), jsvm::Value(port)}, {fd, port})
            .r0);
}

int
EmEnv::listen(int fd, int backlog)
{
    return static_cast<int>(invoke(sys::LISTEN,
                                   {jsvm::Value(fd), jsvm::Value(backlog)},
                                   {fd, backlog})
                                .r0);
}

int
EmEnv::accept(int fd, int *remote_port)
{
    CallResult r = invoke(sys::ACCEPT, {jsvm::Value(fd)}, {fd});
    if (r.r0 >= 0 && remote_port)
        *remote_port = static_cast<int>(r.r1);
    return static_cast<int>(r.r0);
}

int
EmEnv::connect(int fd, int port)
{
    return static_cast<int>(invoke(sys::CONNECT,
                                   {jsvm::Value(fd), jsvm::Value(port)},
                                   {fd, port})
                                .r0);
}

int
EmEnv::getsockname(int fd)
{
    return static_cast<int>(
        invoke(sys::GETSOCKNAME, {jsvm::Value(fd)}, {fd}).r0);
}

int
EmEnv::shutdown(int fd, int how)
{
    return static_cast<int>(invoke(sys::SHUTDOWN,
                                   {jsvm::Value(fd), jsvm::Value(how)},
                                   {fd, how})
                                .r0);
}

int
EmEnv::epollCreate()
{
    if (!usesSharedHeap())
        return -ENOSYS; // epoll_wait's record window needs the heap
    return static_cast<int>(heapCall(sys::EPOLL_CREATE, {}));
}

int
EmEnv::epollCtl(int epfd, int op, int fd, int32_t events)
{
    if (!usesSharedHeap())
        return -ENOSYS;
    return static_cast<int>(
        heapCall(sys::EPOLL_CTL, {epfd, op, fd, events, 0, 0}));
}

int
EmEnv::epollWait(int epfd, std::vector<PollSpec> &out)
{
    if (!usesSharedHeap())
        return -ENOSYS;
    if (out.empty() ||
        out.size() > static_cast<size_t>(sys::kEpollMaxEvents))
        return -EINVAL;
    pollSignals();
    sync_->resetScratch();
    uint32_t arr = sync_->alloc(out.size() * sys::EPOLL_EVENT_BYTES);
    // Nothing to marshal in: the interest list lives kernel-side and
    // only the ready records come back. In Ring mode this is one SQE
    // whose CQE is deferred until something in the list is ready.
    int64_t r = heapCall(sys::EPOLL_WAIT,
                         {epfd, static_cast<int32_t>(arr),
                          static_cast<int32_t>(out.size()), 0, 0, 0});
    int n = static_cast<int>(r);
    for (int i = 0; i < n && i < static_cast<int>(out.size()); i++) {
        sys::EpollEvent ev;
        std::memcpy(&ev,
                    sync_->heapData() + arr + i * sys::EPOLL_EVENT_BYTES,
                    sys::EPOLL_EVENT_BYTES);
        out[i].fd = ev.fd;
        out[i].events = static_cast<int16_t>(ev.events);
        out[i].revents = static_cast<int16_t>(ev.events);
    }
    pollSignals();
    return n;
}

int64_t
EmEnv::sendfile(int out_fd, int in_fd, int64_t off, int64_t count)
{
    // All-integer arguments: works under every convention, and the data
    // plane never touches this process's heap at all.
    return invoke(sys::SENDFILE,
                  {jsvm::Value(out_fd), jsvm::Value(in_fd),
                   jsvm::Value(static_cast<double>(off)),
                   jsvm::Value(static_cast<double>(count))},
                  {out_fd, in_fd, static_cast<int32_t>(off),
                   static_cast<int32_t>(count)})
        .r0;
}

int
EmEnv::poll(std::vector<PollSpec> &fds)
{
    if (!usesSharedHeap())
        return -ENOSYS; // no personality heap for the record array
    if (fds.empty() ||
        fds.size() > static_cast<size_t>(sys::kPollMaxFds))
        return -EINVAL;
    pollSignals();
    sync_->resetScratch();
    uint32_t arr = sync_->alloc(fds.size() * sys::POLLFD_BYTES);
    for (size_t i = 0; i < fds.size(); i++) {
        sys::PollFd p;
        p.fd = fds[i].fd;
        p.events = fds[i].events;
        p.revents = 0;
        std::memcpy(sync_->heapData() + arr + i * sys::POLLFD_BYTES, &p,
                    sys::POLLFD_BYTES);
    }
    // One call covers the whole set; in Ring mode this is one SQE whose
    // CQE is deferred until a descriptor turns ready.
    int64_t r = heapCall(sys::POLL,
                         {static_cast<int32_t>(arr),
                          static_cast<int32_t>(fds.size()), 0, 0, 0, 0});
    for (size_t i = 0; i < fds.size(); i++) {
        sys::PollFd p;
        std::memcpy(&p, sync_->heapData() + arr + i * sys::POLLFD_BYTES,
                    sys::POLLFD_BYTES);
        fds[i].revents = p.revents;
    }
    pollSignals();
    return static_cast<int>(r);
}

int
EmEnv::spawn(const std::vector<std::string> &argv,
             const std::vector<int> &fds)
{
    return spawn(argv, init_.env, "", fds);
}

int
EmEnv::spawn(const std::vector<std::string> &argv,
             const std::map<std::string, std::string> &env,
             const std::string &cwd, const std::vector<int> &fds)
{
    jsvm::Value argv_v = jsvm::Value::array();
    for (const auto &a : argv)
        argv_v.push(jsvm::Value(a));
    jsvm::Value env_v = jsvm::Value::object();
    for (const auto &[k, v] : env)
        env_v.set(k, jsvm::Value(v));
    jsvm::Value fds_v = jsvm::Value::array();
    for (int fd : fds)
        fds_v.push(jsvm::Value(fd));
    CallResult r = blockingCall(
        *client_, "spawn",
        {std::move(argv_v), std::move(env_v), jsvm::Value(cwd),
         std::move(fds_v)});
    return static_cast<int>(r.r0);
}

int
EmEnv::waitpid(int pid, int *status, int options)
{
    if (usesSharedHeap()) {
        // Ring-native wait4: (pid, status_ptr, options) with a 4-byte
        // status window in scratch the kernel fills in place — the
        // deferred CQE from completeWaits then carries the reaped pid in
        // r0 and nothing else needs to travel.
        pollSignals();
        sync_->resetScratch();
        uint32_t stat_ptr = status ? sync_->alloc(4) : 0;
        int64_t r = heapCall(
            sys::WAIT4,
            {pid, static_cast<int32_t>(stat_ptr), options, 0, 0, 0});
        if (r > 0 && status)
            std::memcpy(status, sync_->heapData() + stat_ptr, 4);
        pollSignals();
        return static_cast<int>(r);
    }
    CallResult r = blockingCall(
        *client_, "wait4", {jsvm::Value(pid), jsvm::Value(options)});
    pollSignals();
    if (r.r0 > 0 && status)
        *status = static_cast<int>(r.r1);
    return static_cast<int>(r.r0);
}

int
EmEnv::kill(int pid, int sig)
{
    return static_cast<int>(
        invoke(sys::KILL, {jsvm::Value(pid), jsvm::Value(sig)}, {pid, sig})
            .r0);
}

void
EmEnv::signal(int sig, std::function<void(int)> handler)
{
    {
        std::lock_guard<std::mutex> lk(sigMutex_);
        if (handler)
            handlers_[sig] = std::move(handler);
        else
            handlers_.erase(sig);
    }
    int action = handlers_.count(sig)
                     ? static_cast<int>(sys::SigDisposition::Handler)
                     : static_cast<int>(sys::SigDisposition::Default);
    invoke(sys::SIGACTION, {jsvm::Value(sig), jsvm::Value(action)},
           {sig, action});
}

int
EmEnv::fork(const std::string &resume_state)
{
    if (!emterpreter_) {
        // §2.2: a program compiled without the Emterpreter "will fail at
        // runtime when it attempts to invoke fork".
        return -ENOSYS;
    }
    bfs::Buffer snap;
    const char tag[] = "EMSTATE1";
    snap.insert(snap.end(), tag, tag + 8);
    snap.insert(snap.end(), resume_state.begin(), resume_state.end());
    CallResult r = blockingCall(
        *client_, "fork",
        {jsvm::Value::bytes(snap.data(), snap.size())});
    return static_cast<int>(r.r0);
}

int
EmEnv::execv(const std::vector<std::string> &argv)
{
    jsvm::Value argv_v = jsvm::Value::array();
    for (const auto &a : argv)
        argv_v.push(jsvm::Value(a));
    jsvm::Value env_v = jsvm::Value::object();
    for (const auto &[k, v] : init_.env)
        env_v.set(k, jsvm::Value(v));
    // Only a failed exec returns.
    CallResult r = blockingCall(*client_, "execve",
                                {std::move(argv_v), std::move(env_v)});
    return static_cast<int>(r.r0);
}

void
EmEnv::exit(int code)
{
    throw ExitRequested{code};
}

int64_t
EmEnv::runInterpreted(const emvm::Image &image, const std::string &fn,
                      std::vector<int64_t> args)
{
    emvm::Vm vm(image);
    if (!vm.start(fn, args))
        return -1;
    emvm::RunState st = vm.run(&client_->scope().token());
    if (st != emvm::RunState::Done)
        jsvm::panic("runInterpreted: kernel bytecode made a syscall/fault: " +
                    vm.trapMessage());
    return vm.exitCode();
}

// ---------------------------------------------------------------------------

void
EmscriptenRuntime::boot(jsvm::WorkerScope &scope,
                        std::shared_ptr<SyscallClient> client,
                        EmProgramFn program, EmMode mode, bool emterpreter)
{
    client->onInit([&scope, client, program = std::move(program), mode,
                    emterpreter](const InitInfo &) {
        // The program runs as a guest fiber owned by the worker — it can
        // never outlive the scope it captures.
        scope.startGuest([&scope, client, program, mode, emterpreter]() {
            try {
                auto env = std::make_shared<EmEnv>(client, mode, emterpreter,
                                                   scope.costs());
                // Route kernel signal messages into the program's
                // pending queue; handlers run at syscall boundaries
                // (§4.2: signals arrive over the same message
                // interface as system calls).
                std::weak_ptr<EmEnv> weak = env;
                client->scope().loop().post([client, weak]() {
                    client->onSignal([weak](int sig) {
                        if (auto e = weak.lock())
                            e->queueSignal(sig);
                    });
                });
                int code = program(*env);
                client->post("exit", {jsvm::Value(code)});
            } catch (ExitRequested &e) {
                client->post("exit", {jsvm::Value(e.code)});
            }
        });
    });
}

// ---------------------------------------------------------------------------

namespace {

/** Service one VM syscall under the async convention. */
int64_t
vmSyscall(SyscallClient &client, emvm::Vm &vm, int trap,
          const std::vector<int64_t> &args, bool &exited, int &exit_code)
{
    using jsvm::Value;
    switch (trap) {
      case sys::EXIT:
        exited = true;
        exit_code = args.empty() ? 0 : static_cast<int>(args[0]);
        return 0;
      case sys::WRITE: {
        // (fd, ptr, len)
        bfs::Buffer data;
        data.resize(args.size() > 2 ? static_cast<size_t>(args[2]) : 0);
        if (!data.empty() &&
            !vm.memRead(static_cast<uint64_t>(args[1]), data.data(),
                        data.size()))
            return -EFAULT;
        return blockingCall(client, "write",
                            {Value(static_cast<int>(args[0])),
                             Value::bytes(data.data(), data.size())})
            .r0;
      }
      case sys::READ: {
        // (fd, ptr, len)
        CallResult r = blockingCall(
            client, "read",
            {Value(static_cast<int>(args[0])),
             Value(static_cast<double>(args[2]))});
        if (r.r0 > 0 && r.data.isBytes() && r.data.asBytes()) {
            if (!vm.memWrite(static_cast<uint64_t>(args[1]),
                             r.data.asBytes()->data(),
                             r.data.asBytes()->size()))
                return -EFAULT;
        }
        return r.r0;
      }
      case sys::OPEN: {
        std::string path = vm.memStr(static_cast<uint64_t>(args[0]));
        return blockingCall(client, "open",
                            {Value(path), Value(static_cast<int>(args[1])),
                             Value(static_cast<int>(args[2]))})
            .r0;
      }
      case sys::CLOSE:
        return blockingCall(client, "close",
                            {Value(static_cast<int>(args[0]))})
            .r0;
      case sys::GETPID:
        return blockingCall(client, "getpid", {}).r0;
      case sys::KILL:
        return blockingCall(client, "kill",
                            {Value(static_cast<int>(args[0])),
                             Value(static_cast<int>(args[1]))})
            .r0;
      case sys::WAIT4: {
        CallResult r = blockingCall(
            client, "wait4",
            {Value(static_cast<int>(args[0])),
             Value(args.size() > 2 ? static_cast<int>(args[2]) : 0)});
        // status written at args[1] if a pointer was supplied
        if (r.r0 > 0 && args.size() > 1 && args[1] != 0) {
            int32_t status = static_cast<int32_t>(r.r1);
            vm.memWrite(static_cast<uint64_t>(args[1]),
                        reinterpret_cast<uint8_t *>(&status), 4);
        }
        return r.r0;
      }
      case sys::FORK: {
        // Full-fidelity fork: ship the machine state. The parent's VM is
        // snapshotted *awaiting this syscall's result*; the kernel boots
        // a sibling worker that resumes with 0 pushed.
        std::vector<uint8_t> snap = vm.snapshot();
        CallResult r = blockingCall(
            client, "fork", {Value::bytes(snap.data(), snap.size())});
        return r.r0;
      }
      default:
        return -ENOSYS;
    }
}

} // namespace

void
EmVmHost::boot(jsvm::WorkerScope &scope,
               std::shared_ptr<SyscallClient> client, emvm::Image image)
{
    client->onInit([&scope, client,
                    image = std::move(image)](const InitInfo &init) {
        // A guest fiber owned by the worker, so it can never outlive the
        // scope it captures.
        scope.startGuest([&scope, client, image, init]() {
            emvm::Vm vm(image);
            bool resumed = false;
            if (!init.snapshot.empty() && init.snapshot.size() > 8 &&
                std::memcmp(init.snapshot.data(), "BSXSNAP1", 8) == 0) {
                if (!emvm::Vm::restore(image, init.snapshot, vm)) {
                    client->post("exit", {jsvm::Value(125)});
                    return;
                }
                vm.resume(0); // we are the fork child
                resumed = true;
            }
            if (!resumed && !vm.start("main", {})) {
                client->post("exit", {jsvm::Value(127)});
                return;
            }
            bool exited = false;
            int exit_code = 0;
            for (;;) {
                emvm::RunState st = vm.run(&scope.token());
                if (st == emvm::RunState::Done) {
                    exit_code = static_cast<int>(vm.exitCode());
                    break;
                }
                if (st == emvm::RunState::Trapped) {
                    exit_code = 139; // "segfault"
                    break;
                }
                int64_t r = vmSyscall(*client, vm, vm.pendingTrap(),
                                      vm.pendingArgs(), exited, exit_code);
                if (exited)
                    break;
                vm.resume(r);
            }
            client->post("exit", {jsvm::Value(exit_code)});
        });
    });
}

} // namespace rt
} // namespace browsix
