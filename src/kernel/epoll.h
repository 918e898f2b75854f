/**
 * @file
 * Epoll-shaped stateful readiness: a kernel-side registered interest list.
 *
 * poll re-marshals its whole PollFd set through the heap on every call; a
 * server's interest set is stable, so `epoll_create` materialises it as a
 * descriptor instead. EpollFile owns the interest map (fd → event mask)
 * and a weak reference to the wait its parked calls share; readiness
 * evaluation and parking live with the epoll_wait syscall handler, which
 * re-arms the registered objects' one-shot `KFile::watch` watchers
 * level-triggered — the same hooks the poll trap parks against (see
 * docs/ARCHITECTURE.md).
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "kernel/file.h"

namespace browsix {
namespace kernel {

struct ReadinessWait;

class EpollFile : public KFile
{
  public:
    const char *kind() const override { return "epoll"; }

    /** An epoll descriptor is not a stream. */
    void read(size_t, bfs::DataCb cb) override { cb(EINVAL, nullptr); }
    void write(bfs::Buffer, bfs::SizeCb cb) override { cb(EINVAL, 0); }

    /**
     * Edit the interest list (EPOLL_CTL_ADD_/MOD_/DEL_). Returns 0 or an
     * errno: EEXIST adding a registered fd, ENOENT modifying/deleting an
     * unregistered one, EINVAL for an unknown op.
     */
    int ctl(int op, int fd, int32_t events);

    /** Drop an fd if registered (closed descriptors stay registered
     * until the caller prunes or re-ctls them — Linux semantics would
     * auto-remove, but our fd table has no back-pointers; epoll_wait
     * reports a closed registered fd as POLLERR_|POLLHUP_ instead). */
    void forget(int fd) { interest_.erase(fd); }

    const std::map<int, int32_t> &interest() const { return interest_; }

    /** The readiness wait the epoll_wait calls parked on this instance
     * share, so each watched object carries at most one watcher per
     * direction for the instance. Weak: the wait's watchers own it. */
    std::weak_ptr<ReadinessWait> &parkedWait() { return parked_; }

  private:
    std::map<int, int32_t> interest_; ///< fd → requested POLL*_ mask
    std::weak_ptr<ReadinessWait> parked_;
};

using EpollFilePtr = std::shared_ptr<EpollFile>;

} // namespace kernel
} // namespace browsix
