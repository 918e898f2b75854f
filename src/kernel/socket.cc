#include "kernel/socket.h"

namespace browsix {
namespace kernel {

void
SocketFile::read(size_t maxlen, bfs::DataCb cb)
{
    if (state_ != State::Connected) {
        cb(ENOTCONN, nullptr);
        return;
    }
    if (shutRd_) {
        cb(0, std::make_shared<bfs::Buffer>()); // EOF after SHUT_RD
        return;
    }
    rx_->read(maxlen, std::move(cb));
}

void
SocketFile::write(bfs::Buffer data, bfs::SizeCb cb)
{
    if (state_ != State::Connected) {
        cb(ENOTCONN, 0);
        return;
    }
    if (shutWr_) {
        cb(EPIPE, 0); // POSIX: write after SHUT_WR is EPIPE, not EBADF
        return;
    }
    tx_->write(std::move(data), std::move(cb));
}

void
SocketFile::readInto(bfs::ByteSpan dst, bfs::SizeCb cb)
{
    if (state_ != State::Connected) {
        cb(ENOTCONN, 0);
        return;
    }
    if (shutRd_) {
        cb(0, 0); // EOF after SHUT_RD
        return;
    }
    rx_->readInto(dst, std::move(cb));
}

void
SocketFile::writeFrom(bfs::ConstByteSpan src, bfs::SizeCb cb)
{
    if (state_ != State::Connected) {
        cb(ENOTCONN, 0);
        return;
    }
    if (shutWr_) {
        cb(EPIPE, 0);
        return;
    }
    tx_->writeFrom(src, std::move(cb));
}

int
SocketFile::shutdown(int how)
{
    constexpr int kShutRd = 0, kShutWr = 1, kShutRdWr = 2;
    if (state_ != State::Connected)
        return ENOTCONN;
    if (how != kShutRd && how != kShutWr && how != kShutRdWr)
        return EINVAL;
    if (how == kShutRd || how == kShutRdWr) {
        shutRd_ = true;
        rx_->closeReader();
    }
    if (how == kShutWr || how == kShutRdWr) {
        shutWr_ = true;
        tx_->closeWriter(); // FIN: the peer drains, then reads EOF
    }
    return 0;
}

uint64_t
SocketFile::watch(bool writable_wanted, std::function<void()> fn)
{
    if (writable_wanted ? writable() : readable()) {
        fn();
        return 0;
    }
    if (writable_wanted)
        return tx_->watchWritable(std::move(fn)); // only Connected blocks
    if (state_ == State::Connected)
        return rx_->watchReadable(std::move(fn));
    return readyWatchers_.add(std::move(fn)); // Listening: fires on enqueue
}

void
SocketFile::unwatch(uint64_t id)
{
    if (readyWatchers_.cancel(id))
        return;
    if (rx_ && rx_->unwatch(id))
        return;
    if (tx_)
        tx_->unwatch(id);
}

int
SocketFile::bind(int port)
{
    if (state_ != State::Unbound)
        return EINVAL;
    port_ = port;
    state_ = State::Bound;
    return 0;
}

int
SocketFile::listen(int backlog)
{
    if (state_ != State::Bound)
        return EINVAL;
    backlog_ = backlog > 0 ? backlog : 8;
    state_ = State::Listening;
    return 0;
}

int
SocketFile::enqueueConnection(SocketFilePtr peer)
{
    if (state_ != State::Listening)
        return ECONNREFUSED;
    if (!acceptWaiters_.empty()) {
        auto cb = std::move(acceptWaiters_.front());
        acceptWaiters_.pop_front();
        cb(0, std::move(peer));
        return 0;
    }
    if (static_cast<int>(pending_.size()) >= backlog_)
        return ECONNREFUSED;
    pending_.push_back(std::move(peer));
    readyWatchers_.fire();
    return 0;
}

bool
SocketFile::enqueueConnectionOrPark(SocketFilePtr peer,
                                    std::function<void(int err)> done)
{
    if (state_ != State::Listening) {
        done(ECONNREFUSED);
        return false;
    }
    if (!acceptWaiters_.empty() ||
        static_cast<int>(pending_.size()) < backlog_) {
        done(enqueueConnection(std::move(peer)));
        return false;
    }
    connectWaiters_.push_back({std::move(peer), std::move(done)});
    return true;
}

void
SocketFile::promoteConnectWaiter()
{
    if (connectWaiters_.empty())
        return;
    ConnectWaiter w = std::move(connectWaiters_.front());
    connectWaiters_.pop_front();
    int rc = enqueueConnection(std::move(w.peer));
    w.done(rc);
}

void
SocketFile::accept(std::function<void(int err, SocketFilePtr)> cb)
{
    if (state_ != State::Listening) {
        cb(EINVAL, nullptr);
        return;
    }
    if (!pending_.empty()) {
        SocketFilePtr peer = std::move(pending_.front());
        pending_.pop_front();
        promoteConnectWaiter();
        cb(0, std::move(peer));
        return;
    }
    acceptWaiters_.push_back(std::move(cb));
}

void
SocketFile::establish(PipePtr rx, PipePtr tx, int local_port,
                      int remote_port)
{
    rx_ = std::move(rx);
    tx_ = std::move(tx);
    port_ = local_port;
    remotePort_ = remote_port;
    state_ = State::Connected;
}

void
SocketFile::onLastClose()
{
    if (state_ == State::Connected) {
        rx_->closeReader();
        tx_->closeWriter();
    }
    while (!acceptWaiters_.empty()) {
        auto cb = std::move(acceptWaiters_.front());
        acceptWaiters_.pop_front();
        cb(EBADF, nullptr);
    }
    // Parked connects can never be promoted now: refuse them, collapsing
    // each waiting peer's streams the same way as the never-accepted
    // pending_ connections below.
    while (!connectWaiters_.empty()) {
        ConnectWaiter w = std::move(connectWaiters_.front());
        connectWaiters_.pop_front();
        if (w.peer && w.peer->state_ == State::Connected) {
            w.peer->rx_->closeReader();
            w.peer->tx_->closeWriter();
        }
        w.done(ECONNREFUSED);
    }
    // Collapse never-accepted peers' streams (ECONNRESET-style): the
    // listener's side of each pipe pair is gone, so the peer's reads
    // must wake with EOF and its writes must fail with EPIPE. Dropping
    // the queue without closing the pipe ends left a guest parked in
    // read() on such a peer hung forever.
    while (!pending_.empty()) {
        SocketFilePtr peer = std::move(pending_.front());
        pending_.pop_front();
        if (peer && peer->state_ == State::Connected) {
            peer->rx_->closeReader(); // EPIPEs the far side's writes
            peer->tx_->closeWriter(); // wakes its parked reads with EOF
        }
    }
    state_ = State::Unbound;
    // A poller parked on this listener re-evaluates (its descriptor is
    // gone) instead of holding its watcher until the object dies.
    readyWatchers_.fire();
}

} // namespace kernel
} // namespace browsix
