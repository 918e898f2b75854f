/**
 * @file
 * SOCK_STREAM sockets between Browsix processes (§3.5).
 *
 * Sequenced, reliable, bi-directional streams: servers bind/listen/accept,
 * clients connect; a connection is a pair of Pipes (one per direction).
 * The kernel owns the port namespace and the accept rendezvous. The main
 * browser context can also connect (kernel-side API) — that's how the
 * XMLHttpRequest-like interface (§4.1) reaches in-Browsix HTTP servers.
 */
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "kernel/pipe.h"

namespace browsix {
namespace kernel {

class SocketFile;
using SocketFilePtr = std::shared_ptr<SocketFile>;

class SocketFile : public KFile
{
  public:
    enum class State { Unbound, Bound, Listening, Connected };

    const char *kind() const override { return "socket"; }

    State state() const { return state_; }
    int port() const { return port_; }
    int remotePort() const { return remotePort_; }

    // --- stream I/O (Connected only) ---
    void read(size_t maxlen, bfs::DataCb cb) override;
    void write(bfs::Buffer data, bfs::SizeCb cb) override;
    void readInto(bfs::ByteSpan dst, bfs::SizeCb cb) override;
    void writeFrom(bfs::ConstByteSpan src, bfs::SizeCb cb) override;

    /** Connected sockets forward span ops to their Pipes, which move
     * data through the caller's window directly. */
    bool spanIoDirect() const override { return true; }

    /**
     * shutdown(2) half-close. SHUT_WR closes the transmit stream's
     * write side — a FIN: the peer drains whatever is buffered (or in
     * flight on a shaped link) and then reads EOF — while this side can
     * keep reading; further local writes fail EPIPE (the socket tracks
     * this itself — the underlying Pipe would answer EBADF for its own
     * closed writer). SHUT_RD makes local reads return EOF immediately
     * and collapses the receive stream. Returns 0, ENOTCONN, or EINVAL
     * for an unknown `how`.
     */
    int shutdown(int how);

    // --- state transitions, driven by the kernel's syscall handlers ---
    int bind(int port);
    int listen(int backlog);

    /**
     * Enqueue a fully-connected peer endpoint; completes a pending accept
     * if one is waiting. Returns ECONNREFUSED when the backlog is full.
     */
    int enqueueConnection(SocketFilePtr peer);

    /**
     * Connect-side rendezvous with parking (the deferral protocol's
     * connect hook): enqueue `peer` immediately when an accept is waiting
     * or the backlog has room — done(0) fires before this returns — and
     * otherwise park peer+done until accept frees a backlog slot
     * (done(0), the deferred CQE) or the listener closes
     * (done(ECONNREFUSED), the peer's streams collapsed). Returns true
     * when the completion parked.
     */
    bool enqueueConnectionOrPark(SocketFilePtr peer,
                                 std::function<void(int err)> done);

    /** Accept a connection: immediately if one is pending, else queued. */
    void accept(std::function<void(int err, SocketFilePtr)> cb);

    /** Make this endpoint one side of a connection. */
    void establish(PipePtr rx, PipePtr tx, int local_port, int remote_port);

    bool hasPendingConnections() const { return !pending_.empty(); }

    /**
     * POLLIN-shaped readiness: a Listening socket is readable when a
     * connection awaits accept; a Connected socket when its receive
     * stream is. Every other state reads as ready so a poll never parks
     * against a descriptor whose wait could not end.
     */
    bool readable() const
    {
        if (state_ == State::Listening)
            return !pending_.empty();
        if (state_ == State::Connected)
            return shutRd_ || rx_->readable();
        return true;
    }

    /** POLLOUT-shaped readiness (Connected: transmit stream has room). */
    bool writable() const
    {
        if (state_ == State::Connected)
            return tx_->writable();
        return true;
    }

    /**
     * One-shot readiness watchers (the poll trap's parking hook); same
     * contract as Pipe's — fires immediately when already ready,
     * otherwise on the transition, and may fire spuriously late. A
     * listener's fire on enqueue and on its last close.
     */
    uint64_t watch(bool writable, std::function<void()> fn) override;
    void unwatch(uint64_t id) override;
    /** Watchers armed on this listener (a connection's sit on its
     * streams). */
    size_t watcherCount() const { return readyWatchers_.size(); }

  protected:
    void onLastClose() override;

  private:
    struct ConnectWaiter
    {
        SocketFilePtr peer;
        std::function<void(int)> done;
    };

    /** A backlog slot freed: move the oldest parked connect into
     * pending_ and complete it. */
    void promoteConnectWaiter();

    State state_ = State::Unbound;
    int port_ = 0;
    int remotePort_ = 0;
    int backlog_ = 8;
    bool shutRd_ = false, shutWr_ = false;

    PipePtr rx_, tx_;
    std::deque<SocketFilePtr> pending_;
    std::deque<std::function<void(int, SocketFilePtr)>> acceptWaiters_;
    std::deque<ConnectWaiter> connectWaiters_;
    WatcherList readyWatchers_;
};

} // namespace kernel
} // namespace browsix
