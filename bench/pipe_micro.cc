/**
 * @file
 * Pipe data-plane microbenchmarks.
 *
 * The headline measurement is the completion-deferral protocol on the
 * syscall ring (the `cat | grep` shape from §4/§6): a ring-convention
 * producer streams chunks into a pipe while a ring-convention consumer
 * polls for readiness and reaps batched READ SQEs. Blocking calls park
 * kernel-side (the SQE's ctx joins the pipe waiter list) and their CQEs
 * land when the event arrives, so the pipeline never falls back to
 * one-message-per-call — the A/B leg runs the identical byte stream
 * through the per-call sync convention. Reported per leg: wall clock,
 * Atomics notifies per ring call (the batching figure of merit),
 * deferred completions, and the span-to-span zero-copy completions the
 * pipe bridge produces. `read`/`write` latency percentiles go to the
 * bench JSON via the kernel's per-syscall histograms.
 *
 * The rest are the pure substrate pieces the google-benchmark version
 * of this file measured, ported to the harness JSON schema: pipe
 * throughput vs buffer size (the §3.4/§6 backpressure machinery) plus
 * the guest-heap span-to-span fast path, structured-clone cost, Int64
 * emulation vs native (the §5.2 meme bottleneck), JS-semantics SHA-1 vs
 * native (Figure 9's JS tax), and the Emterpreter VM's interpretation
 * rate (the §5.2 async-build tax), bare and inside a guest, with the
 * scheduler steps that guest costs per ms of its compute.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <map>

#include "apps/coreutils/sha1.h"
#include "apps/tex/tex.h"
#include "bench/harness.h"
#include "kernel/pipe.h"
#include "runtime/emvm/vm.h"
#include "runtime/gopher/int64emu.h"

using namespace browsix;
using namespace browsix::bench;

namespace {

// ---------------------------------------------------------------------
// ring-pipelined producer/consumer (cat | grep shape)
// ---------------------------------------------------------------------

/** Producer: stream chunks to fd 1 as batched WRITE SQEs.
 * argv: chunks, chunk_size, batch. */
int
pipeSrcMain(rt::EmEnv &env)
{
    int chunks = std::atoi(env.argv()[1].c_str());
    int csz = std::atoi(env.argv()[2].c_str());
    int batch = std::max(1, std::atoi(env.argv()[3].c_str()));
    rt::RingSyscalls *ring = env.ring();
    rt::SyncSyscalls *sync = env.syncCalls();
    if (!ring || !sync)
        return 2;
    int sent = 0;
    std::vector<uint32_t> seqs;
    while (sent < chunks) {
        int k = std::min(batch, chunks - sent);
        sync->resetScratch();
        seqs.clear();
        for (int j = 0; j < k; j++) {
            uint32_t p = sync->alloc(static_cast<size_t>(csz));
            std::memset(sync->heapData() + p, 'x',
                        static_cast<size_t>(csz));
            sync->heapData()[p + csz - 1] = '\n'; // line-oriented stream
            seqs.push_back(ring->submit(
                sys::WRITE,
                {1, static_cast<int32_t>(p), csz, 0, 0, 0}));
        }
        ring->flush(); // one doorbell (at most) for the whole batch
        for (uint32_t s : seqs) {
            // A write against a full pipe parks kernel-side; its CQE
            // arrives as a deferred completion once the reader drains.
            if (ring->wait(s).r0 != csz)
                return 1;
        }
        sent += k;
    }
    return 0;
}

/** Consumer: poll fd 0 for readiness, then reap a batch of READ SQEs —
 * the grep half: scan every chunk for line ends. argv: expected_bytes,
 * chunk_size, batch. */
int
pipeSinkMain(rt::EmEnv &env)
{
    long expected = std::atol(env.argv()[1].c_str());
    int csz = std::atoi(env.argv()[2].c_str());
    int batch = std::max(1, std::atoi(env.argv()[3].c_str()));
    rt::RingSyscalls *ring = env.ring();
    rt::SyncSyscalls *sync = env.syncCalls();
    if (!ring || !sync)
        return 2;
    long got = 0, lines = 0;
    bool eof = false;
    std::vector<uint32_t> seqs, ptrs;
    while (!eof) {
        // One readiness SQE covers the whole next batch: it parks (one
        // deferred CQE) only when the pipe is genuinely empty.
        std::vector<rt::EmEnv::PollSpec> pfds(1);
        pfds[0].fd = 0;
        pfds[0].events = sys::POLLIN_;
        if (env.poll(pfds) < 0)
            return 3;
        sync->resetScratch();
        seqs.clear();
        ptrs.clear();
        for (int j = 0; j < batch; j++) {
            uint32_t p = sync->alloc(static_cast<size_t>(csz));
            ptrs.push_back(p);
            seqs.push_back(ring->submit(
                sys::READ, {0, static_cast<int32_t>(p), csz, 0, 0, 0}));
        }
        ring->flush();
        for (size_t j = 0; j < seqs.size(); j++) {
            rt::RingSyscalls::Completion c = ring->wait(seqs[j]);
            if (c.r0 < 0)
                return 4;
            if (c.r0 == 0) {
                eof = true;
                continue;
            }
            got += c.r0;
            const uint8_t *d = sync->heapData() + ptrs[j];
            for (int32_t b = 0; b < c.r0; b++)
                lines += d[b] == '\n';
        }
    }
    return got == expected && lines > 0 ? 0 : 5;
}

/** Sync-fallback producer: one blocking write per chunk. */
int
pipeSrcSyncMain(rt::EmEnv &env)
{
    int chunks = std::atoi(env.argv()[1].c_str());
    int csz = std::atoi(env.argv()[2].c_str());
    std::string chunk(static_cast<size_t>(csz), 'x');
    chunk.back() = '\n';
    for (int i = 0; i < chunks; i++) {
        if (env.write(1, chunk) != csz)
            return 1;
    }
    return 0;
}

/** Sync-fallback consumer: one blocking read per chunk. */
int
pipeSinkSyncMain(rt::EmEnv &env)
{
    long expected = std::atol(env.argv()[1].c_str());
    int csz = std::atoi(env.argv()[2].c_str());
    long got = 0, lines = 0;
    for (;;) {
        bfs::Buffer buf;
        int64_t n = env.read(0, buf, static_cast<size_t>(csz));
        if (n < 0)
            return 4;
        if (n == 0)
            break;
        got += n;
        for (int64_t b = 0; b < n; b++)
            lines += buf[static_cast<size_t>(b)] == '\n';
    }
    return got == expected && lines > 0 ? 0 : 5;
}

/** Plumbing: pipe2, spawn src | sink across it, reap both.
 * argv: chunks, chunk_size, batch, src_exe, sink_exe. */
int
pipeDriverMain(rt::EmEnv &env)
{
    const std::vector<std::string> &argv = env.argv();
    long total = std::atol(argv[1].c_str()) * std::atol(argv[2].c_str());
    int fds[2];
    if (env.pipe2(fds) != 0)
        return 2;
    int src = env.spawn({argv[4], argv[1], argv[2], argv[3]},
                        {0, fds[1], 2});
    int sink = env.spawn({argv[5], std::to_string(total), argv[2], argv[3]},
                         {fds[0], 1, 2});
    // Drop the driver's pipe ends so the sink sees EOF when src exits.
    env.close(fds[0]);
    env.close(fds[1]);
    if (src < 0 || sink < 0)
        return 3;
    int st = 0;
    if (env.waitpid(src, &st, 0) != src || sys::wexitstatus(st) != 0)
        return 4;
    if (env.waitpid(sink, &st, 0) != sink || sys::wexitstatus(st) != 0)
        return 5;
    return 0;
}

/** The typeset kernel inside a guest (the async LaTeX leg's compute
 * path): one untimed run, then three timed in the guest. Prints the best
 * run's µs and the µs of all four. argv: iters. */
int
typesetGuestMain(rt::EmEnv &env)
{
    int64_t iters = std::atoll(env.argv()[1].c_str());
    int64_t best = INT64_MAX, total = 0;
    for (int run = 0; run < 4; run++) {
        int64_t t0 = jsvm::nowUs();
        env.runInterpreted(apps::typesetImage(), "typeset", {7, iters});
        int64_t us = jsvm::nowUs() - t0;
        total += us;
        if (run > 0)
            best = std::min(best, us);
    }
    env.write(1, std::to_string(best) + " " + std::to_string(total) + "\n");
    return 0;
}

// ---------------------------------------------------------------------
// epoll+sendfile server (accept -> interest list -> kernel-side move)
// ---------------------------------------------------------------------

/** Server: batched ACCEPT SQEs park on the listener, accepted fds join
 * an epoll interest list, and sendfile moves the payload file into each
 * connection kernel-side — no guest-heap bounce on the data plane.
 * argv: port, nconns, payload_bytes. */
int
serverMain(rt::EmEnv &env)
{
    int port = std::atoi(env.argv()[1].c_str());
    int nconns = std::atoi(env.argv()[2].c_str());
    long payload = std::atol(env.argv()[3].c_str());
    rt::RingSyscalls *ring = env.ring();
    rt::SyncSyscalls *sync = env.syncCalls();
    if (!ring || !sync)
        return 2;
    int f = env.open("/tmp/srv_payload",
                     bfs::flags::CREAT | bfs::flags::RDWR);
    if (f < 0)
        return 3;
    // Batched payload writes: one doorbell covers the whole file.
    {
        sync->resetScratch();
        std::vector<std::pair<uint32_t, int32_t>> ws;
        for (long w = 0; w < payload; w += 4096) {
            int32_t n = static_cast<int32_t>(
                payload - w < 4096 ? payload - w : 4096);
            uint32_t p = sync->alloc(static_cast<size_t>(n));
            std::memset(sync->heapData() + p, 'y',
                        static_cast<size_t>(n));
            sync->heapData()[p + n - 1] = '\n';
            ws.emplace_back(
                ring->submit(sys::WRITE,
                             {f, static_cast<int32_t>(p), n, 0, 0, 0}),
                n);
        }
        ring->flush();
        for (auto &w : ws) {
            if (ring->wait(w.first).r0 != w.second)
                return 4;
        }
    }
    int s = env.socket();
    if (s < 0 || env.bind(s, port) != 0 || env.listen(s, nconns) != 0)
        return 5;
    int ep = env.epollCreate();
    if (ep < 0)
        return 6;
    // All accepts up front, one doorbell: every SQE parks on the
    // listener's rendezvous and its deferred CQE carries a connection.
    std::vector<uint32_t> seqs;
    for (int i = 0; i < nconns; i++)
        seqs.push_back(ring->submit(sys::ACCEPT, {s, 0, 0, 0, 0, 0}));
    ring->flush();
    env.write(1, "ready\n"); // the driver may spawn clients now
    std::map<int, long> sent;
    std::vector<int> conns;
    for (uint32_t q : seqs) {
        int c = static_cast<int>(ring->wait(q).r0);
        if (c < 0)
            return 7;
        conns.push_back(c);
        sent[c] = 0;
    }
    // The interest list is edited in one batch too: EPOLL_CTL is
    // integer-only, so nothing needs the scratch region.
    seqs.clear();
    for (int c : conns)
        seqs.push_back(ring->submit(
            sys::EPOLL_CTL,
            {ep, sys::EPOLL_CTL_ADD_, c, sys::POLLOUT_, 0, 0}));
    ring->flush();
    for (uint32_t q : seqs) {
        if (ring->wait(q).r0 != 0)
            return 8;
    }
    int open_conns = nconns;
    std::vector<rt::EmEnv::PollSpec> evs(static_cast<size_t>(nconns));
    while (open_conns > 0) {
        int n = env.epollWait(ep, evs);
        if (n < 0)
            return 9;
        // One SENDFILE SQE per ready connection, one doorbell for the
        // round. When a connection's pipe fills, that SQE parks and
        // re-drives off the client's drain cycles (deferred CQE).
        std::vector<std::pair<int, uint32_t>> sf;
        for (int j = 0; j < n; j++) {
            int c = evs[j].fd;
            if (!(evs[j].revents & sys::POLLOUT_))
                return 10;
            sf.emplace_back(
                c, ring->submit(
                       sys::SENDFILE,
                       {c, f, static_cast<int32_t>(sent[c]),
                        static_cast<int32_t>(payload - sent[c]), 0, 0}));
        }
        ring->flush();
        std::vector<int> finished;
        for (auto &e : sf) {
            int64_t moved = ring->wait(e.second).r0;
            if (moved < 0)
                return 11;
            sent[e.first] += moved;
            if (sent[e.first] >= payload)
                finished.push_back(e.first);
        }
        seqs.clear();
        for (int c : finished) {
            seqs.push_back(ring->submit(
                sys::EPOLL_CTL, {ep, sys::EPOLL_CTL_DEL_, c, 0, 0, 0}));
            seqs.push_back(ring->submit(sys::CLOSE, {c, 0, 0, 0, 0, 0}));
            open_conns--;
        }
        ring->flush();
        for (uint32_t q : seqs) {
            if (ring->wait(q).r0 != 0)
                return 12;
        }
    }
    env.close(ep);
    env.close(s);
    env.close(f);
    return 0;
}

/** Client: ring CONNECT (parks until the listener takes it), then the
 * consumer shape over the socket — poll for readability, reap batched
 * READ SQEs until EOF. argv: port, expected_bytes, chunk, batch. */
int
clientMain(rt::EmEnv &env)
{
    int port = std::atoi(env.argv()[1].c_str());
    long expected = std::atol(env.argv()[2].c_str());
    int csz = std::atoi(env.argv()[3].c_str());
    int batch = std::max(1, std::atoi(env.argv()[4].c_str()));
    rt::RingSyscalls *ring = env.ring();
    rt::SyncSyscalls *sync = env.syncCalls();
    if (!ring || !sync)
        return 2;
    int s = env.socket();
    if (s < 0)
        return 3;
    if (env.connect(s, port) != 0)
        return 4;
    long got = 0, lines = 0;
    std::vector<uint32_t> seqs, ptrs;
    std::vector<rt::EmEnv::PollSpec> pfds(1);
    while (got < expected) {
        pfds[0].fd = s;
        pfds[0].events = sys::POLLIN_;
        if (env.poll(pfds) < 0)
            return 5;
        // Only submit reads the remaining byte count can satisfy: a
        // speculative read past the payload would park until the
        // server's close and pay a needless deferred wake.
        long want = (expected - got + csz - 1) / csz;
        int k = want < batch ? static_cast<int>(want) : batch;
        sync->resetScratch();
        seqs.clear();
        ptrs.clear();
        for (int j = 0; j < k; j++) {
            uint32_t p = sync->alloc(static_cast<size_t>(csz));
            ptrs.push_back(p);
            seqs.push_back(ring->submit(
                sys::READ, {s, static_cast<int32_t>(p), csz, 0, 0, 0}));
        }
        ring->flush();
        bool eof = false;
        for (size_t j = 0; j < seqs.size(); j++) {
            rt::RingSyscalls::Completion c = ring->wait(seqs[j]);
            if (c.r0 < 0)
                return 6;
            if (c.r0 == 0) {
                eof = true;
                continue;
            }
            got += c.r0;
            const uint8_t *d = sync->heapData() + ptrs[j];
            for (int32_t b = 0; b < c.r0; b++)
                lines += d[b] == '\n';
        }
        if (eof)
            break;
    }
    if (got != expected || lines <= 0)
        return 7;
    // EOF confirmation: poll wakes on the server's close, then a single
    // read observes 0.
    pfds[0].fd = s;
    pfds[0].events = sys::POLLIN_;
    if (env.poll(pfds) < 0)
        return 8;
    bfs::Buffer b;
    if (env.read(s, b, 1) != 0)
        return 9;
    env.close(s);
    return 0;
}

/** Plumbing: spawn the server, wait for its listen announcement over a
 * pipe, fan out clients, reap everything.
 * argv: port, nconns, payload_bytes, chunk, batch. */
int
serverDriverMain(rt::EmEnv &env)
{
    const std::vector<std::string> &argv = env.argv();
    int nconns = std::atoi(argv[2].c_str());
    int p[2];
    if (env.pipe2(p) != 0)
        return 2;
    int srv = env.spawn(
        {"/usr/bin/srvbench-server", argv[1], argv[2], argv[3]},
        {0, p[1], 2});
    if (srv < 0)
        return 3;
    env.close(p[1]);
    bfs::Buffer b;
    if (env.read(p[0], b, 6) <= 0) // blocks until "ready\n"
        return 4;
    env.close(p[0]);
    std::vector<int> clients;
    for (int i = 0; i < nconns; i++) {
        int c = env.spawn({"/usr/bin/srvbench-client", argv[1], argv[3],
                           argv[4], argv[5]},
                          {0, 1, 2});
        if (c < 0)
            return 5;
        clients.push_back(c);
    }
    int st = 0;
    for (int c : clients) {
        if (env.waitpid(c, &st, 0) != c || sys::wexitstatus(st) != 0)
            return 6;
    }
    if (env.waitpid(srv, &st, 0) != srv || sys::wexitstatus(st) != 0)
        return 7;
    return 0;
}

void
registerPipeBench()
{
    apps::registerAllPrograms();
    auto &reg = apps::ProgramRegistry::instance();
    reg.add(apps::ProgramSpec{"pipebench-src", apps::RuntimeKind::EmRing,
                              64, pipeSrcMain, nullptr});
    reg.add(apps::ProgramSpec{"pipebench-sink", apps::RuntimeKind::EmRing,
                              64, pipeSinkMain, nullptr});
    reg.add(apps::ProgramSpec{"pipebench-src-sync",
                              apps::RuntimeKind::EmSync, 64,
                              pipeSrcSyncMain, nullptr});
    reg.add(apps::ProgramSpec{"pipebench-sink-sync",
                              apps::RuntimeKind::EmSync, 64,
                              pipeSinkSyncMain, nullptr});
    reg.add(apps::ProgramSpec{"pipebench-driver", apps::RuntimeKind::EmRing,
                              64, pipeDriverMain, nullptr});
    reg.add(apps::ProgramSpec{"pipebench-driver-sync",
                              apps::RuntimeKind::EmSync, 64,
                              pipeDriverMain, nullptr});
    reg.add(apps::ProgramSpec{"srvbench-server", apps::RuntimeKind::EmRing,
                              64, serverMain, nullptr});
    reg.add(apps::ProgramSpec{"srvbench-client", apps::RuntimeKind::EmRing,
                              64, clientMain, nullptr});
    reg.add(apps::ProgramSpec{"srvbench-driver", apps::RuntimeKind::EmRing,
                              64, serverDriverMain, nullptr});
    reg.add(apps::ProgramSpec{"typeset-guest", apps::RuntimeKind::EmAsync,
                              64, typesetGuestMain, nullptr});
}

struct LegResult
{
    double ms = 0;
    double calls = 0;
    double notifies_per_call = 0;
    double deferred = 0;
    double zero_copy = 0;
};

LegResult
runPipeline(Browsix &bx, const std::string &driver, int chunks, int csz,
            int batch, const std::string &src, const std::string &sink)
{
    std::vector<std::string> argv = {driver,
                                     std::to_string(chunks),
                                     std::to_string(csz),
                                     std::to_string(batch),
                                     src,
                                     sink};
    const int reps = smokeMode() ? 1 : 3;
    LegResult best;
    best.ms = 1e18;
    for (int rep = 0; rep < reps; rep++) {
        kernel::KernelStats before = bx.kernel().stats();
        RunResult r;
        double ms = timeMs([&]() { r = bx.runArgv(argv, 120000); });
        if (!r.ok || r.exitCode() != 0) {
            std::fprintf(stderr, "pipe_micro: %s failed (rc=%d)\n",
                         driver.c_str(), r.exitCode());
            std::exit(1);
        }
        kernel::KernelStats after = bx.kernel().stats();
        LegResult cur;
        cur.ms = ms;
        cur.calls = static_cast<double>(after.ringSyscallCount -
                                        before.ringSyscallCount);
        double notifies = static_cast<double>(after.ringNotifies -
                                              before.ringNotifies);
        cur.notifies_per_call =
            cur.calls > 0 ? notifies / cur.calls : 0;
        cur.deferred = static_cast<double>(after.ringDeferredCompletions -
                                           before.ringDeferredCompletions);
        cur.zero_copy = static_cast<double>(after.zeroCopyCompletions -
                                            before.zeroCopyCompletions);
        if (cur.ms < best.ms)
            best = cur;
    }
    return best;
}

/**
 * Wall-clock ms of fn for a substrate row: the best of three timed runs
 * after one untimed warm-up, at every tier, smoke included. Each caller
 * sizes fn to at least ~1 ms of work, so jsvm::nowUs()'s 1 µs resolution
 * and one descheduled moment cannot skew the row.
 */
double
bestMs(const std::function<void()> &fn)
{
    fn();
    double best = timeMs(fn);
    for (int rep = 1; rep < 3; rep++)
        best = std::min(best, timeMs(fn));
    return best;
}

} // namespace

int
main()
{
    registerPipeBench();
    BootConfig cfg;
    cfg.profile = jsvm::BrowserProfile::chrome2016();
    Browsix bx(cfg);
    auto &reg = apps::ProgramRegistry::instance();
    for (const char *p :
         {"pipebench-src", "pipebench-sink", "pipebench-src-sync",
          "pipebench-sink-sync", "pipebench-driver",
          "pipebench-driver-sync", "srvbench-server", "srvbench-client",
          "srvbench-driver"}) {
        bx.rootFs().writeFile(std::string("/usr/bin/") + p,
                              reg.bundleFor(p));
    }

    // ---- deferred-CQE pipeline vs per-call sync fallback ----
    const int kChunks = smokeMode() ? 48 : 512;
    const int kChunkBytes = 512;
    const int kBatch = 8;
    LegResult ring = runPipeline(bx, "/usr/bin/pipebench-driver", kChunks,
                                 kChunkBytes, kBatch, "/usr/bin/pipebench-src",
                                 "/usr/bin/pipebench-sink");
    // ---- epoll+sendfile server leg: accept, connect, epoll_wait and
    // sendfile all complete through deferred CQEs ----
    const int kConns = 4;
    const long kPayload = smokeMode() ? 24 * 1024 : 96 * 1024;
    {
        kernel::KernelStats before = bx.kernel().stats();
        RunResult r;
        double ms = timeMs([&]() {
            r = bx.runArgv({"/usr/bin/srvbench-driver", "9000",
                            std::to_string(kConns),
                            std::to_string(kPayload), "1024", "8"},
                           120000);
        });
        if (!r.ok || r.exitCode() != 0) {
            std::fprintf(stderr,
                         "pipe_micro: server leg failed (rc=%d)\n",
                         r.exitCode());
            return 1;
        }
        kernel::KernelStats after = bx.kernel().stats();
        double calls = static_cast<double>(after.ringSyscallCount -
                                           before.ringSyscallCount);
        double notifies = static_cast<double>(after.ringNotifies -
                                              before.ringNotifies);
        double per_call = calls > 0 ? notifies / calls : 0;
        double deferred =
            static_cast<double>(after.ringDeferredCompletions -
                                before.ringDeferredCompletions);
        double sf_bytes = static_cast<double>(after.sendfileBytes -
                                              before.sendfileBytes);
        double parked =
            static_cast<double>((after.connectsParked -
                                 before.connectsParked) +
                                (after.epollWaitsParked -
                                 before.epollWaitsParked));
        std::printf("\nepoll+sendfile server (%d conns x %ld B): "
                    "%.2f ms, %.0f ring calls, %.3f notifies/ringcall, "
                    "%.0f deferred, %.0f parked, %.0f sendfile bytes\n",
                    kConns, kPayload, ms, calls, per_call, deferred,
                    parked, sf_bytes);
        recordMetric("pipe_micro", "server_ring_ms", ms, "ms");
        recordMetric("pipe_micro", "server_ring_notifies_per_call",
                     per_call, "ratio");
        recordMetric("pipe_micro", "server_ring_deferred_completions",
                     deferred, "calls");
        recordMetric("pipe_micro", "server_blocking_parks", parked,
                     "calls");
        recordMetric("pipe_micro", "server_sendfile_bytes", sf_bytes,
                     "bytes");
        recordRingWindow("pipe_micro", "server", before, after, ms);
    }

    // Snapshot the data-plane latency histograms before the sync leg
    // muddies them: every read/write so far went through the ring legs.
    const kernel::KernelStats &st = bx.kernel().stats();
    for (const char *name :
         {"read", "write", "poll", "epoll_wait", "sendfile"}) {
        if (const kernel::LatencyHistogram *h = st.latency(name))
            recordHistogram("pipe_micro", std::string("ring_") + name, *h);
    }
    LegResult sync = runPipeline(
        bx, "/usr/bin/pipebench-driver-sync", kChunks, kChunkBytes, kBatch,
        "/usr/bin/pipebench-src-sync", "/usr/bin/pipebench-sink-sync");

    std::printf("deferred-CQE pipeline (%d x %d B chunks, batch %d):\n\n",
                kChunks, kChunkBytes, kBatch);
    std::printf("%-26s | %10s | %10s | %18s | %10s | %10s\n", "leg", "ms",
                "ringcalls", "notifies/ringcall", "deferred", "zerocopy");
    std::printf("---------------------------+------------+------------+--"
                "------------------+------------+------------\n");
    std::printf("%-26s | %10.2f | %10.0f | %18.3f | %10.0f | %10.0f\n",
                "ring (deferral protocol)", ring.ms, ring.calls,
                ring.notifies_per_call, ring.deferred, ring.zero_copy);
    std::printf("%-26s | %10.2f | %10.0f | %18.3f | %10.0f | %10.0f\n",
                "sync fallback", sync.ms, sync.calls,
                sync.notifies_per_call, sync.deferred, sync.zero_copy);
    std::printf("\nring vs sync wall clock: %.2fx\n",
                ring.ms > 0 ? sync.ms / ring.ms : 0);

    recordMetric("pipe_micro", "pipeline_ring_ms", ring.ms, "ms");
    recordMetric("pipe_micro", "pipeline_sync_ms", sync.ms, "ms");
    recordMetric("pipe_micro", "pipeline_ring_notifies_per_call",
                 ring.notifies_per_call, "ratio");
    recordMetric("pipe_micro", "pipeline_ring_deferred_completions",
                 ring.deferred, "calls");
    recordMetric("pipe_micro", "pipeline_ring_zero_copy_completions",
                 ring.zero_copy, "calls");
    recordMetric("pipe_micro", "pipeline_sync_over_ring_speedup",
                 ring.ms > 0 ? sync.ms / ring.ms : 0, "ratio");

    // ---- in-kernel pipe throughput vs buffer size ----
    const size_t kTotal = smokeMode() ? (8u << 20) : (64u << 20);
    for (size_t capacity : {size_t(4096), size_t(65536), size_t(1) << 20}) {
        double ms = bestMs([&]() {
            kernel::Pipe pipe(capacity);
            bfs::Buffer chunk(4096, 'x');
            size_t written = 0, read = 0;
            // Interleave writes and drains: with a small buffer this
            // goes through the backpressure wait queues constantly.
            while (read < kTotal) {
                if (written < kTotal) {
                    pipe.write(chunk,
                               [&](int, size_t n) { written += n; });
                }
                pipe.read(8192, [&](int, bfs::BufferPtr d) {
                    read += d->size();
                });
            }
        });
        double mbps = kTotal / 1e6 / (ms / 1000.0);
        std::printf("pipe transfer, %7zu B buffer: %8.1f MB/s\n", capacity,
                    mbps);
        recordMetric("pipe_micro",
                     "pipe_transfer_cap" + std::to_string(capacity) +
                         "_mbps",
                     mbps, "MB/s");
    }

    // ---- span-to-span fast path (guest heap -> guest heap) ----
    {
        kernel::Pipe pipe(4096);
        std::vector<uint8_t> dst(4096), src(4096, 'y');
        size_t moved = 0;
        const size_t kSpanTotal = smokeMode() ? (64u << 20) : (512u << 20);
        double ms = bestMs([&]() {
            moved = 0;
            while (moved < kSpanTotal) {
                // Reader parks first, so the write lands span-to-span
                // (one memcpy, no deque Buffer).
                pipe.readInto(bfs::ByteSpan{dst.data(), dst.size()},
                              [&](int, size_t n) { moved += n; });
                pipe.writeFrom(
                    bfs::ConstByteSpan{src.data(), src.size()},
                    [](int, size_t) {});
            }
        });
        double mbps = kSpanTotal / 1e6 / (ms / 1000.0);
        std::printf("pipe span-to-span:            %8.1f MB/s "
                    "(%llu B moved without a deque Buffer)\n",
                    mbps,
                    static_cast<unsigned long long>(pipe.spanToSpanBytes()));
        if (pipe.spanToSpanBytes() == 0) {
            std::fprintf(stderr,
                         "pipe_micro: span-to-span path never taken\n");
            return 1;
        }
        recordMetric("pipe_micro", "pipe_span_to_span_mbps", mbps, "MB/s");
    }

    // ---- structured clone ----
    for (size_t bytes : {size_t(64), size_t(4096), size_t(65536)}) {
        jsvm::Value msg = jsvm::Value::object();
        msg.set("data",
                jsvm::Value::bytes(std::vector<uint8_t>(bytes, 7)));
        msg.set("name", jsvm::Value("write"));
        const int kClones = smokeMode() ? 20000 : 100000;
        volatile size_t sink = 0;
        double ms = bestMs([&]() {
            for (int i = 0; i < kClones; i++) {
                jsvm::Value copy = msg.clone();
                sink += copy.type() == jsvm::Value::Type::Object;
            }
        });
        recordMetric("pipe_micro",
                     "structured_clone_" + std::to_string(bytes) + "b_us",
                     ms * 1000.0 / kClones, "us");
        (void)sink;
    }

    // ---- int64 emulation vs native ----
    {
        const int kRounds = smokeMode() ? 1000000 : 4000000;
        int64_t nx = 0x12345678, ny = 0x9abcdef0;
        double native_ms = bestMs([&]() {
            for (int i = 0; i < kRounds; i++) {
                nx = nx * ny + 12345;
                ny = ny ^ (nx >> 13);
            }
        });
        rt::Int64 ex(0x12345678), ey(0x9abcdef0);
        double emu_ms = bestMs([&]() {
            for (int i = 0; i < kRounds; i++) {
                ex = ex * ey + rt::Int64(12345);
                ey = ey ^ (ex >> 13);
            }
        });
        double slowdown = native_ms > 0 ? emu_ms / native_ms : 0;
        std::printf("int64 emulation slowdown:     %8.1fx\n", slowdown);
        recordMetric("pipe_micro", "int64_emulation_slowdown", slowdown,
                     "ratio");
        if (nx == 42 && ex.low() == 43)
            std::printf("(unreachable)\n"); // keep the loops live
    }

    // ---- SHA-1: native vs JS semantics ----
    {
        std::vector<uint8_t> data(65536, 0xAB);
        const int kHashes = smokeMode() ? 4 : 64;
        volatile uint32_t sink = 0;
        double native_ms = bestMs([&]() {
            for (int i = 0; i < kHashes; i++)
                sink += apps::sha1Native(data)[0];
        });
        double js_ms = bestMs([&]() {
            for (int i = 0; i < kHashes; i++)
                sink += apps::sha1Js(data)[0];
        });
        double native_mbps =
            kHashes * data.size() / 1e6 / (native_ms / 1000.0);
        double js_mbps = kHashes * data.size() / 1e6 / (js_ms / 1000.0);
        std::printf("sha1 native: %.1f MB/s, JS semantics: %.1f MB/s\n",
                    native_mbps, js_mbps);
        recordMetric("pipe_micro", "sha1_native_mbps", native_mbps,
                     "MB/s");
        recordMetric("pipe_micro", "sha1_js_mbps", js_mbps, "MB/s");
        (void)sink;
    }

    // ---- Emterpreter VM interpretation rate ----
    {
        const int kIters = smokeMode() ? 1000000 : 4000000;
        volatile int64_t sink = 0;
        double native_ms =
            bestMs([&]() { sink += apps::typesetNative(7, kIters); });
        const emvm::Image &img = apps::typesetImage();
        double vm_ms = bestMs([&]() {
            emvm::Vm vm(img);
            vm.start("typeset", {7, kIters});
            vm.run();
            sink += vm.exitCode();
        });
        recordMetric("pipe_micro", "typeset_native_mops",
                     kIters / 1000.0 / native_ms, "Mops/s");
        recordMetric("pipe_micro", "typeset_emterpreted_mops",
                     kIters / 1000.0 / vm_ms, "Mops/s");
        (void)sink;

        // The same runs inside a guest, under fast() so that nothing but
        // the guest steps the scheduler: each step past boot and exit is
        // one yield of its fiber, at most one per host-time quantum.
        Browsix guest_bx;
        guest_bx.rootFs().writeFile("/usr/bin/typeset-guest",
                                    reg.bundleFor("typeset-guest"));
        uint64_t steps0 = guest_bx.kernel().scheduler().steps();
        RunResult r = guest_bx.runArgv(
            {"/usr/bin/typeset-guest", std::to_string(kIters)}, 120000);
        double steps = static_cast<double>(
            guest_bx.kernel().scheduler().steps() - steps0);
        long long best_us = 0, total_us = 0;
        if (!r.ok || r.exitCode() != 0 ||
            std::sscanf(r.out.c_str(), "%lld %lld", &best_us, &total_us) !=
                2 ||
            best_us <= 0) {
            std::fprintf(stderr, "pipe_micro: typeset guest failed\n");
            return 1;
        }
        double steps_per_ms = steps / (total_us / 1000.0);
        std::printf("typeset in a guest: %.1f Mops/s, %.2f scheduler "
                    "steps per ms of guest compute\n",
                    static_cast<double>(kIters) / best_us, steps_per_ms);
        recordMetric("pipe_micro", "typeset_guest_mops",
                     static_cast<double>(kIters) / best_us, "Mops/s");
        recordMetric("pipe_micro", "typeset_guest_steps_per_ms",
                     steps_per_ms, "ratio");
    }
    return 0;
}
