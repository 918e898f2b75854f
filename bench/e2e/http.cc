/**
 * @file
 * Workload `http`: the in-Browsix server of §4.1/§5.1 under an open loop.
 *
 * One meme-httpd (ring runtime, epoll, sendfile) serves over SimBackend
 * links with a 200 µs RTT. The bench's own main loop is the load
 * generator: 4 keep-alive Kernel::connect connections, requests sent on
 * schedule whether or not earlier ones finished (pipelined), in a
 * seed-shuffled mix with exact shares per block of ten: 6 /api/images,
 * 3 static template files (sendfile), 1 chunked /api/images. The run
 * offers 1000 rps for 30% of its time; then for 28% the four connections
 * run closed loop, one request each; then the rate steps up from 2000 to
 * 8000 rps, 6% of the time each, and stops after the first step whose p99
 * (timed from each request's due time) misses 20 ms or whose backlog does
 * not drain. Each response must be 200 with the body
 * apps::handleMemeRequest<int64_t>
 * (or the static file) gives.
 */
#include <algorithm>
#include <deque>

#include "apps/meme/server.h"
#include "bench/e2e/common.h"
#include "net/netsim.h"

namespace browsix {
namespace e2e {

namespace {

/// Servers booted (and timed) per run; the last kColdOps of them also
/// answer a cold request.
constexpr int kSetups = 25;
constexpr int kColdOps = 15;
constexpr int kConns = 4;
constexpr int kPort = 8080;
constexpr double kLimitMs = 20;
constexpr int64_t kDrainUs = 5000000;
constexpr int kReplays = 200;
/// Spans are recorded for one request in this many; the rest are the
/// untraced half of the overhead comparison.
constexpr uint64_t kSpanEvery = 4;
/// Requests per second: the base rate, then steps that bracket the p99
/// knee (5000–7000 rps on a 4-vCPU x86 VM).
const double kRates[] = {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000};
/// Shares of the run: the base rate, each later step, the closed loop.
constexpr double kBaseShare = 0.3, kStepShare = 0.06, kClosedShare = 0.28;
/// Quiet time a fresh server gets before its first (cold) request.
constexpr int64_t kSettleUs = 20000;
/// Longest the run waits for the host to settle before set-up.
constexpr double kSettleMaxS = 20;
/// Longest the generator blocks on an idle loop before re-checking.
constexpr int64_t kIdleWaitUs = 100;

struct Target
{
    std::string cls;
    std::string target;
    bfs::Buffer request;       ///< serialized GET
    std::vector<uint8_t> body; ///< expected response body
};

apps::MemeTemplates
loadTemplates(Browsix &bx)
{
    apps::MemeTemplates templates;
    for (const auto &name : apps::memeTemplateNames()) {
        bfs::Buffer data;
        bx.fs().readFileSync("/memes/" + name + ".bimg", data);
        apps::decodeBimg(data, templates.images[name]);
    }
    return templates;
}

/** The request kinds, their bodies computed outside Browsix. */
std::vector<Target>
makeTargets(Browsix &bx)
{
    const apps::MemeTemplates templates = loadTemplates(bx);
    std::vector<Target> out;
    for (const auto &name : apps::memeTemplateNames()) {
        Target t{"static", "/memes/" + name + ".bimg", {}, {}};
        bx.fs().readFileSync(t.target, t.body);
        out.push_back(std::move(t));
    }
    out.push_back({"api", "/api/images", {}, {}});
    out.push_back({"chunked", "/api/images?chunked=1", {}, {}});
    for (auto &t : out) {
        net::HttpRequest req;
        req.target = t.target;
        if (t.cls != "static")
            t.body = apps::handleMemeRequest<int64_t>(templates, req).body;
        auto bytes = net::serializeRequest(req);
        t.request.assign(bytes.begin(), bytes.end());
    }
    return out;
}

int
indexOf(const std::vector<Target> &targets, const std::string &cls)
{
    for (size_t i = 0; i < targets.size(); i++) {
        if (targets[i].cls == cls)
            return static_cast<int>(i);
    }
    return 0;
}

/** Request targets in blocks of ten (6 api / 3 static / 1 chunked), each
 * block shuffled by the seed. */
class Mix
{
  public:
    Mix(uint64_t seed, const std::vector<Target> &targets)
        : rng_(seed), api_(indexOf(targets, "api")),
          chunked_(indexOf(targets, "chunked"))
    {
    }

    int
    next()
    {
        if (pos_ == block_.size()) {
            block_.assign(6, api_);
            const size_t statics = apps::memeTemplateNames().size();
            for (int i = 0; i < 3; i++)
                block_.push_back(static_cast<int>(rng_.below(statics)));
            block_.push_back(chunked_);
            for (size_t i = block_.size() - 1; i > 0; i--)
                std::swap(block_[i], block_[rng_.below(i + 1)]);
            pos_ = 0;
        }
        return block_[pos_++];
    }

  private:
    Rng rng_;
    int api_, chunked_;
    std::vector<int> block_;
    size_t pos_ = 0;
};

struct Pending
{
    int64_t dueUs;
    int target;
    uint64_t id;
};

struct Conn
{
    net::HttpParser parser{net::HttpParser::Mode::Response};
    std::shared_ptr<kernel::Kernel::HostConn> host;
    std::deque<Pending> inflight;
    bool closed = false;
};

/** Completion sink shared by every connection's callbacks. */
struct Sink
{
    const std::vector<Target> *targets = nullptr;
    Tracer *tr = nullptr;
    uint64_t bad = 0; ///< wrong status/body, reset connection
    /// Each phase sets countFrom to its first request id: a backlog an
    /// earlier phase left in flight still completes (and is checked), but
    /// is neither counted nor timed as this phase's.
    uint64_t countFrom = 0;
    uint64_t counted = 0; ///< completions with ids from countFrom on
    std::vector<double> latMs;
    std::map<std::string, std::vector<double>> byClass;
    std::vector<double> spanMs, plainMs; ///< overhead A/B (trace runs)
    std::vector<std::string> why;

    void
    complete(const Pending &p, const net::HttpResponse *resp)
    {
        const bool current = p.id >= countFrom;
        if (current)
            counted++;
        const Target &t = (*targets)[static_cast<size_t>(p.target)];
        const int64_t now = nowUs();
        if (!resp || resp->status != 200 || resp->body != t.body) {
            bad++;
            if (why.size() < 4)
                why.push_back("http: bad response to " + t.target);
            return;
        }
        if (!current)
            return;
        const double ms = static_cast<double>(now - p.dueUs) / 1000.0;
        latMs.push_back(ms);
        byClass[t.cls].push_back(ms);
        if (!tr)
            return;
        if (p.id % kSpanEvery == 0) {
            tr->span("op", "op", p.id, p.dueUs, now);
            spanMs.push_back(ms);
        } else {
            plainMs.push_back(ms);
        }
    }
};

struct Server
{
    std::unique_ptr<Browsix> bx;
    std::vector<std::shared_ptr<Conn>> conns;
    std::shared_ptr<Sink> sink = std::make_shared<Sink>();
};

void
onData(Sink &sink, Conn &c, const bfs::Buffer &data)
{
    if (!c.parser.feed(data)) {
        for (const auto &p : c.inflight)
            sink.complete(p, nullptr);
        c.inflight.clear();
        return;
    }
    while (c.parser.done() && !c.inflight.empty()) {
        const int64_t t0 = sink.tr ? nowUs() : 0;
        const Pending p = c.inflight.front();
        c.inflight.pop_front();
        sink.complete(p, &c.parser.response());
        if (sink.tr && p.id % kSpanEvery == 0)
            sink.tr->span("response", "net", p.id, t0, nowUs());
        c.parser.reset();
    }
}

/** Boot, start meme-httpd, open the keep-alive connections. */
Server
bootServer(const jsvm::BrowserProfile &profile)
{
    Server s;
    BootConfig cfg;
    cfg.profile = profile;
    cfg.memeAssets = true;
    cfg.simNet = true;
    cfg.simNetLink = net::LinkParams{200, 0};
    s.bx = std::make_unique<Browsix>(cfg);
    s.bx->kernel().spawnRoot(
        {"/usr/bin/meme-httpd", std::to_string(kPort), "64", "0"}, {}, "/",
        [](int) {}, nullptr, nullptr, [](int) {});
    if (!s.bx->waitForPort(kPort, 30000))
        return s;
    auto connected = std::make_shared<int>(0);
    for (int i = 0; i < kConns; i++) {
        auto c = std::make_shared<Conn>();
        std::weak_ptr<Sink> sink = s.sink;
        s.bx->kernel().connect(
            kPort,
            [c, sink](const bfs::Buffer &data) {
                if (auto k = sink.lock())
                    onData(*k, *c, data);
            },
            [c, sink]() {
                c->closed = true;
                if (auto k = sink.lock()) {
                    for (const auto &p : c->inflight)
                        k->complete(p, nullptr);
                }
                c->inflight.clear();
            },
            [c, connected](int err,
                           std::shared_ptr<kernel::Kernel::HostConn> h) {
                if (!err)
                    c->host = std::move(h);
                ++*connected;
            });
        s.conns.push_back(c);
    }
    s.bx->runUntil([&] { return *connected == kConns; }, 30000);
    for (const auto &c : s.conns) {
        if (!c->host) {
            s.conns.clear();
            break;
        }
    }
    return s;
}

void
send(Server &s, int conn, const Pending &p, Tracer &tr)
{
    Conn &c = *s.conns[static_cast<size_t>(conn)];
    if (c.closed) {
        s.sink->complete(p, nullptr);
        return;
    }
    c.inflight.push_back(p);
    const bool spans = tr.on() && p.id % kSpanEvery == 0;
    const int64_t t0 = spans ? nowUs() : 0;
    c.host->write((*s.sink->targets)[static_cast<size_t>(p.target)].request);
    if (spans)
        tr.span("HostConn::write", "net", p.id, t0, nowUs());
}

/**
 * The bench's main loop as load generator: one loop task at a time, with
 * tick() between tasks, so a burst of ready tasks cannot hold a send back
 * (Browsix::runUntil drains every ready task before its predicate runs).
 * tick() sends whatever is due, may pull `wake` (default: kIdleWaitUs
 * ahead) in to its next due time, and returns true to stop. An idle loop
 * blocks until a worker posts to it or `wake` arrives; the short bound
 * keeps the generator's wake-ups prompt on an otherwise idle host.
 */
bool
drive(Browsix &bx, const std::function<bool(int64_t &wake)> &tick,
      int64_t deadline_us)
{
    jsvm::EventLoop &loop = bx.browser().mainLoop();
    for (;;) {
        const int64_t now = nowUs();
        int64_t wake = now + kIdleWaitUs;
        if (tick(wake))
            return true;
        if (now > deadline_us)
            return false;
        const uint64_t timer = loop.setTimeout(
            [] {}, std::max<int64_t>(0, std::min(wake, deadline_us) - now));
        loop.pumpOne(true);
        loop.clearTimeout(timer);
    }
}

/** Closed loop: send one request and pump until it completes. */
double
roundTrip(Server &s, int target, uint64_t id, Tracer &tr)
{
    s.sink->countFrom = id;
    const uint64_t before = s.sink->counted;
    const int64_t t0 = nowUs();
    send(s, 0, {t0, target, id}, tr);
    drive(
        *s.bx, [&](int64_t &) { return s.sink->counted > before; },
        t0 + 10000000);
    return static_cast<double>(nowUs() - t0) / 1000.0;
}

} // namespace

Result
runHttp(const Options &opt, Tracer &tr)
{
    Result r;
    const auto &chrome = jsvm::BrowserProfile::chrome2016();
    Tracer off(false);

    // Requests here wait on thread wake-ups at every hop: start once the
    // host wakes idle threads promptly again (see settleHost). A smoke run
    // checks outputs only and does not wait.
    double wake_p90_us = 0;
    r.info["settle_s"] =
        opt.smoke ? 0 : settleHost(kSettleMaxS, &wake_p90_us);
    r.info["wake_p90_us"] = wake_p90_us;
    r.info["limit_ms"] = kLimitMs;

    Server srv;
    std::vector<Target> targets;
    const int setups = opt.smoke ? 1 : kSetups;
    const int colds = opt.smoke ? 1 : kColdOps;
    for (int k = 0; k < setups; k++) {
        // The previous server goes first: its teardown must not run under
        // the next boot's timer.
        srv = Server{};
        int64_t t0 = nowUs();
        srv = bootServer(chrome);
        r.setupS.push_back(static_cast<double>(nowUs() - t0) / 1e6);
        if (srv.conns.empty()) {
            r.attempted++;
            r.fail("http: meme-httpd never accepted the connections");
            return r;
        }
        if (k < setups - colds)
            continue;
        r.attempted++;
        if (targets.empty())
            targets = makeTargets(*srv.bx);
        srv.sink->targets = &targets;
        srv.sink->tr = &off;
        // Cold operation: the first request a fresh server answers, once
        // it has finished accepting the connections.
        const int64_t settle = nowUs() + kSettleUs;
        drive(
            *srv.bx, [&](int64_t &) { return nowUs() >= settle; }, settle);
        double ms = roundTrip(srv, indexOf(targets, "api"), 0, off);
        if (srv.sink->counted != 1 || srv.sink->bad != 0)
            r.fail("http: cold request failed");
        else
            r.coldMs.push_back(ms);
    }
    Sink &sink = *srv.sink;
    sink.tr = opt.trace ? &tr : &off;
    QueueSampler sampler(opt.trace);
    sampler.watch(opt.trace ? &srv.bx->kernel().scheduler() : nullptr);

    const Counters before = sample(*srv.bx);
    Mix mix(opt.seed, targets);
    uint64_t id = 1, sent_total = 0;
    // Wrong responses are failures whenever they arrive, in whichever
    // phase is running then.
    uint64_t bad_seen = 0;
    auto new_bad = [&] {
        const uint64_t n = sink.bad - bad_seen;
        bad_seen = sink.bad;
        return n;
    };
    auto inflight = [&] {
        size_t n = 0;
        for (const auto &c : srv.conns)
            n += c->inflight.size();
        return n;
    };
    auto drain = [&] {
        drive(
            *srv.bx, [&](int64_t &) { return inflight() == 0; },
            nowUs() + kDrainUs);
    };

    // One open-loop step at kRates[step]; whether it met the limit.
    auto open_step = [&](size_t step) {
        const double rps = kRates[step];
        const double seconds =
            opt.smoke ? 0.2
                      : opt.seconds * (step == 0 ? kBaseShare : kStepShare);
        const uint64_t total = static_cast<uint64_t>(rps * seconds);
        sink.latMs.clear();
        sink.byClass.clear();
        sink.countFrom = id;
        const uint64_t counted0 = sink.counted;
        std::vector<double> late;
        late.reserve(total);

        const int64_t start = nowUs() + 1000;
        const double gap_us = 1e6 / rps;
        const int64_t drain_until =
            start + static_cast<int64_t>(seconds * 1e6) + kDrainUs;
        uint64_t sent = 0;
        drive(
            *srv.bx,
            [&](int64_t &wake) {
                const int64_t now = nowUs();
                while (sent < total) {
                    const int64_t due =
                        start + static_cast<int64_t>(
                                    static_cast<double>(sent) * gap_us);
                    if (due > now) {
                        wake = std::min(wake, due);
                        break;
                    }
                    late.push_back(static_cast<double>(nowUs() - due) /
                                   1000.0);
                    send(srv, static_cast<int>(sent % kConns),
                         {due, mix.next(), id++}, tr);
                    sent++;
                }
                return sent == total && sink.counted - counted0 == total;
            },
            drain_until);

        // A backlog left at the drain deadline only fails the step (it is
        // past capacity).
        Result::Step st;
        st.rps = rps;
        st.failed = new_bad();
        st.drained = sink.counted - counted0 == total;
        st.p99Ms = percentile(sink.latMs, 99);
        st.pass = st.drained && st.failed == 0 && st.p99Ms <= kLimitMs;
        st.lateP99Ms = percentile(late, 99);
        st.latMs = sink.latMs;
        r.attempted += total;
        r.failed += st.failed;
        sent_total += total;
        if (step == 0) {
            r.ops = sink.byClass;
            if (!st.drained)
                r.fail("http: the base rate left a backlog");
            r.layers["trace_overhead_pct"] = overheadPct(
                {{"request", sink.spanMs}}, {{"request", sink.plainMs}});
        }
        r.steps.push_back(std::move(st));
        return r.steps.back().pass;
    };

    // The base rate: op_ms and the request kinds' rows.
    const bool base_ok = open_step(0);
    drain();

    // Throughput: four clients, each sending its next request when the
    // last one's response arrives. It runs before the higher rates: their
    // overload can leave the host waking idle threads slowly for the rest
    // of the run (see settleHost).
    {
        const double seconds = opt.smoke ? 0.2 : opt.seconds * kClosedShare;
        sink.countFrom = id;
        const uint64_t counted0 = sink.counted;
        const int64_t start = nowUs();
        const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
        uint64_t issued = 0, done_at_end = 0;
        drive(
            *srv.bx,
            [&](int64_t &wake) {
                const int64_t now = nowUs();
                const uint64_t done = sink.counted - counted0;
                if (now < end) {
                    wake = std::min(wake, end);
                    while (issued - done < kConns) {
                        send(srv, static_cast<int>(issued % kConns),
                             {now, mix.next(), id++}, tr);
                        issued++;
                    }
                } else if (!done_at_end) {
                    done_at_end = done;
                }
                return now >= end && done == issued;
            },
            end + kDrainUs);
        r.info["ops_per_s"] = static_cast<double>(done_at_end) /
                              (static_cast<double>(end - start) / 1e6);
        r.attempted += issued;
        r.failed += new_bad();
        sent_total += issued;
        if (sink.counted - counted0 != issued)
            r.fail("http: closed-loop phase did not drain");
    }

    // Step the rate up to the p99 knee, stopping after the first step that
    // misses the limit. With deeper queues per connection, throughput near
    // the knee settles into one of two levels some 30% apart for seconds
    // at a time: net.slo_rps is reported, not gated.
    for (size_t step = 1; base_ok && !opt.smoke && step < std::size(kRates);
         step++) {
        if (!open_step(step))
            break;
    }
    drain();
    r.failed += new_bad();
    for (const auto &w : sink.why) {
        if (r.failures.size() < 8)
            r.failures.push_back(w);
    }
    sampler.watch(nullptr);
    LayerAcc acc;
    acc.add(before, sample(*srv.bx));
    acc.report(sent_total, r.layers);
    r.layers["net.gen_late_p99_ms"] = r.steps[0].lateP99Ms;

    if (opt.trace) {
        // Modelled vs host cost per request: the same closed-loop requests
        // on this server and on a zero-cost-profile twin; and the native
        // handler over the same mix, the floor.
        Server fast = bootServer(jsvm::BrowserProfile::fast());
        if (fast.conns.empty()) {
            r.fail("http: fast-profile twin never accepted connections");
            return r;
        }
        fast.sink->targets = &targets;
        fast.sink->tr = &off;
        sink.tr = &off;
        const uint64_t bad_before = sink.bad;
        Mix replay_mix(opt.seed, targets);
        std::vector<int> replay;
        for (int i = 0; i < kReplays; i++)
            replay.push_back(replay_mix.next());
        double chrome_ms = 0, fast_ms = 0;
        for (int t : replay) {
            chrome_ms += roundTrip(srv, t, id++, off);
            Tracer::Scope s(tr, "replay.fast", "replay", id);
            fast_ms += roundTrip(fast, t, id++, off);
        }
        if (sink.bad != bad_before || fast.sink->bad != 0)
            r.fail("http: closed-loop replay got a bad response");
        const double modelled = (chrome_ms - fast_ms) / kReplays;
        r.layers["jsvm.modelled_ms"] = modelled;
        r.layers["jsvm.host_ms"] = fast_ms / kReplays;
        r.layers["unattributed_ms"] = median(r.steps[0].latMs) - modelled;

        const apps::MemeTemplates templates = loadTemplates(*srv.bx);
        const int64_t t0 = nowUs();
        for (int i : replay) {
            const Target &t = targets[static_cast<size_t>(i)];
            net::HttpRequest req;
            req.target = t.target;
            bfs::Buffer data;
            if (t.cls == "static")
                srv.bx->fs().readFileSync(t.target, data);
            else
                data = apps::handleMemeRequest<int64_t>(templates, req).body;
            if (data != t.body)
                r.fail("http: native handler disagrees with " + t.target);
        }
        r.layers["apps.meme_native_us"] =
            static_cast<double>(nowUs() - t0) / kReplays;
        r.layers["sched.queue_depth_mean"] = sampler.mean();
        r.layers["sched.queue_depth_max"] = sampler.max();
    }
    return r;
}

} // namespace e2e
} // namespace browsix
