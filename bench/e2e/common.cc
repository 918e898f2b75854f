#include "bench/e2e/common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "net/netsim.h"

namespace browsix {
namespace e2e {

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
}

namespace {

/** p90 of `n` hand-offs to a thread that idled 2 ms before each, µs. */
double
wakeP90Us(int n)
{
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false, stop = false;
    int64_t sent = 0;
    std::vector<double> lat;
    std::thread waiter([&] {
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
            cv.wait(lk, [&] { return ready || stop; });
            if (stop)
                return;
            lat.push_back(static_cast<double>(nowUs() - sent));
            ready = false;
        }
    });
    for (int i = 0; i < n; i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        {
            std::lock_guard<std::mutex> lk(mu);
            sent = nowUs();
            ready = true;
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        stop = true;
    }
    cv.notify_one();
    waiter.join();
    return percentile(lat, 90);
}

} // namespace

double
settleHost(double max_s, double *p90_us)
{
    const int64_t t0 = nowUs();
    for (;;) {
        *p90_us = wakeP90Us(150);
        const double waited = static_cast<double>(nowUs() - t0) / 1e6;
        if (*p90_us <= kQuietWakeUs || waited >= max_s)
            return waited;
    }
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
overheadPct(const ClassSamples &on, const ClassSamples &off)
{
    double logsum = 0;
    int n = 0;
    for (const auto &[cls, v] : on) {
        auto it = off.find(cls);
        if (v.empty() || it == off.end() || it->second.empty())
            continue;
        logsum += std::log(median(v) / median(it->second));
        n++;
    }
    return n ? (std::exp(logsum / n) - 1) * 100 : 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

// ---------------------------------------------------------------------------
// Raw result JSON

namespace {

void
num(std::ostringstream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << buf;
}

void
str(std::ostringstream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

void
list(std::ostringstream &os, const std::vector<double> &v)
{
    os << '[';
    for (size_t i = 0; i < v.size(); i++) {
        if (i)
            os << ',';
        num(os, v[i]);
    }
    os << ']';
}

void
dict(std::ostringstream &os, const std::map<std::string, double> &m)
{
    os << '{';
    bool first = true;
    for (const auto &[k, v] : m) {
        if (!first)
            os << ',';
        first = false;
        str(os, k);
        os << ':';
        num(os, v);
    }
    os << '}';
}

} // namespace

std::string
toJson(const Options &opt, const Result &r)
{
    std::ostringstream os;
    os << "{\"workload\":";
    str(os, opt.workload);
    os << ",\"seed\":" << opt.seed << ",\"trace\":"
       << (opt.trace ? "true" : "false") << ",\"setup_s\":";
    list(os, r.setupS);
    os << ",\"cold_ms\":";
    list(os, r.coldMs);
    os << ",\"ops\":{";
    bool first = true;
    for (const auto &[cls, v] : r.ops) {
        if (!first)
            os << ',';
        first = false;
        str(os, cls);
        os << ':';
        list(os, v);
    }
    os << "},\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"failures\":[";
    for (size_t i = 0; i < r.failures.size(); i++) {
        if (i)
            os << ',';
        str(os, r.failures[i]);
    }
    os << "],\"steps\":[";
    for (size_t i = 0; i < r.steps.size(); i++) {
        const auto &s = r.steps[i];
        if (i)
            os << ',';
        os << "{\"rps\":";
        num(os, s.rps);
        os << ",\"failed\":" << s.failed
           << ",\"drained\":" << (s.drained ? "true" : "false")
           << ",\"pass\":" << (s.pass ? "true" : "false") << ",\"p99_ms\":";
        num(os, s.p99Ms);
        os << ",\"late_p99_ms\":";
        num(os, s.lateP99Ms);
        os << ",\"lat_ms\":";
        list(os, s.latMs);
        os << '}';
    }
    os << "],\"layers\":";
    dict(os, r.layers);
    os << ",\"info\":";
    dict(os, r.info);
    os << ",\"peak_rss_mb\":";
    num(os, peakRssMb());
    os << '}';
    return os.str();
}

// ---------------------------------------------------------------------------
// Tracer

void
Tracer::span(const std::string &name, const std::string &cat, uint64_t op,
             int64_t start_us, int64_t end_us)
{
    if (!on())
        return;
    events_.push_back(Event{name, cat, 'X', start_us, end_us - start_us, op,
                            {}});
}

void
Tracer::counters(const std::string &name, uint64_t op,
                 const std::map<std::string, double> &values)
{
    if (!on())
        return;
    events_.push_back(Event{name, "counters", 'C', nowUs(), 0, op, values});
}

bool
Tracer::write(const std::string &path) const
{
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto &e : events_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":";
        str(os, e.name);
        os << ",\"cat\":";
        str(os, e.cat);
        os << ",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts
           << ",\"pid\":1,\"tid\":1";
        if (e.ph == 'X')
            os << ",\"dur\":" << e.dur;
        os << ",\"args\":";
        std::map<std::string, double> args = e.args;
        if (e.ph == 'X')
            args["op"] = static_cast<double>(e.op);
        dict(os, args);
        os << '}';
    }
    os << "]}\n";
    std::ofstream out(path);
    out << os.str();
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// QueueSampler

QueueSampler::QueueSampler(bool on)
{
    if (on)
        thread_ = std::thread([this] { loop(); });
}

QueueSampler::~QueueSampler()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
QueueSampler::watch(kernel::Scheduler *s)
{
    std::lock_guard<std::mutex> lk(mu_);
    cur_ = s;
}

double
QueueSampler::mean() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return n_ ? sum_ / static_cast<double>(n_) : 0;
}

double
QueueSampler::max() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<double>(max_);
}

void
QueueSampler::loop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        cv_.wait_for(lk, std::chrono::milliseconds(1),
                     [this] { return stop_; });
        if (stop_ || !cur_)
            continue;
        size_t d = cur_->queueDepth();
        sum_ += static_cast<double>(d);
        n_++;
        max_ = std::max(max_, d);
    }
}

// ---------------------------------------------------------------------------
// Counters and per-layer accounting

Counters
sample(Browsix &bx, const bfs::BrowserHttpCache *cache)
{
    Counters c;
    c.ks = bx.kernel().stats();
    if (bfs::HttpBackend *http = bx.texliveHttp()) {
        c.httpFetches = http->fetchCount();
        c.bytesFetched = http->bytesFetched();
    }
    if (cache) {
        c.cacheHits = cache->hits;
        c.cacheMisses = cache->misses;
    }
    if (auto *sim = dynamic_cast<net::SimBackend *>(&bx.kernel().net())) {
        c.linkChunks = sim->stats().linkChunks;
        c.bytesShaped = sim->stats().bytesShaped;
    }
    return c;
}

const std::vector<std::string> &
reportedTraps()
{
    static const std::vector<std::string> traps = {
        "open",  "read",   "write",  "writev", "close",
        "stat",  "lstat",  "getdents", "pipe2", "spawn",
        "fork",  "wait4",  "accept", "epoll_wait", "sendfile"};
    return traps;
}

void
LayerAcc::add(const Counters &b, const Counters &a)
{
    const kernel::KernelStats &x = b.ks, &y = a.ks;
    messages_ += y.messagesSent - x.messagesSent;
    spawns_ += y.processesSpawned - x.processesSpawned;
    async_ += y.asyncSyscallCount - x.asyncSyscallCount;
    sync_ += y.syncSyscallCount - x.syncSyscallCount;
    ring_ += y.ringSyscallCount - x.ringSyscallCount;
    doorbells_ += y.ringDoorbells - x.ringDoorbells;
    notifies_ += y.ringNotifies - x.ringNotifies;
    deferred_ += y.ringDeferredCompletions - x.ringDeferredCompletions;
    parks_ += (y.wait4Parked - x.wait4Parked) +
              (y.connectsParked - x.connectsParked) +
              (y.epollWaitsParked - x.epollWaitsParked);
    zeroCopy_ += y.zeroCopyCompletions - x.zeroCopyCompletions;
    copied_ += y.copiedCompletions - x.copiedCompletions;
    linkChunks_ += a.linkChunks - b.linkChunks;
    bytesShaped_ += a.bytesShaped - b.bytesShaped;
    for (const auto &trap : reportedTraps()) {
        const kernel::LatencyHistogram *hy = y.latency(trap);
        if (!hy)
            continue;
        const kernel::LatencyHistogram *hx = x.latency(trap);
        kernel::LatencyHistogram &acc = traps_[trap];
        for (size_t i = 0; i < kernel::LatencyHistogram::kBuckets; i++)
            acc.buckets[i] += hy->buckets[i] - (hx ? hx->buckets[i] : 0);
        acc.count += hy->count - (hx ? hx->count : 0);
        acc.sumUs += hy->sumUs - (hx ? hx->sumUs : 0);
        acc.maxUs = std::max(acc.maxUs, hy->maxUs);
    }
}

void
LayerAcc::report(uint64_t ops, std::map<std::string, double> &out) const
{
    const double n = ops ? static_cast<double>(ops) : 1.0;
    auto per = [n](uint64_t v) { return static_cast<double>(v) / n; };
    auto ratio = [](uint64_t num, uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    out["jsvm.messages"] = per(messages_);
    out["jsvm.spawns"] = per(spawns_);
    out["runtime.async_calls"] = per(async_);
    out["runtime.sync_calls"] = per(sync_);
    out["runtime.ring_calls"] = per(ring_);
    out["runtime.ring_doorbells_per_call"] = ratio(doorbells_, ring_);
    out["runtime.ring_notifies_per_call"] = ratio(notifies_, ring_);
    out["runtime.deferred_cqes"] = per(deferred_);
    out["kernel.parks"] = per(parks_);
    out["kernel.zero_copy_share"] = ratio(zeroCopy_, zeroCopy_ + copied_);
    out["net.link_chunks"] = per(linkChunks_);
    out["net.bytes_shaped"] = per(bytesShaped_);
    for (const auto &trap : reportedTraps()) {
        auto it = traps_.find(trap);
        const std::string base = "kernel." + trap + ".";
        if (it == traps_.end() || it->second.count == 0) {
            out[base + "count"] = 0;
            out[base + "p50_us"] = 0;
            out[base + "p99_us"] = 0;
            continue;
        }
        out[base + "count"] = per(it->second.count);
        out[base + "p50_us"] =
            static_cast<double>(it->second.percentileUs(50));
        out[base + "p99_us"] =
            static_cast<double>(it->second.percentileUs(99));
    }
}

void
zeroLayers(std::map<std::string, double> &out)
{
    for (const char *k :
         {"jsvm.modelled_ms", "jsvm.host_ms", "emvm.typeset_ms.base",
          "emvm.typeset_ms.fused", "emvm.typeset_ms.trace",
          "emvm.typeset_native_ms", "emvm.traces_entered",
          "emvm.trace_deopts", "emvm.fused_dispatch_ratio",
          "sched.queue_depth_mean", "sched.queue_depth_max",
          "bfs.http_fetches", "bfs.bytes_fetched", "bfs.cache_hit_share",
          "bfs.tex_read_ms", "net.gen_late_p99_ms", "apps.latex_native_ms",
          "apps.meme_native_us", "unattributed_ms", "trace_overhead_pct"})
        out.emplace(k, 0.0);
}

} // namespace e2e
} // namespace browsix
