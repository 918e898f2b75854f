/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, the seeded input
 * generator, the raw-result record run.py reduces to
 * metrics, the bench-side span recorder, and per-layer accounting from
 * the public counters (KernelStats, HttpBackend, SimBackend, Scheduler).
 *
 * Everything here observes Browsix from outside through its public API;
 * no span or counter lives inside src/.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/browsix.h"
#include "jsvm/util.h"
#include "kernel/latency_histogram.h"

namespace browsix {
namespace e2e {

using jsvm::nowUs;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20;
    /// Per-layer run: replays, spans, queue sampling.
    bool trace = false;
    /// One operation per workload, every output check on.
    bool smoke = false;
    /// Chrome trace-event JSON written here at exit (trace runs).
    std::string traceOut;
};

/** SplitMix64: the same seed gives the same inputs on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return n ? next() % n : 0; }

  private:
    uint64_t s_;
};

/** VmHWM of this process in MiB. */
double peakRssMb();

/**
 * Wait, at most max_s seconds, until this host wakes an idle thread
 * promptly (p90 of a condition-variable hand-off after 2 ms idle within
 * kQuietWakeUs). After a burst of CPU-heavy work, such as a previous
 * latex run, a virtualized host can take 10-60 s to return to normal
 * wake-up latency, and a wake-up-bound workload measured meanwhile reads
 * several times slow. Returns the seconds waited; *p90_us gets the last
 * probe's p90.
 */
double settleHost(double max_s, double *p90_us);
constexpr double kQuietWakeUs = 20;

/**
 * What one workload run measured, before any reduction: every sample,
 * so run.py (and its unit tests) own the statistics.
 */
struct Result
{
    std::vector<double> setupS; ///< one per set-up
    std::vector<double> coldMs; ///< first operation on each fresh set-up
    /// Operation latencies by class (ms). For http, the base-rate step.
    std::map<std::string, std::vector<double>> ops;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for the log

    /// Open-loop rate steps (http only).
    struct Step
    {
        double rps = 0;
        uint64_t failed = 0;
        bool drained = false;
        double p99Ms = 0;
        /// Met the latency limit with no failures and a drained backlog;
        /// the first step that does not ends the stepping.
        bool pass = false;
        double lateP99Ms = 0; ///< generator lateness
        std::vector<double> latMs; ///< every request, from its due time
    };
    std::vector<Step> steps;

    /// Per-layer metrics (per operation), by name.
    std::map<std::string, double> layers;
    /// Informational rows (reference floors, paper-fidelity inputs).
    std::map<std::string, double> info;

    void
    fail(const std::string &why)
    {
        failed++;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Serialize a Result as one JSON object. */
std::string toJson(const Options &opt, const Result &r);

/**
 * Spans recorded from the bench's own code, kept in memory and written
 * as Chrome trace-event JSON at exit (opens offline in Perfetto). A
 * disabled tracer records nothing and reads no clock.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_ && !paused_; }
    /** Pause recording (the untraced half of the overhead A/B). */
    void setPaused(bool p) { paused_ = p; }

    /** A complete span [start, end) tagged with its operation id. */
    void span(const std::string &name, const std::string &cat, uint64_t op,
              int64_t start_us, int64_t end_us);
    /** Counter event (KernelStats deltas and such). */
    void counters(const std::string &name, uint64_t op,
                  const std::map<std::string, double> &values);

    /** Scoped span. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, std::string cat, uint64_t op)
            : t_(t), name_(std::move(name)), cat_(std::move(cat)), op_(op),
              start_(t.on() ? nowUs() : 0)
        {
        }
        ~Scope()
        {
            if (t_.on())
                t_.span(name_, cat_, op_, start_, nowUs());
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::string name_, cat_;
        uint64_t op_;
        int64_t start_;
    };

    /** Write {"traceEvents": [...]}; run.py adds the per-layer metrics. */
    bool write(const std::string &path) const;

  private:
    struct Event
    {
        std::string name, cat;
        char ph;
        int64_t ts, dur;
        uint64_t op;
        std::map<std::string, double> args;
    };
    bool on_;
    bool paused_ = false;
    std::vector<Event> events_;
};

/** Run-queue depth sampled at 1 kHz from a bench thread while watching. */
class QueueSampler
{
  public:
    explicit QueueSampler(bool on);
    ~QueueSampler();
    QueueSampler(const QueueSampler &) = delete;
    QueueSampler &operator=(const QueueSampler &) = delete;

    /** Sample s until the next watch(); nullptr stops. On return the
     * previous scheduler is no longer touched. */
    void watch(kernel::Scheduler *s);

    double mean() const;
    double max() const;

  private:
    void loop();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    kernel::Scheduler *cur_ = nullptr; // guarded by mu_
    bool stop_ = false;                // guarded by mu_
    double sum_ = 0;                   // guarded by mu_
    uint64_t n_ = 0;                   // guarded by mu_
    size_t max_ = 0;                   // guarded by mu_
    std::thread thread_;
};

/** The public counters of one Browsix instance at one instant. */
struct Counters
{
    kernel::KernelStats ks;
    uint64_t httpFetches = 0, bytesFetched = 0;
    uint64_t cacheHits = 0, cacheMisses = 0;
    uint64_t linkChunks = 0, bytesShaped = 0;
};

Counters sample(Browsix &bx, const bfs::BrowserHttpCache *cache = nullptr);

/** Traps whose latency histograms the per-layer report breaks out. */
const std::vector<std::string> &reportedTraps();

/**
 * Sums counter deltas over the measured operations of a run and turns
 * them into the per-operation layer metrics.
 */
class LayerAcc
{
  public:
    void add(const Counters &before, const Counters &after);
    /** Write the runtime/kernel/net rows, each divided by ops. */
    void report(uint64_t ops, std::map<std::string, double> &out) const;

  private:
    uint64_t messages_ = 0, spawns_ = 0;
    uint64_t async_ = 0, sync_ = 0, ring_ = 0;
    uint64_t doorbells_ = 0, notifies_ = 0, deferred_ = 0;
    uint64_t parks_ = 0, zeroCopy_ = 0, copied_ = 0;
    uint64_t linkChunks_ = 0, bytesShaped_ = 0;
    std::map<std::string, kernel::LatencyHistogram> traps_;
};

/** Every per-layer row a workload does not exercise, as 0. */
void zeroLayers(std::map<std::string, double> &out);

/** Arithmetic mean (0 when empty). */
double mean(const std::vector<double> &v);

/** Median of a copy (0 when empty). */
double median(std::vector<double> v);

using ClassSamples = std::map<std::string, std::vector<double>>;

/**
 * Tracing overhead in percent: the geometric mean, over the classes both
 * halves saw, of (median with spans recorded / median without) - 1.
 */
double overheadPct(const ClassSamples &on, const ClassSamples &off);

/** Percentile by nearest rank on a copy (0 when empty). */
double percentile(std::vector<double> v, double p);

Result runLatex(const Options &opt, Tracer &tr);
Result runShell(const Options &opt, Tracer &tr);
Result runHttp(const Options &opt, Tracer &tr);

} // namespace e2e
} // namespace browsix
