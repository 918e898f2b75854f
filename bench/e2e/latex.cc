/**
 * @file
 * Workload `latex`: the §5.2 editor, closed loop, one user.
 *
 * Set-up boots the editor's two Browsix instances (pdflatex compiled for
 * synchronous syscalls, and for the Emterpreter with asynchronous ones)
 * over a TeX Live tree fetched lazily across a 20 ms / 50 Mb/s link. The
 * sync instance's first `make` is the cold build. Each measured iteration
 * then edits one seed-chosen paragraph (same word count, so the document
 * stays two pages) and toggles \cite{doppio}, so every `make` runs
 * pdflatex, bibtex and pdflatex; it rebuilds on the sync instance, then
 * on the async one. Every main.pdf must byte-equal the native pipeline's
 * output for the same sources.
 */
#include <cstdio>
#include <sstream>

#include "apps/tex/tex.h"
#include "bench/e2e/common.h"
#include "runtime/emvm/vm.h"

namespace browsix {
namespace e2e {

namespace {

/// Editor pairs booted (and timed) per run; the last kColdBuilds of them
/// also run a cold build. A boot is ~60 ms, a cold build ~1.3 s.
constexpr int kSetups = 21;
constexpr int kColdBuilds = 5;
/// 20 ms RTT, 50 Mb/s: the editor's TeX Live mirror.
const bfs::NetworkParams kTexNet{20000, 6.25};
const char *const kBuild = "cd /home && make";
/// The reference project on the plain Vfs.
const char *const kRefTex = "/main.tex";
const char *const kRefJob = "/main";
const char *const kRefPdf = "/main.pdf";

struct Editor
{
    bfs::BrowserHttpCachePtr cache;
    std::unique_ptr<Browsix> bx;
};

Editor
bootEditor(bool sync_calls, const jsvm::BrowserProfile &profile)
{
    Editor e;
    e.cache = std::make_shared<bfs::BrowserHttpCache>();
    BootConfig cfg;
    cfg.profile = profile;
    cfg.texlive = true;
    cfg.pdflatexSync = sync_calls;
    cfg.texliveNet = kTexNet;
    cfg.httpCache = e.cache;
    e.bx = std::make_unique<Browsix>(cfg);
    return e;
}

std::string
readText(bfs::Vfs &vfs, const std::string &path)
{
    bfs::Buffer data;
    if (vfs.readFileSync(path, data) != 0)
        return "";
    return std::string(data.begin(), data.end());
}

/** A pronounceable lower-case word of 2–4 syllables. */
std::string
makeWord(Rng &rng)
{
    static const char *const kSyl[] = {
        "ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "po",
        "qua", "bri", "den", "fal", "gor", "hin", "jus", "lem", "mor", "tas"};
    const size_t n = sizeof(kSyl) / sizeof(kSyl[0]);
    std::string w;
    int syl = 2 + static_cast<int>(rng.below(3));
    for (int i = 0; i < syl; i++)
        w += kSyl[rng.below(n)];
    return w;
}

/** main.tex as lines; edits keep the word count (and so the page count). */
class Doc
{
  public:
    explicit Doc(const std::string &tex)
    {
        std::istringstream is(tex);
        std::string line;
        while (std::getline(is, line)) {
            if (line.rfind("paragraph ", 0) == 0)
                paras_.push_back(lines_.size());
            if (line.find(kCite) != std::string::npos)
                intro_ = lines_.size();
            lines_.push_back(line);
        }
    }

    bool valid() const { return !paras_.empty() && intro_ < lines_.size(); }

    void
    edit(Rng &rng)
    {
        std::string &l = lines_[paras_[rng.below(paras_.size())]];
        std::istringstream is(l);
        std::string w, label;
        size_t words = 0;
        is >> w >> label; // "paragraph P.I" stays
        while (is >> w)
            words++;
        l = "paragraph " + label;
        for (size_t i = 0; i < words; i++)
            l += " " + makeWord(rng);
        std::string &intro = lines_[intro_];
        auto pos = intro.find(kCite);
        if (pos != std::string::npos)
            intro.erase(pos, std::string(kCite).size());
        else
            intro.insert(intro.size() - 1, kCite); // before the final '.'
    }

    std::string
    text() const
    {
        std::string out;
        for (const auto &l : lines_)
            out += l + "\n";
        return out;
    }

  private:
    static constexpr const char *kCite = " \\cite{doppio}";
    std::vector<std::string> lines_;
    std::vector<size_t> paras_;
    size_t intro_ = static_cast<size_t>(-1);
};

/** A plain Vfs holding the same project, built by the native pipeline. */
class Reference
{
  public:
    Reference()
    {
        auto store = std::make_shared<bfs::HttpStore>();
        apps::populateTexliveStore(*store);
        auto http = std::make_shared<bfs::HttpBackend>(
            store, std::make_shared<bfs::BrowserHttpCache>(), nullptr,
            bfs::NetworkParams{});
        auto overlay = std::make_shared<bfs::OverlayBackend>(
            std::make_shared<bfs::InMemBackend>(), http);
        root_ = std::make_shared<bfs::InMemBackend>();
        vfs_.mount("/", root_);
        vfs_.mount("/texlive", overlay);
        // The engines name main.bib relative to the working directory,
        // which a plain Vfs resolves from "/": the project lives there.
        apps::stageLatexProject(*root_, "/", 1);
    }

    bfs::Vfs &vfs() { return vfs_; }

    /** pdflatex, bibtex, pdflatex on `tex`; the resulting main.pdf. */
    std::string
    build(const std::string &tex, double *ms)
    {
        vfs_.writeFileSync(kRefTex, tex);
        std::string log;
        int64_t t0 = nowUs();
        int rc = apps::pdflatexNative(vfs_, kRefTex, log);
        apps::bibtexNative(vfs_, kRefJob, log);
        rc |= apps::pdflatexNative(vfs_, kRefTex, log);
        if (ms)
            *ms = static_cast<double>(nowUs() - t0) / 1000.0;
        return rc == 0 ? readText(vfs_, kRefPdf) : "";
    }

  private:
    std::shared_ptr<bfs::InMemBackend> root_;
    bfs::Vfs vfs_;
};

/**
 * The build's TeX engines replayed outside Browsix on the reference Vfs,
 * with typeset() on the native kernel (tier < 0) or on an emvm tier;
 * times the typeset calls and the file reads separately.
 */
class ReplayIo : public apps::TexIo
{
  public:
    ReplayIo(bfs::Vfs &vfs, int tier) : vfs_(vfs), tier_(tier) {}

    int
    readFile(const std::string &path, std::string &out) override
    {
        int64_t t0 = nowUs();
        bfs::Buffer data;
        int rc = vfs_.readFileSync(path, data);
        out.assign(data.begin(), data.end());
        readUs += nowUs() - t0;
        return rc;
    }
    int
    writeFile(const std::string &path, const std::string &data) override
    {
        return vfs_.writeFileSync(path, data);
    }
    bool
    exists(const std::string &path) override
    {
        bfs::Stat st;
        return vfs_.statSync(path, st) == 0;
    }
    void log(const std::string &) override {}

    int64_t
    typeset(int64_t seed, int64_t iters) override
    {
        int64_t t0 = nowUs();
        int64_t h = 0;
        if (tier_ < 0) {
            h = apps::typesetNative(seed, iters);
        } else {
            emvm::Vm vm(apps::typesetImage(),
                        static_cast<emvm::Tier>(tier_));
            if (vm.start("typeset", {seed, iters}) &&
                vm.run() == emvm::RunState::Done)
                h = vm.exitCode();
            stats.fusedDispatches += vm.stats().fusedDispatches;
            stats.tracesEntered += vm.stats().tracesEntered;
            stats.traceDeopts += vm.stats().traceDeopts;
            retired += vm.instructionsRetired();
        }
        typesetUs += nowUs() - t0;
        return h;
    }

    /** pdflatex, bibtex, pdflatex; main.pdf, or "" on failure. */
    std::string
    build()
    {
        int rc = apps::runPdflatex(*this, kRefTex, apps::kItersPerPage);
        apps::runBibtex(*this, kRefJob);
        rc |= apps::runPdflatex(*this, kRefTex, apps::kItersPerPage);
        return rc == 0 ? readText(vfs_, kRefPdf) : "";
    }

    int64_t readUs = 0;
    int64_t typesetUs = 0;
    emvm::VmStats stats;
    uint64_t retired = 0;

  private:
    bfs::Vfs &vfs_;
    int tier_;
};

struct Build
{
    bool ok = false;
    double ms = 0;
};

/** Write the edit and run make; checks exit status and main.pdf. */
Build
editBuild(Editor &ed, const std::string &tex, const std::string &expected,
          Tracer &tr, uint64_t op)
{
    Build b;
    int64_t t0 = nowUs();
    {
        Tracer::Scope s(tr, "Vfs::writeFileSync", "bfs", op);
        ed.bx->fs().writeFileSync("/home/main.tex", tex);
    }
    RunResult res;
    {
        Tracer::Scope s(tr, "Browsix::run", "core", op);
        res = ed.bx->run(kBuild, 600000);
    }
    b.ms = static_cast<double>(nowUs() - t0) / 1000.0;
    b.ok = res.ok && res.exitCode() == 0 && !expected.empty() &&
           readText(ed.bx->fs(), "/home/main.pdf") == expected;
    if (!b.ok)
        std::fprintf(stderr, "latex: `%s` exited %d\n%s%s\n", kBuild,
                     res.exitCode(), res.out.c_str(), res.err.c_str());
    return b;
}

} // namespace

Result
runLatex(const Options &opt, Tracer &tr)
{
    Result r;
    Rng rng(opt.seed);
    const auto &chrome = jsvm::BrowserProfile::chrome2016();
    Reference ref;
    Doc doc(readText(ref.vfs(), kRefTex));
    if (!doc.valid()) {
        r.attempted = 1;
        r.fail("latex: staged main.tex has no paragraphs to edit");
        return r;
    }
    const std::string base_pdf = ref.build(doc.text(), nullptr);

    // Set-ups: boot the editor pair; on the last few pairs, the sync
    // instance's first make is the cold build (lazy TeX Live fetches hit
    // the network). The last pair stays for the measured phase.
    Editor sync_ed, async_ed;
    uint64_t cold_fetches = 0, cold_bytes = 0, cold_hits = 0, cold_miss = 0;
    const int setups = opt.smoke ? 1 : kSetups;
    const int colds = opt.smoke ? 1 : kColdBuilds;
    for (int k = 0; k < setups; k++) {
        // The previous pair goes first: its teardown must not run under
        // the next boot's timer.
        sync_ed = Editor{};
        async_ed = Editor{};
        int64_t t0 = nowUs();
        sync_ed = bootEditor(true, chrome);
        async_ed = bootEditor(false, chrome);
        r.setupS.push_back(static_cast<double>(nowUs() - t0) / 1e6);
        if (k < setups - colds)
            continue;

        Counters before = sample(*sync_ed.bx, sync_ed.cache.get());
        r.attempted++;
        Build cold = editBuild(sync_ed, doc.text(), base_pdf, tr, 0);
        Counters after = sample(*sync_ed.bx, sync_ed.cache.get());
        cold_fetches += after.httpFetches - before.httpFetches;
        cold_bytes += after.bytesFetched - before.bytesFetched;
        cold_hits += after.cacheHits - before.cacheHits;
        cold_miss += after.cacheMisses - before.cacheMisses;
        if (!cold.ok)
            r.fail("latex: cold sync build failed or main.pdf differs");
        else
            r.coldMs.push_back(cold.ms);
    }
    // The async instance's own first make warms its caches, untimed.
    r.attempted++;
    if (!editBuild(async_ed, doc.text(), base_pdf, tr, 0).ok)
        r.fail("latex: first async build failed or main.pdf differs");

    // Trace runs replay every operation on a zero-cost browser profile.
    Editor fast_sync, fast_async;
    if (opt.trace) {
        fast_sync = bootEditor(true, jsvm::BrowserProfile::fast());
        fast_async = bootEditor(false, jsvm::BrowserProfile::fast());
        for (Editor *e : {&fast_sync, &fast_async})
            editBuild(*e, doc.text(), base_pdf, tr, 0);
    }
    QueueSampler sampler(opt.trace);

    LayerAcc acc;
    uint64_t ops = 0, op_id = 0;
    std::vector<double> native_ms, modelled, host, unattributed, tex_read,
        typeset_native;
    double emvm_ms[3] = {0, 0, 0};
    emvm::VmStats trace_stats, fused_stats;
    uint64_t fused_retired = 0;
    ClassSamples on_ops, off_ops;

    const int64_t phase0 = nowUs();
    const int64_t deadline =
        phase0 + static_cast<int64_t>(opt.seconds * 1e6);
    for (int iter = 0; iter == 0 || (!opt.smoke && nowUs() < deadline);
         iter++) {
        doc.edit(rng);
        const std::string tex = doc.text();
        double nat = 0;
        const std::string expected = ref.build(tex, &nat);
        native_ms.push_back(nat);
        if (expected.empty()) {
            r.attempted++;
            r.fail("latex: native reference build failed");
            continue;
        }
        // Trace runs alternate recorded and unrecorded iterations: the
        // difference is the tracing overhead.
        const bool spans = opt.trace && iter % 2 == 0;
        tr.setPaused(!spans);

        // Layer split for this edit: the same engines outside Browsix.
        double nat_typeset = 0, nat_rest = 0;
        if (opt.trace) {
            Tracer::Scope s(tr, "replay.native", "replay", op_id + 1);
            ReplayIo io(ref.vfs(), -1);
            int64_t t0 = nowUs();
            if (io.build() != expected)
                r.fail("latex: native replay diverged from the reference");
            double total = static_cast<double>(nowUs() - t0) / 1000.0;
            nat_typeset = static_cast<double>(io.typesetUs) / 1000.0;
            nat_rest = total - nat_typeset;
            tex_read.push_back(static_cast<double>(io.readUs) / 1000.0);
            typeset_native.push_back(nat_typeset);
        }
        if (opt.trace && iter == 0) {
            // The emvm tiers on this build's typeset calls: the async
            // leg's guest compute, and Tier::Base as the 2016-Emterpreter
            // reference. Deterministic compute, so replayed once a run.
            for (int t = 0; t < 3; t++) {
                Tracer::Scope s(tr, std::string("replay.emvm.") +
                                        emvm::tierName(
                                            static_cast<emvm::Tier>(t)),
                                "replay", op_id + 1);
                ReplayIo io(ref.vfs(), t);
                if (io.build() != expected)
                    r.fail("latex: emvm replay diverged from native");
                emvm_ms[t] = static_cast<double>(io.typesetUs) / 1000.0;
                if (t == static_cast<int>(emvm::Tier::Trace))
                    trace_stats = io.stats;
                if (t == static_cast<int>(emvm::Tier::Fused)) {
                    fused_stats = io.stats;
                    fused_retired = io.retired;
                }
            }
        }

        struct Leg
        {
            const char *cls;
            Editor *ed, *fast;
        };
        for (const Leg &leg : {Leg{"sync", &sync_ed, &fast_sync},
                               Leg{"async", &async_ed, &fast_async}}) {
            const uint64_t op = ++op_id;
            Counters before = sample(*leg.ed->bx);
            sampler.watch(spans ? &leg.ed->bx->kernel().scheduler()
                                : nullptr);
            Build b;
            {
                Tracer::Scope s(tr, "op", "op", op);
                b = editBuild(*leg.ed, tex, expected, tr, op);
            }
            sampler.watch(nullptr);
            Counters after = sample(*leg.ed->bx);
            r.attempted++;
            ops++;
            acc.add(before, after);
            if (tr.on()) {
                tr.counters(
                    "kernel", op,
                    {{"messages", static_cast<double>(
                                      after.ks.messagesSent -
                                      before.ks.messagesSent)},
                     {"syscalls", static_cast<double>(
                                      after.ks.syscallCount -
                                      before.ks.syscallCount)},
                     {"spawns", static_cast<double>(
                                    after.ks.processesSpawned -
                                    before.ks.processesSpawned)}});
            }
            if (!b.ok) {
                r.fail(std::string("latex: ") + leg.cls +
                       " build failed or main.pdf differs");
                continue;
            }
            r.ops[leg.cls].push_back(b.ms);
            if (!opt.trace)
                continue;
            (spans ? on_ops : off_ops)[leg.cls].push_back(b.ms);
            Build f;
            {
                Tracer::Scope s(tr, "replay.fast", "replay", op);
                f = editBuild(*leg.fast, tex, expected, tr, op);
            }
            if (!f.ok)
                r.fail("latex: fast-profile replay failed");
            modelled.push_back(b.ms - f.ms);
            host.push_back(f.ms);
            const double guest = std::string(leg.cls) == "sync"
                                     ? 3 * nat_typeset
                                     : emvm_ms[2];
            unattributed.push_back(f.ms - guest - nat_rest);
        }
    }
    tr.setPaused(false);
    // Builds completed per second of the whole phase: edits, the native
    // reference builds and the output checks included.
    r.info["ops_per_s"] =
        static_cast<double>(r.ops["sync"].size() + r.ops["async"].size()) /
        (static_cast<double>(nowUs() - phase0) / 1e6);

    acc.report(ops, r.layers);
    r.info["latex_native_ms"] = median(native_ms);
    if (opt.trace) {
        r.layers["jsvm.modelled_ms"] = mean(modelled);
        r.layers["jsvm.host_ms"] = mean(host);
        r.layers["emvm.typeset_ms.base"] = emvm_ms[0];
        r.layers["emvm.typeset_ms.fused"] = emvm_ms[1];
        r.layers["emvm.typeset_ms.trace"] = emvm_ms[2];
        r.layers["emvm.typeset_native_ms"] = mean(typeset_native);
        r.layers["emvm.traces_entered"] =
            static_cast<double>(trace_stats.tracesEntered);
        r.layers["emvm.trace_deopts"] =
            static_cast<double>(trace_stats.traceDeopts);
        r.layers["emvm.fused_dispatch_ratio"] =
            fused_retired ? static_cast<double>(fused_stats.fusedDispatches) /
                                static_cast<double>(fused_retired)
                          : 0;
        r.layers["bfs.tex_read_ms"] = mean(tex_read);
        r.layers["apps.latex_native_ms"] = mean(native_ms);
        r.layers["unattributed_ms"] = mean(unattributed);
        r.layers["sched.queue_depth_mean"] = sampler.mean();
        r.layers["sched.queue_depth_max"] = sampler.max();
        r.layers["trace_overhead_pct"] = overheadPct(on_ops, off_ops);
    }
    const double n_cold = static_cast<double>(colds);
    r.layers["bfs.http_fetches"] = static_cast<double>(cold_fetches) / n_cold;
    r.layers["bfs.bytes_fetched"] = static_cast<double>(cold_bytes) / n_cold;
    r.layers["bfs.cache_hit_share"] =
        cold_hits + cold_miss
            ? static_cast<double>(cold_hits) /
                  static_cast<double>(cold_hits + cold_miss)
            : 0;
    return r;
}

} // namespace e2e
} // namespace browsix
