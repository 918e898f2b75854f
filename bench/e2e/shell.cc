/**
 * @file
 * Workload `shell`: one terminal user, closed loop (Figure 9 and the
 * terminal case study).
 *
 * Set-up boots Browsix and stages a seeded 1 MiB word file and a 256 KiB
 * blob. A fixed cycle of six commands then runs through `/bin/sh -c`:
 *   spawn    echo W | wc
 *   pipe     cat words | grep W | sort | tee /tmp/o.N | wc
 *   ls       ls -l /usr/bin            (node utility, one lstat per entry)
 *   els      els -l /usr/bin           (ring runtime, batched lstats)
 *   sha1sum  sha1sum /data/blob
 *   ecat     ecat words | wc           (ring runtime, vectored reads)
 * W is a seed-chosen word. Each stdout is compared with what the bench
 * computes in-process from the generated inputs, and tee's file too.
 */
#include <algorithm>

#include "apps/coreutils/sha1.h"
#include "bench/e2e/common.h"

namespace browsix {
namespace e2e {

namespace {

/// Terminals booted (and timed) per run; the last kColdOps of them also
/// run a cold command.
constexpr int kSetups = 31;
constexpr int kColdOps = 11;
constexpr size_t kWordsBytes = 1 << 20;
constexpr size_t kBlobBytes = 256 << 10;
constexpr int kVocab = 2048;
const char *const kWords = "/home/words";
const char *const kBlob = "/data/blob";

struct Inputs
{
    std::vector<std::string> vocab;
    std::string words; ///< lines of eight vocabulary words
    bfs::Buffer blob;
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    Rng rng(seed);
    // Random letters, 5–9 long: a word rarely occurs inside another, so
    // grep's match count depends on W's occurrences, not on its spelling.
    for (int i = 0; i < kVocab; i++) {
        std::string w;
        size_t len = 5 + rng.below(5);
        for (size_t j = 0; j < len; j++)
            w += static_cast<char>('a' + rng.below(26));
        in.vocab.push_back(w);
    }
    while (true) {
        std::string line;
        for (int i = 0; i < 8; i++)
            line += (i ? " " : "") + in.vocab[rng.below(kVocab)];
        line += "\n";
        if (in.words.size() + line.size() > kWordsBytes)
            break;
        in.words += line;
    }
    // Pad to exactly 1 MiB so every seed moves the same bytes.
    const size_t pad = kWordsBytes - in.words.size();
    if (pad > 0)
        in.words += std::string(pad - 1, 'z') + "\n";
    in.blob.resize(kBlobBytes);
    for (auto &b : in.blob)
        b = static_cast<uint8_t>(rng.next() >> 56);
    return in;
}

std::string
wc(const std::string &data)
{
    size_t lines = 0, words = 0;
    bool in_word = false;
    for (char c : data) {
        if (c == '\n')
            lines++;
        bool space = c == ' ' || c == '\n' || c == '\t' || c == '\r';
        if (!space && !in_word) {
            words++;
            in_word = true;
        } else if (space) {
            in_word = false;
        }
    }
    return std::to_string(lines) + " " + std::to_string(words) + " " +
           std::to_string(data.size()) + "\n";
}

std::unique_ptr<Browsix>
bootShell(const Inputs &in, const jsvm::BrowserProfile &profile)
{
    BootConfig cfg;
    cfg.profile = profile;
    auto bx = std::make_unique<Browsix>(cfg);
    bx->rootFs().mkdirAll("/data");
    bx->rootFs().writeFile(kWords, in.words);
    bx->rootFs().writeFile(kBlob, in.blob);
    return bx;
}

struct Command
{
    std::string cls;
    std::string cmd;
    std::string expected;
    std::string teePath; ///< file tee must have written, or ""
    std::string teeData;
};

/** The cycle's six commands for word w and cycle number n. */
std::vector<Command>
cycle(const Inputs &in, Browsix &bx, const std::string &w, uint64_t n)
{
    std::string matched;
    {
        std::vector<std::string> lines;
        size_t pos = 0;
        while (pos < in.words.size()) {
            size_t end = in.words.find('\n', pos);
            std::string l = in.words.substr(pos, end - pos);
            if (l.find(w) != std::string::npos)
                lines.push_back(l);
            pos = end + 1;
        }
        std::stable_sort(lines.begin(), lines.end());
        for (const auto &l : lines)
            matched += l + "\n";
    }
    size_t entries = 0;
    bx.fs().readdir("/usr/bin", [&](int err, std::vector<bfs::DirEntry> es) {
        entries = err ? 0 : es.size();
    });
    std::string listing = std::to_string(entries); // checked by line count
    const std::string tee = "/tmp/o." + std::to_string(n);
    return {
        {"spawn", "echo " + w + " | wc", wc(w + "\n"), "", ""},
        {"pipe",
         std::string("cat ") + kWords + " | grep " + w + " | sort | tee " +
             tee + " | wc",
         wc(matched), tee, matched},
        {"ls", "ls -l /usr/bin", listing, "", ""},
        {"els", "els -l /usr/bin", listing, "", ""},
        {"sha1sum", std::string("sha1sum ") + kBlob,
         apps::sha1Hex(apps::sha1Native(in.blob.data(), in.blob.size())) +
             "  " + kBlob + "\n",
         "", ""},
        {"ecat", std::string("ecat ") + kWords + " | wc", wc(in.words), "",
         ""},
    };
}

bool
check(Browsix &bx, const Command &c, const RunResult &res)
{
    if (!res.ok || res.exitCode() != 0)
        return false;
    if (c.cls == "ls" || c.cls == "els") {
        size_t lines = static_cast<size_t>(
            std::count(res.out.begin(), res.out.end(), '\n'));
        return std::to_string(lines) == c.expected;
    }
    if (res.out != c.expected)
        return false;
    if (c.teePath.empty())
        return true;
    bfs::Buffer data;
    return bx.fs().readFileSync(c.teePath, data) == 0 &&
           std::string(data.begin(), data.end()) == c.teeData;
}

} // namespace

Result
runShell(const Options &opt, Tracer &tr)
{
    Result r;
    const Inputs in = makeInputs(opt.seed);
    Rng rng(opt.seed ^ 0x5e11);
    const auto &chrome = jsvm::BrowserProfile::chrome2016();

    std::unique_ptr<Browsix> bx;
    const int setups = opt.smoke ? 1 : kSetups;
    const int colds = opt.smoke ? 1 : kColdOps;
    for (int k = 0; k < setups; k++) {
        // The previous terminal goes first: its exiting workers must not
        // run under the next boot's timer.
        bx.reset();
        int64_t t0 = nowUs();
        bx = bootShell(in, chrome);
        r.setupS.push_back(static_cast<double>(nowUs() - t0) / 1e6);
        if (k < setups - colds)
            continue;
        // Cold operation: the first command a fresh terminal runs.
        const Command first =
            cycle(in, *bx, in.vocab[rng.below(kVocab)], 0)[0];
        r.attempted++;
        int64_t c0 = nowUs();
        RunResult res = bx->run(first.cmd, 120000);
        double ms = static_cast<double>(nowUs() - c0) / 1000.0;
        if (check(*bx, first, res))
            r.coldMs.push_back(ms);
        else
            r.fail("shell: cold `" + first.cmd + "` output differs");
    }
    std::unique_ptr<Browsix> fast;
    if (opt.trace)
        fast = bootShell(in, jsvm::BrowserProfile::fast());
    QueueSampler sampler(opt.trace);

    LayerAcc acc;
    uint64_t ops = 0, op_id = 0;
    std::vector<double> modelled, host;
    ClassSamples on_ops, off_ops;
    uint64_t completed = 0;
    const int64_t phase0 = nowUs();
    const int64_t deadline =
        phase0 + static_cast<int64_t>(opt.seconds * 1e6);
    for (uint64_t n = 1; n == 1 || (!opt.smoke && nowUs() < deadline); n++) {
        const std::string w = in.vocab[rng.below(kVocab)];
        const bool spans = opt.trace && n % 2 == 0;
        tr.setPaused(!spans);
        for (const Command &c : cycle(in, *bx, w, n)) {
            const uint64_t op = ++op_id;
            Counters before = sample(*bx);
            sampler.watch(spans ? &bx->kernel().scheduler() : nullptr);
            RunResult res;
            int64_t t0 = nowUs();
            {
                Tracer::Scope s(tr, "op", "op", op);
                Tracer::Scope run(tr, "Browsix::run", "core", op);
                res = bx->run(c.cmd, 120000);
            }
            double ms = static_cast<double>(nowUs() - t0) / 1000.0;
            sampler.watch(nullptr);
            Counters after = sample(*bx);
            r.attempted++;
            ops++;
            acc.add(before, after);
            if (tr.on())
                tr.counters("kernel", op,
                            {{"messages",
                              static_cast<double>(after.ks.messagesSent -
                                                  before.ks.messagesSent)},
                             {"syscalls",
                              static_cast<double>(after.ks.syscallCount -
                                                  before.ks.syscallCount)}});
            if (!check(*bx, c, res)) {
                r.fail("shell: `" + c.cmd + "` output differs");
                continue;
            }
            r.ops[c.cls].push_back(ms);
            completed++;
            if (!opt.trace)
                continue;
            (spans ? on_ops : off_ops)[c.cls].push_back(ms);
            int64_t f0 = nowUs();
            RunResult fres;
            {
                Tracer::Scope s(tr, "replay.fast", "replay", op);
                fres = fast->run(c.cmd, 120000);
            }
            double fms = static_cast<double>(nowUs() - f0) / 1000.0;
            if (!check(*fast, c, fres))
                r.fail("shell: fast-profile replay of `" + c.cmd +
                       "` differs");
            modelled.push_back(ms - fms);
            host.push_back(fms);
        }
    }
    tr.setPaused(false);
    // Commands completed per second of the whole phase, the bench's own
    // expected-output computation and checks included.
    r.info["ops_per_s"] = static_cast<double>(completed) /
                          (static_cast<double>(nowUs() - phase0) / 1e6);

    acc.report(ops, r.layers);
    if (opt.trace) {
        r.layers["jsvm.modelled_ms"] = mean(modelled);
        r.layers["jsvm.host_ms"] = mean(host);
        // No guest compute or native floor here: what the zero-cost
        // replay still spends is unattributed.
        r.layers["unattributed_ms"] = mean(host);
        r.layers["sched.queue_depth_mean"] = sampler.mean();
        r.layers["sched.queue_depth_max"] = sampler.max();
        r.layers["trace_overhead_pct"] = overheadPct(on_ops, off_ops);
    }
    return r;
}

} // namespace e2e
} // namespace browsix
