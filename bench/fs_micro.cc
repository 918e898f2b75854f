/**
 * @file
 * Filesystem ablation (§3.6): lazy vs eager overlay initialization.
 *
 * "BROWSIX modifies BrowserFS's overlay backend to lazily load files
 * from its read-only underlay; the original version eagerly read all
 * files ... upon initialization. BROWSIX's approach drastically improves
 * the startup time of the kernel [and] minimizes the amount of data
 * transferred over the network."
 *
 * Sweeps the size of the staged remote tree and reports kernel-startup
 * time and bytes transferred for both strategies, plus the first-access
 * latency lazy loading pays instead.
 *
 * Also sweeps the read path's data movement: pread through the historical
 * copying pipeline (backend allocates an intermediate bfs::Buffer, the
 * kernel memcpys it into the guest heap) against the zero-copy
 * preadInto pipeline (the backend fills the caller's window in place) at
 * 4 KiB / 64 KiB / 1 MiB.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include "apps/tex/tex.h"
#include "bench/harness.h"

using namespace browsix;
using namespace browsix::bench;

namespace {

struct Result
{
    double initMs;
    uint64_t bytes;
    uint64_t fetches;
};

Result
runInit(size_t n_files, bool lazy)
{
    auto store = std::make_shared<bfs::HttpStore>();
    for (size_t i = 0; i < n_files; i++) {
        store->put("/tree/pkg" + std::to_string(i) + ".sty",
                   std::string(2048 + (i % 5) * 1024, '%'));
    }
    auto cache = std::make_shared<bfs::BrowserHttpCache>();
    jsvm::EventLoop loop;
    auto http = std::make_shared<bfs::HttpBackend>(
        store, cache, &loop, bfs::NetworkParams{/*rttUs=*/2000,
                                                /*bytesPerUs=*/6.25});
    auto upper = std::make_shared<bfs::InMemBackend>();
    bfs::OverlayBackend overlay(upper, http,
                                bfs::OverlayBackend::Options(lazy));
    bool done = false;
    double ms = timeMs([&]() {
        overlay.initialize([&](int) { done = true; });
        while (!done)
            loop.pumpOne(true);
    });
    return Result{ms, http->bytesFetched(), http->fetchCount()};
}

/**
 * Per-op µs of `op` over `iters` calls: the best of three timed runs
 * after one untimed warm-up, so a cold cache or one descheduled moment
 * cannot skew a row. Every tier, smoke included, loops enough calls
 * that the µs clock resolves the per-op time well below 1 µs.
 */
double
bestPerOpUs(int iters, const std::function<void()> &op)
{
    auto run = [&]() {
        return timeMs([&]() {
            for (int i = 0; i < iters; i++)
                op();
        });
    };
    run();
    double best = run();
    for (int rep = 1; rep < 3; rep++)
        best = std::min(best, run());
    return best * 1000.0 / iters;
}

/** Calls per timed run for a data-movement row of the given size: about
 * 1 MiB moved per run at the smoke tier and 8 MiB at the full tier, and
 * never fewer than 16 calls. */
int
itersFor(size_t bytes)
{
    size_t budget = smokeMode() ? (1u << 20) : (8u << 20);
    return static_cast<int>(
        std::max<size_t>(16, budget / std::max<size_t>(bytes, 1)));
}

/** Per-op µs for one pread size: the copying path models the pre-zero-copy
 * kernel (backend Buffer + memcpy into the destination); the zero-copy
 * path is preadInto straight into the destination. */
void
preadSweep(size_t bytes, const std::string &label)
{
    auto mem = std::make_shared<bfs::InMemBackend>();
    mem->writeFile("/blob", makeBlob(bytes, 0x5eed));
    bfs::OpenFilePtr f;
    mem->open("/blob", bfs::flags::RDONLY, 0,
              [&](int, bfs::OpenFilePtr file) { f = std::move(file); });

    std::vector<uint8_t> dest(bytes);
    const int iters = itersFor(bytes);

    double copy_us = bestPerOpUs(iters, [&]() {
        f->pread(0, bytes, [&](int, bfs::BufferPtr data) {
            // What completeData used to do: bounce the intermediate
            // buffer into the caller's memory.
            std::memcpy(dest.data(), data->data(), data->size());
        });
    });
    double zero_us = bestPerOpUs(iters, [&]() {
        f->preadInto(0, bfs::ByteSpan{dest.data(), bytes},
                     [](int, size_t) {});
    });
    std::printf("%8s | %12.2f | %12.2f | %10.2fx\n", label.c_str(),
                copy_us, zero_us, zero_us > 0 ? copy_us / zero_us : 0);
    recordMetric("fs_micro", "pread_copy_" + label + "_us", copy_us);
    recordMetric("fs_micro", "pread_zerocopy_" + label + "_us", zero_us);
}

/** Per-op µs for one pwrite size: the copying path models the
 * pre-zero-copy kernel (argData materializes an intermediate bfs::Buffer
 * from the guest window, then pwrite); the zero-copy path hands the
 * window straight to pwriteFrom. */
void
pwriteSweep(size_t bytes, const std::string &label)
{
    auto mem = std::make_shared<bfs::InMemBackend>();
    mem->writeFile("/blob", makeBlob(bytes, 0x5eed));
    bfs::OpenFilePtr f;
    mem->open("/blob", bfs::flags::RDWR, 0,
              [&](int, bfs::OpenFilePtr file) { f = std::move(file); });

    std::vector<uint8_t> src = makeBlob(bytes, 0xbeef);
    const int iters = itersFor(bytes);

    double copy_us = bestPerOpUs(iters, [&]() {
        // What argData used to do: bounce the guest window through an
        // intermediate Buffer before the backend write.
        bfs::Buffer bounce(src.begin(), src.end());
        f->pwrite(0, bounce.data(), bounce.size(), [](int, size_t) {});
    });
    double zero_us = bestPerOpUs(iters, [&]() {
        f->pwriteFrom(0, bfs::ConstByteSpan{src.data(), bytes},
                      [](int, size_t) {});
    });
    std::printf("%8s | %12.2f | %12.2f | %10.2fx\n", label.c_str(),
                copy_us, zero_us, zero_us > 0 ? copy_us / zero_us : 0);
    recordMetric("fs_micro", "pwrite_copy_" + label + "_us", copy_us);
    recordMetric("fs_micro", "pwrite_zerocopy_" + label + "_us", zero_us);
}

/** Directory-listing data movement: getdents through the encoded-record
 * bounce (Buffer + memcpy into the destination) vs getdentsInto encoding
 * records straight into the caller's window. */
void
getdentsSweep()
{
    auto mem = std::make_shared<bfs::InMemBackend>();
    const int kEntries = 256;
    for (int i = 0; i < kEntries; i++)
        mem->writeFile("/dir/entry-" + std::to_string(i) + ".dat", "x");
    auto vfs = std::make_shared<bfs::Vfs>();
    vfs->mount("/", mem);

    const int iters = smokeMode() ? 64 : 2000;
    std::vector<uint8_t> dest(16 * 1024);

    double copy_us = bestPerOpUs(iters, [&]() {
        kernel::DirFile dir(vfs.get(), "/dir");
        for (;;) {
            size_t got = 0;
            dir.getdents(dest.size(), [&](int, bfs::BufferPtr data) {
                if (data && !data->empty()) {
                    std::memcpy(dest.data(), data->data(), data->size());
                    got = data->size();
                }
            });
            if (got == 0)
                break;
        }
    });
    double zero_us = bestPerOpUs(iters, [&]() {
        kernel::DirFile dir(vfs.get(), "/dir");
        for (;;) {
            size_t got = 0;
            dir.getdentsInto(bfs::ByteSpan{dest.data(), dest.size()},
                             [&](int, size_t n) { got = n; });
            if (got == 0)
                break;
        }
    });
    std::printf("\ngetdents (%d entries): bounce %0.2f us/listing, "
                "zero-copy %0.2f us/listing (%0.2fx)\n",
                kEntries, copy_us, zero_us,
                zero_us > 0 ? copy_us / zero_us : 0);
    recordMetric("fs_micro", "getdents_copy_us", copy_us);
    recordMetric("fs_micro", "getdents_zerocopy_us", zero_us);
}

} // namespace

int
main()
{
    std::printf("Overlay initialization: lazy (Browsix) vs eager "
                "(original BrowserFS)\nnetwork: 2 ms RTT per request, "
                "~50 Mbit/s\n\n");
    std::printf("%8s | %14s | %14s | %14s | %14s\n", "files",
                "lazy init ms", "lazy bytes", "eager init ms",
                "eager bytes");
    std::printf("---------+----------------+----------------+-----------"
                "-----+---------------\n");
    for (size_t n : {50u, 200u, 800u}) {
        Result lazy = runInit(n, true);
        Result eager = runInit(n, false);
        std::printf("%8zu | %14.2f | %14llu | %14.1f | %14llu\n", n,
                    lazy.initMs,
                    static_cast<unsigned long long>(lazy.bytes),
                    eager.initMs,
                    static_cast<unsigned long long>(eager.bytes));
        recordMetric("fs_micro",
                     "lazy_init_" + std::to_string(n) + "files_ms",
                     lazy.initMs, "ms");
        recordMetric("fs_micro",
                     "eager_init_" + std::to_string(n) + "files_ms",
                     eager.initMs, "ms");
    }

    // What laziness costs instead: the first access pays the fetch.
    auto store = std::make_shared<bfs::HttpStore>();
    store->put("/tree/one.sty", std::string(4096, '%'));
    auto cache = std::make_shared<bfs::BrowserHttpCache>();
    jsvm::EventLoop loop;
    auto http = std::make_shared<bfs::HttpBackend>(
        store, cache, &loop, bfs::NetworkParams{2000, 6.25});
    auto upper = std::make_shared<bfs::InMemBackend>();
    bfs::OverlayBackend overlay(upper, http,
                                bfs::OverlayBackend::Options(true));
    auto openOnce = [&]() {
        bool done = false;
        double ms = timeMs([&]() {
            overlay.open("/tree/one.sty", bfs::flags::RDONLY, 0,
                         [&](int, bfs::OpenFilePtr) { done = true; });
            while (!done)
                loop.pumpOne(true);
        });
        return ms;
    };
    double first = openOnce();
    double second = openOnce();
    std::printf("\nlazy first-access latency: %.2f ms (network); repeat "
                "access: %.3f ms (browser cache)\n",
                first, second);
    recordMetric("fs_micro", "lazy_first_access_ms", first, "ms");
    recordMetric("fs_micro", "lazy_repeat_access_ms", second, "ms");
    std::printf("\nConclusion (matches §3.6): eager startup scales with "
                "the whole distribution;\nlazy startup is constant and "
                "shifts a one-time per-file cost to first access.\n");

    std::printf("\npread data movement: copying pipeline (intermediate "
                "Buffer + memcpy) vs zero-copy preadInto\n\n");
    std::printf("%8s | %12s | %12s | %10s\n", "size", "copy us/op",
                "zerocopy us", "speedup");
    std::printf("---------+--------------+--------------+------------\n");
    preadSweep(4096, "4KiB");
    preadSweep(64 * 1024, "64KiB");
    preadSweep(1 << 20, "1MiB");

    std::printf("\npwrite data movement: copying pipeline (intermediate "
                "Buffer from the guest window) vs zero-copy pwriteFrom\n\n");
    std::printf("%8s | %12s | %12s | %10s\n", "size", "copy us/op",
                "zerocopy us", "speedup");
    std::printf("---------+--------------+--------------+------------\n");
    pwriteSweep(4096, "4KiB");
    pwriteSweep(64 * 1024, "64KiB");
    pwriteSweep(1 << 20, "1MiB");

    getdentsSweep();

    std::printf("\nThe win scales with payload size: past 64 KiB the "
                "intermediate buffer's\nallocate+copy dominates the "
                "per-call cost the ring already amortized away — now in "
                "both directions, and for directory listings.\n");
    return 0;
}
