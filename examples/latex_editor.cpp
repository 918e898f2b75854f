/**
 * @file
 * The LaTeX editor case study (§2): an "editor" whose Build-PDF button
 * invokes `make` inside Browsix; pdflatex and bibtex read packages from
 * the lazily-fetched TeX Live tree and write the PDF into the shared
 * filesystem, with stdout/stderr streamed back to the application.
 *
 * Runs the build twice to show the browser-cache effect on the lazy
 * HTTP-backed filesystem (cold vs warm).
 */
#include <cstdio>

#include "core/browsix.h"
#include "jsvm/util.h"

using namespace browsix;

namespace {

void
buildPdf(Browsix &bx, const char *label)
{
    std::string console;
    bool exited = false;
    int status = 0;
    int64_t t0 = jsvm::nowUs();
    // Figure 4: kernel.system with exit/stdout/stderr callbacks.
    bx.kernel().system(
        "cd /home && /usr/bin/make",
        [&](int st) {
            status = st;
            exited = true;
        },
        [&](const bfs::Buffer &d) { console.append(d.begin(), d.end()); },
        [&](const bfs::Buffer &d) { console.append(d.begin(), d.end()); });
    bx.runUntil([&]() { return exited; }, 120000);
    double ms = (jsvm::nowUs() - t0) / 1000.0;

    std::printf("--- %s build: %.1f ms, exit %d ---\n", label, ms,
                sys::wexitstatus(status));
    std::printf("%s", console.c_str());
    if (sys::wexitstatus(status) == 0) {
        bfs::Buffer pdf;
        bx.fs().readFileSync("/home/main.pdf", pdf);
        std::printf("[editor] displaying main.pdf (%zu bytes)\n",
                    pdf.size());
    } else {
        std::printf("[editor] build failed; showing the log above\n");
    }
}

} // namespace

int
main()
{
    BootConfig cfg;
    cfg.texlive = true;
    // Model the TeX Live server across a real network so laziness and
    // caching matter (20 ms RTT, ~50 Mbit/s).
    cfg.texliveNet = bfs::NetworkParams{20000, 6.25};
    Browsix bx(cfg);

    std::printf("staged project: /home/main.tex, /home/main.bib, "
                "/home/Makefile\n\n");

    buildPdf(bx, "cold (packages fetched lazily over HTTP)");
    std::printf("\n[network] fetches=%llu bytes=%llu\n\n",
                static_cast<unsigned long long>(
                    bx.texliveHttp()->fetchCount()),
                static_cast<unsigned long long>(
                    bx.texliveHttp()->bytesFetched()));

    // Edit the document (the user types), then rebuild: make re-runs
    // pdflatex, but every package now comes from the browser cache.
    bx.run("cd /home && echo 'one more paragraph here' >> main.tex");
    uint64_t before = bx.texliveHttp()->fetchCount();
    buildPdf(bx, "warm (browser cache)");
    std::printf("\n[network] additional fetches=%llu\n",
                static_cast<unsigned long long>(
                    bx.texliveHttp()->fetchCount() - before));
    return 0;
}
