/**
 * @file
 * Figure 2 reproduction: component size breakdown. The paper reports the
 * lines of code of each Browsix component; here the table is computed
 * from this repository's sources at run time and printed alongside the
 * paper's numbers. (Ours are larger: the paper's components sit on a
 * browser + BrowserFS + Emscripten/GopherJS/Node, all of which this
 * reproduction had to build as well.) Each row also goes to the bench
 * JSON as `loc_<key>` (unit `lines`), plus `loc_total`, so lines of code
 * per component are a tracked trajectory number. The rows cover all of
 * `src/`: the bench fails when their sum differs from a whole-tree
 * count, so a new directory cannot drop out of the table unnoticed.
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"

#ifndef BROWSIX_SRC_DIR
#define BROWSIX_SRC_DIR "."
#endif

namespace {

size_t
countLines(const std::filesystem::path &p)
{
    std::ifstream in(p);
    size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        n++;
    return n;
}

size_t
locOf(const std::string &subdir)
{
    namespace fs = std::filesystem;
    fs::path root = fs::path(BROWSIX_SRC_DIR) / subdir;
    size_t total = 0;
    if (!fs::exists(root))
        return 0;
    for (const auto &entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file())
            continue;
        auto ext = entry.path().extension();
        if (ext == ".cc" || ext == ".h" || ext == ".cpp")
            total += countLines(entry.path());
    }
    return total;
}

} // namespace

int
main()
{
    struct RowSpec
    {
        const char *component;
        const char *key; // JSON row name: loc_<key>
        std::vector<const char *> dirs;
        int paper_loc; // Figure 2 (TypeScript/JS lines), -1 if N/A
        const char *note;
    };
    const RowSpec rows[] = {
        {"Kernel", "kernel", {"src/kernel"}, 2249,
         "tasks, syscalls, pipes, sockets"},
        {"Filesystem (BrowserFS+mods)", "filesystem", {"src/bfs"}, 1231,
         "here: full FS incl. overlay/HTTP"},
        {"Shared syscall module", "syscall_module",
         {"src/runtime/syscall_proto.h", "src/runtime/syscall_proto.cc",
          "src/runtime/syscall_client.h", "src/runtime/syscall_client.cc",
          "src/runtime/syscall_ring.h", "src/runtime/syscall_ring.cc"},
         421, "conventions + client layer + ring"},
        {"Emscripten integration", "emscripten",
         {"src/runtime/emscripten", "src/runtime/emvm"}, 1557,
         "incl. the Emterpreter VM"},
        {"GopherJS integration", "gopherjs", {"src/runtime/gopher"}, 926,
         "goroutines, channels, int64"},
        {"Node.js integration", "node", {"src/runtime/node"}, 1742,
         "browser-node bindings"},
        {"Browser substrate", "browser_substrate", {"src/jsvm"}, -1,
         "(the browser itself: not in Fig.2)"},
        {"Applications", "apps", {"src/apps"}, -1,
         "(dash, make, TeX, coreutils, meme)"},
        {"Embedder API", "embedder_api", {"src/core"}, -1,
         "(§4.1 surface)"},
        {"Network stack", "net", {"src/net"}, -1,
         "(NetBackend, HTTP server)"},
    };

    std::printf("Figure 2: component lines of code (computed from this "
                "source tree)\n\n");
    std::printf("%-30s | %9s | %9s | %s\n", "component", "this repo",
                "paper", "notes");
    std::printf("-------------------------------+-----------+-----------+"
                "---------------------------\n");
    size_t total = 0;
    for (const auto &r : rows) {
        size_t loc = 0;
        for (const char *d : r.dirs) {
            std::filesystem::path p =
                std::filesystem::path(BROWSIX_SRC_DIR) / d;
            if (std::filesystem::is_regular_file(p))
                loc += countLines(p);
            else
                loc += locOf(d);
        }
        total += loc;
        browsix::bench::recordMetric("fig2_components",
                                     std::string("loc_") + r.key,
                                     static_cast<double>(loc), "lines");
        if (r.paper_loc >= 0)
            std::printf("%-30s | %9zu | %9d | %s\n", r.component, loc,
                        r.paper_loc, r.note);
        else
            std::printf("%-30s | %9zu | %9s | %s\n", r.component, loc,
                        "-", r.note);
    }
    std::printf("-------------------------------+-----------+-----------+"
                "---------------------------\n");
    std::printf("%-30s | %9zu | %9d |\n", "TOTAL", total, 8126);
    browsix::bench::recordMetric("fig2_components", "loc_total",
                                 static_cast<double>(total), "lines");
    std::printf("\n(The paper's 8,126 lines ride on an existing browser, "
                "BrowserFS, Emscripten,\nGopherJS and Node; this repo "
                "implements those substrates too, hence larger.)\n");
    size_t whole = locOf("src");
    if (total != whole) {
        std::fprintf(stderr,
                     "fig2_components: the rows sum to %zu lines but src/ "
                     "holds %zu; give every file under src/ a row\n",
                     total, whole);
        return 1;
    }
    return 0;
}
