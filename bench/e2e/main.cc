/**
 * @file
 * browsix_e2e: one workload of the end-to-end benchmark per process.
 *
 *   browsix_e2e --workload latex|shell|http --seed N --seconds S
 *               [--trace --trace-out FILE] [--smoke]
 *
 * Prints one JSON object on stdout holding every raw sample (set-up
 * times, per-class operation latencies, open-loop steps, per-layer rows,
 * output-check failures). bench/e2e/run.py builds this binary, runs it and
 * reduces the samples to the metrics BENCHMARK.json names. Progress goes
 * to stderr. The exit code is 0 even when an output check failed: the
 * failure is data (`failed`), and run.py decides.
 */
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench/e2e/common.h"

using namespace browsix;
using namespace browsix::e2e;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: browsix_e2e --workload latex|shell|http --seed N "
                 "--seconds S [--trace --trace-out FILE] [--smoke]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto val = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--workload" && (v = val()))
            opt.workload = v;
        else if (a == "--seed" && (v = val()))
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds" && (v = val()))
            opt.seconds = std::atof(v);
        else if (a == "--trace-out" && (v = val()))
            opt.traceOut = v;
        else if (a == "--trace")
            opt.trace = true;
        else if (a == "--smoke")
            opt.smoke = true;
        else
            return usage();
    }
    if (opt.seconds <= 0)
        return usage();

    Tracer tracer(opt.trace);
    Result r;
    if (opt.workload == "latex")
        r = runLatex(opt, tracer);
    else if (opt.workload == "shell")
        r = runShell(opt, tracer);
    else if (opt.workload == "http")
        r = runHttp(opt, tracer);
    else
        return usage();

    zeroLayers(r.layers);
    if (opt.trace && !opt.traceOut.empty() &&
        !tracer.write(opt.traceOut)) {
        std::fprintf(stderr, "browsix_e2e: cannot write %s\n",
                     opt.traceOut.c_str());
        return 1;
    }
    std::cout << toJson(opt, r) << std::endl;
    return 0;
}
