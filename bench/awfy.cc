/**
 * @file
 * AWFY-style macro suite for the emvm execution tiers. Each kernel
 * (sieve, nbody, richards, permute, json) runs through the base, fused,
 * and trace tiers at the same problem size; every run's checksum is
 * checked against the native C++ reference, so a tier that gets fast by
 * getting wrong fails the bench instead of flattering it.
 *
 * Emits per-kernel wall times (`awfy_<name>_<tier>_ms`), per-kernel and
 * geomean speedup ratios against base (`awfy_<name>_trace_vs_base`,
 * `awfy_geomean_trace_vs_base`, ...), and the aggregate
 * `emvm_fused_dispatch_ratio` — fused dispatches per original
 * instruction retired, i.e. how much of the stream superinstruction
 * fusion actually swallowed. The ratio metrics are gated by hard
 * ceilings in check_trajectory.py: the trace tier must keep its >=2x
 * geomean over base, and fusion must keep collapsing the dispatch
 * count, on every future PR.
 */
#include <cmath>
#include <cstdio>

#include "apps/awfy/awfy.h"
#include "bench/harness.h"
#include "runtime/emvm/vm.h"

using namespace browsix;
using namespace browsix::bench;

int
main()
{
    const emvm::Tier tiers[] = {emvm::Tier::Base, emvm::Tier::Fused,
                                emvm::Tier::Trace};
    bool ok = true;
    double logSumFused = 0, logSumTrace = 0;
    uint64_t fusedDispatches = 0, fusedRetired = 0;
    uint64_t tracesEntered = 0, traceDeopts = 0;
    int kernels = 0;

    std::printf("%-10s %12s %12s %12s %10s %10s\n", "kernel", "base ms",
                "fused ms", "trace ms", "fused/base", "trace/base");
    for (const auto &b : apps::awfyBenches()) {
        const int64_t n = smokeMode() ? b.smokeN : b.benchN;
        const int64_t want = b.native(n);
        const emvm::Image img = apps::awfyImage(b.name);
        // Deliberately NOT measure(): the smoke clamp (one un-warmed
        // iteration) is fine for metrics gated relatively, but the awfy
        // ratio metrics face hard ceilings. The smoke problem sizes are a
        // few milliseconds, so a host stall or speed drift that lands on
        // one tier's runs swings its ratio by half. So the tiers run in
        // interleaved rounds — base, fused and trace back to back, the
        // leading tier rotating — and each ratio is the median over
        // rounds of that round's tier/base time: a drift hits all three
        // tiers of a round alike, and a stall only a minority of rounds.
        // The whole smoke bench stays well under a second.
        const int rounds = 11;
        Series runs[3], vsBase[3];
        auto once = [&](int t, bool count) {
            emvm::Vm vm(img, tiers[t]);
            if (!vm.start("run", {n}) || vm.run() != emvm::RunState::Done ||
                vm.exitCode() != want) {
                std::fprintf(stderr,
                             "FAIL: %s on %s tier: got %lld want %lld "
                             "(%s)\n",
                             b.name.c_str(), emvm::tierName(tiers[t]),
                             static_cast<long long>(vm.exitCode()),
                             static_cast<long long>(want),
                             vm.trapMessage().c_str());
                ok = false;
            }
            if (!count)
                return;
            if (tiers[t] == emvm::Tier::Fused) {
                fusedDispatches += vm.stats().fusedDispatches;
                fusedRetired += vm.instructionsRetired();
            } else if (tiers[t] == emvm::Tier::Trace) {
                tracesEntered += vm.stats().tracesEntered;
                traceDeopts += vm.stats().traceDeopts;
            }
        };
        // Warmup; the counters come from this one run per tier, so they
        // do not scale with the round count.
        for (int t = 0; t < 3; t++)
            once(t, true);
        for (int r = 0; r < rounds; r++) {
            double round_ms[3];
            for (int k = 0; k < 3; k++) {
                int t = (r + k) % 3;
                round_ms[t] = timeMs([&] { once(t, false); });
                runs[t].add(round_ms[t]);
            }
            for (int t = 1; t < 3; t++)
                vsBase[t].add(round_ms[0] > 0 ? round_ms[t] / round_ms[0]
                                              : 1.0);
        }
        double ms[3];
        for (int t = 0; t < 3; t++) {
            ms[t] = runs[t].min();
            recordMetric("awfy",
                         "awfy_" + b.name + "_" +
                             emvm::tierName(tiers[t]) + "_ms",
                         ms[t], "ms");
        }
        double fusedRatio = vsBase[1].median();
        double traceRatio = vsBase[2].median();
        recordMetric("awfy", "awfy_" + b.name + "_fused_vs_base",
                     fusedRatio, "ratio");
        recordMetric("awfy", "awfy_" + b.name + "_trace_vs_base",
                     traceRatio, "ratio");
        logSumFused += std::log(fusedRatio);
        logSumTrace += std::log(traceRatio);
        kernels++;
        std::printf("%-10s %12.3f %12.3f %12.3f %9.2fx %9.2fx\n",
                    b.name.c_str(), ms[0], ms[1], ms[2], fusedRatio,
                    traceRatio);
    }

    const double geoFused = std::exp(logSumFused / kernels);
    const double geoTrace = std::exp(logSumTrace / kernels);
    const double dispatchRatio =
        fusedRetired ? static_cast<double>(fusedDispatches) / fusedRetired
                     : 1.0;
    std::printf("geomean fused/base %.3f, trace/base %.3f\n", geoFused,
                geoTrace);
    std::printf("fused dispatches per retired instruction: %.3f "
                "(traces entered %llu, deopts %llu)\n",
                dispatchRatio,
                static_cast<unsigned long long>(tracesEntered),
                static_cast<unsigned long long>(traceDeopts));
    recordMetric("awfy", "awfy_geomean_fused_vs_base", geoFused, "ratio");
    recordMetric("awfy", "awfy_geomean_trace_vs_base", geoTrace, "ratio");
    recordMetric("awfy", "emvm_fused_dispatch_ratio", dispatchRatio,
                 "ratio");
    recordMetric("awfy", "awfy_traces_entered",
                 static_cast<double>(tracesEntered), "count");
    recordMetric("awfy", "awfy_trace_deopts",
                 static_cast<double>(traceDeopts), "count");
    return ok ? 0 : 1;
}
