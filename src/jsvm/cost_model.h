/**
 * @file
 * The browser cost model: where the paper's numbers come from.
 *
 * Mechanisms (copying, queueing, waking) are implemented for real in this
 * substrate; engine costs that a 2016 browser adds on top are charged via
 * this model. Profiles are calibrated against the paper's measurements:
 *   - message passing is ~3 orders of magnitude slower than a syscall (§6);
 *   - Chrome serves the meme list request in ~9 ms vs Firefox ~6 ms (§5.2);
 *   - Node startup (bundle parse) dominates Figure 9's utility times.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace browsix {
namespace jsvm {

struct BrowserProfile
{
    std::string name;
    /// Fixed overhead charged per postMessage (sender side), microseconds.
    double postMessageUs = 0;
    /// Structured-clone copy cost per KiB transferred.
    double cloneUsPerKb = 0;
    /// Cost of constructing a Web Worker (thread + isolate + script
    /// evaluation; tens of ms for multi-MB bundles in 2016 browsers).
    /// Paid by the new worker before its first instruction, not by the
    /// context that called `new Worker()` (see workerBootUs).
    double workerSpawnUs = 0;
    /// Script parse/JIT cost per KiB of loaded bundle; paid, like
    /// workerSpawnUs, by the new worker before its first instruction.
    double parseUsPerKb = 0;
    /// JS-vs-native compute factor (informational; some code paths use
    /// genuine JS-semantics implementations instead).
    double jsComputeFactor = 1;
    /// Emterpreter-vs-asm.js factor for interpreted C code.
    double emterpreterFactor = 1;

    static const BrowserProfile &chrome2016();
    static const BrowserProfile &firefox2016();
    /// All-zero costs; used by unit tests and functional examples.
    static const BrowserProfile &fast();
};

/**
 * Charges simulated time. Short charges spin (accurate at the tens of
 * microseconds the message-path needs); long charges sleep.
 */
class CostModel
{
  public:
    explicit CostModel(BrowserProfile p) : profile_(std::move(p)) {}

    const BrowserProfile &profile() const { return profile_; }

    /** postMessage of a payload of the given structured-clone size. */
    void chargeMessage(size_t bytes) const;
    /**
     * Construction plus parse of a worker whose script bundle has the
     * given size: how long after `new Worker()` the worker's bootstrap
     * runs. Not a charge — the worker waits it out (worker.h), so the
     * creating context goes on at once, as in a browser.
     */
    int64_t workerBootUs(size_t bundle_bytes) const;
    /** Arbitrary engine-time charge in microseconds. */
    void charge(double us) const;

  private:
    BrowserProfile profile_;
};

} // namespace jsvm
} // namespace browsix
