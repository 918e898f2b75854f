#include "jsvm/cost_model.h"

#include <chrono>
#include <thread>

#include "jsvm/test_clock.h"
#include "jsvm/util.h"

namespace browsix {
namespace jsvm {

const BrowserProfile &
BrowserProfile::chrome2016()
{
    static const BrowserProfile p{
        /*name=*/"chrome-2016",
        /*postMessageUs=*/450,
        /*cloneUsPerKb=*/5,
        /*workerSpawnUs=*/25000,
        /*parseUsPerKb=*/3.0,
        /*jsComputeFactor=*/8,
        /*emterpreterFactor=*/4,
    };
    return p;
}

const BrowserProfile &
BrowserProfile::firefox2016()
{
    static const BrowserProfile p{
        /*name=*/"firefox-2016",
        /*postMessageUs=*/300,
        /*cloneUsPerKb=*/4,
        /*workerSpawnUs=*/20000,
        /*parseUsPerKb=*/2.5,
        /*jsComputeFactor=*/9,
        /*emterpreterFactor=*/4.5,
    };
    return p;
}

const BrowserProfile &
BrowserProfile::fast()
{
    static const BrowserProfile p{/*name=*/"fast"};
    return p;
}

namespace {

// Spin for short charges (sleep granularity is too coarse below ~1 ms).
void
burn(double us)
{
    if (us <= 0)
        return;
    // Under a virtual clock, charge the cost as virtual time: spinning on
    // a frozen nowUs() would never terminate, and sleeping would make the
    // test wall-clock-dependent again.
    if (TestClock *c = TestClock::active()) {
        c->advanceUs(static_cast<int64_t>(us));
        return;
    }
    if (us < 1000) {
        int64_t end = nowUs() + static_cast<int64_t>(us);
        while (nowUs() < end) {
            // busy-wait; charges at this scale are tens of microseconds
        }
    } else {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(us)));
    }
}

} // namespace

void
CostModel::chargeMessage(size_t bytes) const
{
    burn(profile_.postMessageUs +
         profile_.cloneUsPerKb * (static_cast<double>(bytes) / 1024.0));
}

int64_t
CostModel::workerBootUs(size_t bundle_bytes) const
{
    return static_cast<int64_t>(
        profile_.workerSpawnUs +
        profile_.parseUsPerKb * (static_cast<double>(bundle_bytes) / 1024.0));
}

void
CostModel::charge(double us) const
{
    burn(us);
}

} // namespace jsvm
} // namespace browsix
