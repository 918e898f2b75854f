#include "apps/registry.h"

#include "jsvm/util.h"

namespace browsix {
namespace apps {

namespace {
const std::string kMarker = "//:browsix-program:";
} // namespace

ProgramRegistry &
ProgramRegistry::instance()
{
    static ProgramRegistry registry;
    return registry;
}

void
ProgramRegistry::add(ProgramSpec spec)
{
    {
        std::lock_guard<std::mutex> lk(bundlesMutex_);
        bundles_.erase(spec.name);
    }
    specs_[spec.name] = std::move(spec);
}

const ProgramSpec *
ProgramRegistry::find(const std::string &name) const
{
    auto it = specs_.find(name);
    return it == specs_.end() ? nullptr : &it->second;
}

bfs::Buffer
ProgramRegistry::bundleFor(const std::string &name) const
{
    const ProgramSpec *spec = find(name);
    if (!spec)
        jsvm::panic("ProgramRegistry: unknown program " + name);
    std::string header = kMarker + name + "\n";
    bfs::Buffer out(header.begin(), header.end());
    // Pad to the bundle's size: worker creation charges a parse cost per
    // byte, so a 8 MB browser-node bundle really costs startup time.
    size_t target = spec->bundleKb * 1024;
    if (out.size() < target) {
        // Append whole pad lines ~64 KiB at a time: a boot stages ~22 MB
        // of bundles, too much to append 18 bytes per insert.
        std::string pad = "// bundle payload\n";
        while (pad.size() < 65536)
            pad += pad;
        while (out.size() < target) {
            size_t n = std::min(pad.size(), target - out.size());
            out.insert(out.end(), pad.begin(), pad.begin() + n);
        }
    }
    return out;
}

bfs::BufferPtr
ProgramRegistry::sharedBundle(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(bundlesMutex_);
    bfs::BufferPtr &bundle = bundles_[name];
    if (!bundle)
        bundle = std::make_shared<bfs::Buffer>(bundleFor(name));
    return bundle;
}

std::string
ProgramRegistry::programFromBundle(const bfs::Buffer &bytes)
{
    if (bytes.size() < kMarker.size())
        return "";
    if (!std::equal(kMarker.begin(), kMarker.end(), bytes.begin()))
        return "";
    std::string name;
    for (size_t i = kMarker.size(); i < bytes.size(); i++) {
        char c = static_cast<char>(bytes[i]);
        if (c == '\n' || c == '\r')
            break;
        name.push_back(c);
    }
    return name;
}

} // namespace apps
} // namespace browsix
