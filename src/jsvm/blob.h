/**
 * @file
 * Blob URL registry.
 *
 * The kernel spawns processes from files in the Browsix filesystem, which
 * have no server-side URL; like the paper (§3.3), it wraps the bytes in a
 * Blob, obtains a blob: URL, and constructs the Worker from that URL.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace browsix {
namespace jsvm {

class BlobRegistry
{
  public:
    using Data = std::shared_ptr<const std::vector<uint8_t>>;

    /**
     * Wrap bytes in a blob and return a unique blob: URL. The blob shares
     * the immutable bytes instead of copying them, so several URLs (a
     * forked child's and its parent's) can name one object; revoking one
     * URL leaves the others valid.
     */
    std::string createObjectUrl(Data bytes);

    /** Resolve a blob: URL; nullptr when unknown/revoked. */
    Data resolve(const std::string &url) const;

    /** Drop a blob: URL. */
    void revokeObjectUrl(const std::string &url);

  private:
    mutable std::mutex mutex_;
    uint64_t nextId_ = 1;
    std::map<std::string, Data> blobs_;
};

} // namespace jsvm
} // namespace browsix
