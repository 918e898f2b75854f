/**
 * @file
 * The public Browsix API (§4.1 "Browser Environment Extensions"): what an
 * embedding web application sees. Boot a kernel over a configured
 * filesystem, run commands Figure-4 style, receive socket notifications,
 * and issue XMLHttpRequest-like calls to in-Browsix HTTP servers.
 *
 * Quickstart:
 *   browsix::BootConfig cfg;
 *   browsix::Browsix bx(cfg);
 *   auto r = bx.run("echo hello | wc");
 *   // r.status == 0, r.out == "1 1 6\n"
 */
#pragma once

#include <memory>
#include <string>

#include "apps/tex/tex.h"
#include "bfs/http_backend.h"
#include "bfs/inmem.h"
#include "bfs/overlay.h"
#include "bfs/vfs.h"
#include "jsvm/browser.h"
#include "kernel/kernel.h"
#include "net/http.h"
#include "net/netsim.h"

namespace browsix {

struct BootConfig
{
    /// Browser cost profile; Fast (zero-cost) for functional use/tests.
    jsvm::BrowserProfile profile = jsvm::BrowserProfile::fast();

    /// Mount the HTTP-backed TeX Live overlay at /texlive and stage a
    /// LaTeX project at /home (§2).
    bool texlive = false;
    bfs::NetworkParams texliveNet{/*rttUs=*/0, /*bytesPerUs=*/0};
    /// Browser HTTP cache; share one across Browsix instances to model
    /// a warm second visit.
    bfs::BrowserHttpCachePtr httpCache;

    /// Stage pdflatex/bibtex compiled for synchronous syscalls (Chrome)
    /// or the Emterpreter (everywhere) — the §3.2 compile-time choice.
    bool pdflatexSync = true;

    /// Stage the meme server's template images at /memes.
    bool memeAssets = false;

    /// Boot the kernel over net::SimBackend: every socket connection's
    /// bytes traverse a simNetLink-shaped simulated link in both
    /// directions (latency + bandwidth), instead of the zero-cost
    /// in-kernel loopback. The connection-scale HTTP bench uses this.
    bool simNet = false;
    net::LinkParams simNetLink = net::LinkParams::localhost();
};

/** Result of a synchronous Browsix::run. */
struct RunResult
{
    bool ok = false; ///< process ran to completion within the timeout
    int status = -1; ///< wait status (exit code via sys::wexitstatus)
    std::string out;
    std::string err;

    int exitCode() const { return sys::wexitstatus(status); }
};

class Browsix
{
  public:
    explicit Browsix(BootConfig cfg = BootConfig());
    ~Browsix();

    jsvm::Browser &browser() { return *browser_; }
    kernel::Kernel &kernel() { return *kernel_; }
    bfs::Vfs &fs() { return *vfs_; }
    bfs::InMemBackend &rootFs() { return *root_; }
    bfs::HttpBackend *texliveHttp() { return texHttp_.get(); }
    bfs::OverlayBackend *texliveOverlay() { return texOverlay_.get(); }

    /** Pump the main loop until pred() (the embedder's event loop). */
    bool runUntil(const std::function<bool()> &pred,
                  int64_t timeout_ms = 30000);

    /**
     * kernel.system + wait, synchronously: runs `/bin/sh -c cmd`,
     * capturing stdout/stderr (Figure 4's flow).
     */
    RunResult run(const std::string &cmd, int64_t timeout_ms = 30000,
                  const std::string &stdin_data = "");

    /** Spawn an executable directly (no shell). */
    RunResult runArgv(const std::vector<std::string> &argv,
                      int64_t timeout_ms = 30000,
                      const std::string &stdin_data = "");

    /** The XMLHttpRequest-like API (§4.1): issue an HTTP request to an
     * in-Browsix server and synchronously await the parsed response. */
    struct XhrResult
    {
        int err = 0; ///< errno-style (ECONNREFUSED, ETIMEDOUT)
        net::HttpResponse response;
    };
    XhrResult xhr(int port, const net::HttpRequest &req,
                  int64_t timeout_ms = 30000);

    /** §4.1 socket notification, blocking flavor: wait for a listener. */
    bool waitForPort(int port, int64_t timeout_ms = 30000);

  private:
    void stageSystem(const BootConfig &cfg);

    std::unique_ptr<jsvm::Browser> browser_;
    std::shared_ptr<bfs::InMemBackend> root_;
    bfs::VfsPtr vfs_;
    std::unique_ptr<kernel::Kernel> kernel_;

    bfs::HttpStorePtr texStore_;
    bfs::BrowserHttpCachePtr texCache_;
    std::shared_ptr<bfs::HttpBackend> texHttp_;
    std::shared_ptr<bfs::OverlayBackend> texOverlay_;
};

/** The worker bootstrap: maps executable bytes to the right runtime.
 * Installed automatically by Browsix; exposed for tests that drive the
 * kernel directly. */
kernel::Kernel::Bootstrapper makeBootstrapper();

} // namespace browsix
