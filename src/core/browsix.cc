#include "core/browsix.h"

#include "apps/coreutils/coreutils.h"
#include "apps/awfy/awfy.h"
#include "apps/emvm_programs.h"
#include "apps/meme/server.h"
#include "apps/registry.h"
#include "jsvm/util.h"
#include "runtime/emvm/vm.h"
#include "runtime/gopher/go_runtime.h"
#include "runtime/node/node_runtime.h"

namespace browsix {

kernel::Kernel::Bootstrapper
makeBootstrapper()
{
    return [](jsvm::WorkerScope &scope,
              std::shared_ptr<const std::vector<uint8_t>> code) {
        auto client = std::make_shared<rt::SyscallClient>(scope);
        // Anchor the client's lifetime to the worker.
        scope.atExit([client]() {});

        // Bytecode executable: full-fidelity Emterpreter.
        if (emvm::Image::isImage(code->data(), code->size())) {
            emvm::Image image;
            if (emvm::Image::deserialize(*code, image)) {
                rt::EmVmHost::boot(scope, client, std::move(image));
            } else {
                client->onInit([client](const rt::InitInfo &) {
                    client->post("exit", {jsvm::Value(126)});
                });
            }
            return;
        }

        // Compiled-JS bundle: resolve the program and its runtime.
        std::string name = apps::ProgramRegistry::programFromBundle(
            bfs::Buffer(code->begin(), code->end()));
        const apps::ProgramSpec *spec =
            apps::ProgramRegistry::instance().find(name);
        if (!spec) {
            client->onInit([client](const rt::InitInfo &) {
                client->post("exit", {jsvm::Value(126)}); // ENOEXEC-ish
            });
            return;
        }
        switch (spec->kind) {
          case apps::RuntimeKind::Node:
            rt::NodeRuntime::boot(scope, client);
            return;
          case apps::RuntimeKind::EmSync:
            rt::EmscriptenRuntime::boot(scope, client, spec->emMain,
                                        rt::EmMode::Sync,
                                        /*emterpreter=*/false);
            return;
          case apps::RuntimeKind::EmRing:
            rt::EmscriptenRuntime::boot(scope, client, spec->emMain,
                                        rt::EmMode::Ring,
                                        /*emterpreter=*/false);
            return;
          case apps::RuntimeKind::EmAsync:
            rt::EmscriptenRuntime::boot(scope, client, spec->emMain,
                                        rt::EmMode::AsyncEmterpreter,
                                        /*emterpreter=*/true);
            return;
          case apps::RuntimeKind::Gopher:
            rt::GoRuntime::boot(scope, client, spec->goMain);
            return;
        }
    };
}

Browsix::Browsix(BootConfig cfg)
{
    apps::registerAllPrograms();
    apps::registerCoreutils();

    browser_ = std::make_unique<jsvm::Browser>(cfg.profile);
    root_ = std::make_shared<bfs::InMemBackend>();
    vfs_ = std::make_shared<bfs::Vfs>();
    vfs_->mount("/", root_);

    stageSystem(cfg);

    if (cfg.texlive) {
        texStore_ = std::make_shared<bfs::HttpStore>();
        apps::populateTexliveStore(*texStore_);
        texCache_ = cfg.httpCache ? cfg.httpCache
                                  : std::make_shared<bfs::BrowserHttpCache>();
        texHttp_ = std::make_shared<bfs::HttpBackend>(
            texStore_, texCache_, &browser_->mainLoop(), cfg.texliveNet);
        // Browsix's lazy overlay (§3.6): each underlay file is fetched on
        // first access, so there is nothing to initialize.
        auto upper = std::make_shared<bfs::InMemBackend>();
        texOverlay_ = std::make_shared<bfs::OverlayBackend>(upper, texHttp_);
        vfs_->mount("/texlive", texOverlay_);
        apps::stageLatexProject(*root_, "/home");
    }
    if (cfg.memeAssets)
        apps::stageMemeAssets(*root_);

    net::NetBackendPtr net;
    if (cfg.simNet)
        net = std::make_shared<net::SimBackend>(&browser_->mainLoop(),
                                                cfg.simNetLink);
    kernel_ = std::make_unique<kernel::Kernel>(*browser_, vfs_,
                                               std::move(net));
    kernel_->setBootstrapper(makeBootstrapper());
}

Browsix::~Browsix()
{
    kernel_.reset();
    browser_.reset();
}

void
Browsix::stageSystem(const BootConfig &cfg)
{
    auto &reg = apps::ProgramRegistry::instance();
    auto &root = *root_;

    root.mkdirAll("/bin");
    root.mkdirAll("/usr/bin");
    root.mkdirAll("/tmp");
    root.mkdirAll("/home");

    // Bundles are shared with every other instance in the process; a
    // write to one copies it first (InMemBackend::writeFile(BufferPtr)).
    root.writeFile("/bin/dash", reg.sharedBundle("dash"));
    bool done = false;
    root.symlink("/bin/dash", "/bin/sh", [&done](int) { done = true; });
    root.writeFile("/usr/bin/make", reg.sharedBundle("make"));
    root.writeFile("/usr/bin/pdflatex",
                   reg.sharedBundle(cfg.pdflatexSync ? "pdflatex-sync"
                                                     : "pdflatex-emterp"));
    root.writeFile("/usr/bin/bibtex",
                   reg.sharedBundle(cfg.pdflatexSync ? "bibtex-sync"
                                                     : "bibtex-emterp"));
    root.writeFile("/usr/bin/node", reg.sharedBundle("node"));
    root.writeFile("/usr/bin/els", reg.sharedBundle("els"));
    root.writeFile("/usr/bin/ecat", reg.sharedBundle("ecat"));
    root.writeFile("/usr/bin/meme-server", reg.sharedBundle("meme-server"));
    root.writeFile("/usr/bin/meme-httpd", reg.sharedBundle("meme-httpd"));

    // Utilities: small scripts run by the node interpreter via shebang,
    // just as the paper stages them.
    for (const auto &util : rt::nodeUtilNames()) {
        root.writeFile("/usr/bin/" + util,
                       "#!/usr/bin/node\n//:node-util:" + util + "\n");
    }

    // Bytecode executables (Emterpreter demos).
    root.writeFile("/usr/bin/forktest", apps::forktestImageBytes());
    root.writeFile("/usr/bin/primes", apps::primesImageBytes());
    root.writeFile("/usr/bin/hello-em", apps::helloImageBytes());

    // AWFY macro kernels (bench/awfy.cc runs the same images in-VM).
    for (const auto &bench : apps::awfyBenches())
        root.writeFile("/usr/bin/awfy-" + bench.name,
                       apps::awfyImageBytes(bench.name));
}

bool
Browsix::runUntil(const std::function<bool()> &pred, int64_t timeout_ms)
{
    return browser_->runUntil(pred, timeout_ms);
}

RunResult
Browsix::runArgv(const std::vector<std::string> &argv, int64_t timeout_ms,
                 const std::string &stdin_data)
{
    RunResult result;
    bool exited = false;
    int spawn_err = 0;
    kernel_->spawnRoot(
        argv, kernel_->defaultEnv, "/",
        [&](int status) {
            result.status = status;
            exited = true;
        },
        [&](const bfs::Buffer &data) {
            result.out.append(data.begin(), data.end());
        },
        [&](const bfs::Buffer &data) {
            result.err.append(data.begin(), data.end());
        },
        [&](int rc) {
            if (rc < 0) {
                spawn_err = rc;
                exited = true;
            }
        },
        bfs::Buffer(stdin_data.begin(), stdin_data.end()));
    runUntil([&]() { return exited; }, timeout_ms);
    result.ok = exited && spawn_err == 0;
    if (spawn_err < 0)
        result.status = sys::statusFromExitCode(127);
    return result;
}

RunResult
Browsix::run(const std::string &cmd, int64_t timeout_ms,
             const std::string &stdin_data)
{
    return runArgv({"/bin/sh", "-c", cmd}, timeout_ms, stdin_data);
}

Browsix::XhrResult
Browsix::xhr(int port, const net::HttpRequest &req, int64_t timeout_ms)
{
    // All state is heap-held and shared with the connection callbacks:
    // the host-socket pump can deliver a (stale) EOF for this request
    // well after this function has returned.
    struct XhrState
    {
        net::HttpParser parser{net::HttpParser::Mode::Response};
        bool closed = false;
        int connectErr = 0;
        std::shared_ptr<kernel::Kernel::HostConn> conn;
    };
    auto st = std::make_shared<XhrState>();

    kernel_->connect(
        port,
        [st](const bfs::Buffer &data) { st->parser.feed(data); },
        [st]() { st->closed = true; },
        [st, &req](int err, std::shared_ptr<kernel::Kernel::HostConn> c) {
            if (err) {
                st->connectErr = err;
                st->closed = true;
                return;
            }
            st->conn = std::move(c);
            auto bytes = net::serializeRequest(req);
            st->conn->write(bfs::Buffer(bytes.begin(), bytes.end()));
        });

    bool done = runUntil(
        [st]() {
            return st->closed || st->parser.done() || st->parser.failed();
        },
        timeout_ms);
    if (st->conn)
        st->conn->close();
    XhrResult result;
    if (st->connectErr) {
        result.err = st->connectErr;
        return result;
    }
    if (!done || !st->parser.done()) {
        result.err = ETIMEDOUT;
        return result;
    }
    result.response = st->parser.response();
    return result;
}

bool
Browsix::waitForPort(int port, int64_t timeout_ms)
{
    bool listening = false;
    kernel_->onPortListen(port, [&listening]() { listening = true; });
    return runUntil([&]() { return listening; }, timeout_ms);
}

} // namespace browsix
