/**
 * @file
 * Program registry: the catalogue of "compiled to JavaScript" executables.
 *
 * In the paper, each program (dash, make, pdflatex, the meme server…) is
 * compiled ahead of time to a JavaScript bundle staged in the filesystem;
 * the kernel spawns a worker from the bundle's bytes via a blob URL. Here
 * a bundle is a marker header naming a registered program plus padding
 * out to the real bundle's size — so worker boot pays a faithful
 * parse/JIT cost — and the worker bootstrap maps the name back to the
 * program's entry point and runtime kind.
 */
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "bfs/types.h"
#include "runtime/emscripten/em_runtime.h"
#include "runtime/gopher/go_runtime.h"

namespace browsix {
namespace apps {

enum class RuntimeKind {
    EmSync,    ///< Emscripten, asm.js + synchronous syscalls
    EmRing,    ///< Emscripten, asm.js + batched ring syscalls (io_uring)
    EmAsync,   ///< Emscripten, Emterpreter + asynchronous syscalls
    Gopher,    ///< GopherJS
    Node,      ///< browser-node (utilities resolved via the script file)
};

struct ProgramSpec
{
    std::string name;
    RuntimeKind kind = RuntimeKind::EmSync;
    size_t bundleKb = 64; ///< virtual size of the compiled JS bundle
    rt::EmProgramFn emMain;
    rt::GoProgramFn goMain;
};

class ProgramRegistry
{
  public:
    static ProgramRegistry &instance();

    void add(ProgramSpec spec);
    const ProgramSpec *find(const std::string &name) const;

    /** Executable file bytes for a registered program. */
    bfs::Buffer bundleFor(const std::string &name) const;
    /** The same bytes, built once per process and shared by every caller
     * (boot stages these, so instances do not each fill ~22 MB). */
    bfs::BufferPtr sharedBundle(const std::string &name) const;

    /** Extract the program name from bundle bytes ("" if not a bundle). */
    static std::string programFromBundle(const bfs::Buffer &bytes);

  private:
    std::map<std::string, ProgramSpec> specs_;
    mutable std::mutex bundlesMutex_;
    mutable std::map<std::string, bfs::BufferPtr> bundles_;
};

/** Register every built-in program (idempotent). */
void registerAllPrograms();

} // namespace apps
} // namespace browsix
