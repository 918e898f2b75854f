#include "runtime/emvm/vm.h"

#include <cstring>

#include "jsvm/fiber.h"
#include "jsvm/util.h"
#include "runtime/emvm/tier.h"

namespace browsix {
namespace emvm {

namespace {

constexpr char kMagic[] = "BSXBC1\n";
constexpr size_t kMagicLen = 7;

void
put32(std::vector<uint8_t> &out, uint32_t v)
{
    size_t n = out.size();
    out.resize(n + 4);
    std::memcpy(out.data() + n, &v, 4);
}

void
put64(std::vector<uint8_t> &out, uint64_t v)
{
    size_t n = out.size();
    out.resize(n + 8);
    std::memcpy(out.data() + n, &v, 8);
}

struct Reader
{
    const uint8_t *p;
    size_t len;
    size_t off = 0;
    bool ok = true;

    uint32_t u32()
    {
        if (off + 4 > len) {
            ok = false;
            return 0;
        }
        uint32_t v;
        std::memcpy(&v, p + off, 4);
        off += 4;
        return v;
    }
    uint64_t u64()
    {
        if (off + 8 > len) {
            ok = false;
            return 0;
        }
        uint64_t v;
        std::memcpy(&v, p + off, 8);
        off += 8;
        return v;
    }
    std::string str()
    {
        uint32_t n = u32();
        if (!ok || off + n > len) {
            ok = false;
            return "";
        }
        std::string s(reinterpret_cast<const char *>(p + off), n);
        off += n;
        return s;
    }
    bool bytes(uint8_t *dst, size_t n)
    {
        if (off + n > len) {
            ok = false;
            return false;
        }
        std::memcpy(dst, p + off, n);
        off += n;
        return true;
    }
};

} // namespace

int
Image::functionIndex(const std::string &name) const
{
    for (size_t i = 0; i < functions.size(); i++) {
        if (functions[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

bool
Image::validate(std::string *err) const
{
    auto fail = [&](const std::string &m) {
        if (err)
            *err = m;
        return false;
    };
    for (const auto &f : functions) {
        const uint64_t n = f.code.size();
        for (size_t i = 0; i < n; i++) {
            const Instr &ins = f.code[i];
            if (static_cast<uint8_t>(ins.op) > static_cast<uint8_t>(Op::HALT))
                return fail("illegal opcode in " + f.name);
            switch (ins.op) {
              case Op::JMP:
              case Op::JZ:
              case Op::JNZ:
                // The interpreter truncates targets to uint32; a target
                // that truncates into range would silently change
                // behavior, so reject anything not literally in range.
                if (ins.imm < 0 || static_cast<uint64_t>(ins.imm) >= n)
                    return fail("jump target out of range in " + f.name);
                break;
              case Op::CALL:
                if (ins.imm < 0 ||
                    static_cast<uint64_t>(ins.imm) >= functions.size())
                    return fail("CALL target out of range in " + f.name);
                break;
              case Op::SYSCALL:
                if (ins.imm < 0 || ins.imm > 6)
                    return fail("SYSCALL arity out of range in " + f.name);
                break;
              default:
                break;
            }
        }
    }
    return true;
}

std::vector<uint8_t>
Image::serialize() const
{
    std::string err;
    if (!validate(&err))
        jsvm::panic("Image::serialize: invalid image: " + err);
    std::vector<uint8_t> out(kMagic, kMagic + kMagicLen);
    put32(out, static_cast<uint32_t>(functions.size()));
    for (const auto &f : functions) {
        put32(out, static_cast<uint32_t>(f.name.size()));
        out.insert(out.end(), f.name.begin(), f.name.end());
        put32(out, f.nargs);
        put32(out, f.nlocals);
        put32(out, static_cast<uint32_t>(f.code.size()));
        for (const auto &ins : f.code) {
            out.push_back(static_cast<uint8_t>(ins.op));
            put64(out, static_cast<uint64_t>(ins.imm));
        }
    }
    put32(out, memSize);
    put32(out, static_cast<uint32_t>(initData.size()));
    out.insert(out.end(), initData.begin(), initData.end());
    return out;
}

bool
Image::isImage(const uint8_t *data, size_t len)
{
    return len >= kMagicLen && std::memcmp(data, kMagic, kMagicLen) == 0;
}

bool
Image::deserialize(const std::vector<uint8_t> &bytes, Image &out)
{
    if (!isImage(bytes.data(), bytes.size()))
        return false;
    Reader r{bytes.data(), bytes.size(), kMagicLen};
    uint32_t nfn = r.u32();
    if (nfn > 4096)
        return false;
    out.functions.clear();
    for (uint32_t i = 0; i < nfn && r.ok; i++) {
        Function f;
        f.name = r.str();
        f.nargs = r.u32();
        f.nlocals = r.u32();
        uint32_t n = r.u32();
        if (!r.ok || n > 1u << 22)
            return false;
        f.code.resize(n);
        for (uint32_t j = 0; j < n && r.ok; j++) {
            if (r.off >= r.len) {
                r.ok = false;
                break;
            }
            f.code[j].op = static_cast<Op>(r.p[r.off++]);
            f.code[j].imm = static_cast<int64_t>(r.u64());
        }
        out.functions.push_back(std::move(f));
    }
    out.memSize = r.u32();
    uint32_t dlen = r.u32();
    if (!r.ok || dlen > (64u << 20))
        return false;
    out.initData.resize(dlen);
    if (dlen && !r.bytes(out.initData.data(), dlen))
        return false;
    // Hostile-image parity with the ring's SQE validation: structurally
    // intact but semantically bogus images (wild jumps, CALLs to nowhere)
    // are rejected at load time, not left to fault mid-run.
    return r.ok && out.validate();
}

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Base: return "base";
      case Tier::Fused: return "fused";
      case Tier::Trace: return "trace";
    }
    return "?";
}

Vm::Vm(Image image, Tier tier) : image_(std::move(image)), tier_(tier)
{
    mem_.assign(std::max<uint32_t>(image_.memSize, 64), 0);
    if (!image_.initData.empty()) {
        size_t n = std::min(image_.initData.size(), mem_.size());
        std::memcpy(mem_.data(), image_.initData.data(), n);
    }
}

// Out of line: ~Vm must see the complete TransFn (tier.h).
Vm::~Vm() = default;

TransFn &
Vm::transFor(uint32_t fnIdx)
{
    if (tfns_.size() < image_.functions.size())
        tfns_.resize(image_.functions.size());
    auto &slot = tfns_[fnIdx];
    if (!slot)
        slot = translateFunction(image_.functions[fnIdx]);
    return *slot;
}

bool
Vm::start(const std::string &name, const std::vector<int64_t> &args)
{
    int fn = image_.functionIndex(name);
    if (fn < 0)
        return false;
    const Function &f = image_.functions[fn];
    Frame frame;
    frame.fn = static_cast<uint32_t>(fn);
    frame.pc = 0;
    frame.locals.assign(std::max<uint32_t>(f.nlocals, f.nargs), 0);
    for (size_t i = 0; i < args.size() && i < frame.locals.size(); i++)
        frame.locals[i] = args[i];
    frames_.clear();
    stack_.clear();
    frames_.push_back(std::move(frame));
    running_ = true;
    awaitingSyscall_ = false;
    return true;
}

RunState
Vm::fault(const std::string &msg)
{
    trapMsg_ = msg;
    running_ = false;
    return RunState::Trapped;
}

void
Vm::resume(int64_t syscall_result)
{
    if (!awaitingSyscall_)
        jsvm::panic("Vm::resume without pending syscall");
    awaitingSyscall_ = false;
    stack_.push_back(syscall_result);
}

std::string
Vm::memStr(uint64_t addr) const
{
    std::string out;
    while (addr < mem_.size() && mem_[addr] != 0)
        out.push_back(static_cast<char>(mem_[addr++]));
    return out;
}

bool
Vm::memWrite(uint64_t addr, const uint8_t *data, size_t len)
{
    if (addr + len > mem_.size())
        return false;
    std::memcpy(mem_.data() + addr, data, len);
    return true;
}

bool
Vm::memRead(uint64_t addr, uint8_t *out, size_t len) const
{
    if (addr + len > mem_.size())
        return false;
    std::memcpy(out, mem_.data() + addr, len);
    return true;
}

RunState
Vm::run(jsvm::InterruptToken *token)
{
    if (awaitingSyscall_)
        jsvm::panic("Vm::run while awaiting a syscall result");
    if (!running_ || frames_.empty())
        return fault("vm not started");

    if (tier_ == Tier::Base) {
        int check = 0;
        return runBase(token, false, nullptr, check);
    }
    return runFused(token);
}

RunState
Vm::runBase(jsvm::InterruptToken *token, bool stopAtLeader,
            bool *reachedLeader, int &check)
{
    auto pop = [this](int64_t &v) -> bool {
        if (stack_.empty())
            return false;
        v = stack_.back();
        stack_.pop_back();
        return true;
    };

    for (;;) {
        if (stopAtLeader) {
            // Honoring a snapshot whose pc points into a superinstruction
            // interior: single-step base semantics until the pc is once
            // again addressable in the fused stream.
            Frame &fr = frames_.back();
            TransFn &tf = transFor(fr.fn);
            if (fr.pc >= tf.fusedOfOrig.size() ||
                tf.fusedOfOrig[fr.pc] >= 0) {
                *reachedLeader = true;
                return RunState::Done; // caller resumes fused dispatch
            }
        }
        if (++check >= 4096) {
            check = 0;
            if (token && token->interrupted())
                throw jsvm::WorkerTerminated{};
            // Pooled execution: a time-slice boundary. The fiber gives its
            // pool thread up once its host-time quantum is spent, so a
            // compute-bound guest cannot monopolize it.
            jsvm::Fiber::maybeYield();
        }
        Frame &fr = frames_.back();
        const Function &fn = image_.functions[fr.fn];
        if (fr.pc >= fn.code.size())
            return fault("pc out of range in " + fn.name);
        const Instr ins = fn.code[fr.pc++];
        retired_++;

        int64_t a, b;
        switch (ins.op) {
          case Op::NOP:
            break;
          case Op::PUSH:
            stack_.push_back(ins.imm);
            break;
          case Op::DUP:
            if (stack_.empty())
                return fault("DUP on empty stack");
            stack_.push_back(stack_.back());
            break;
          case Op::POP:
            if (!pop(a))
                return fault("POP on empty stack");
            break;
          case Op::SWAP:
            if (stack_.size() < 2)
                return fault("SWAP underflow");
            std::swap(stack_[stack_.size() - 1], stack_[stack_.size() - 2]);
            break;
          case Op::LOADL:
            if (ins.imm < 0 ||
                static_cast<size_t>(ins.imm) >= fr.locals.size())
                return fault("LOADL out of range");
            stack_.push_back(fr.locals[ins.imm]);
            break;
          case Op::STOREL:
            if (ins.imm < 0 ||
                static_cast<size_t>(ins.imm) >= fr.locals.size())
                return fault("STOREL out of range");
            if (!pop(a))
                return fault("STOREL underflow");
            fr.locals[ins.imm] = a;
            break;
          case Op::LOAD8:
            if (!pop(a))
                return fault("LOAD8 underflow");
            if (a < 0 || static_cast<size_t>(a) >= mem_.size())
                return fault("LOAD8 out of bounds");
            stack_.push_back(mem_[a]);
            break;
          case Op::LOAD32: {
            if (!pop(a))
                return fault("LOAD32 underflow");
            if (a < 0 || static_cast<size_t>(a) + 4 > mem_.size())
                return fault("LOAD32 out of bounds");
            int32_t v;
            std::memcpy(&v, mem_.data() + a, 4);
            stack_.push_back(v);
            break;
          }
          case Op::LOAD64: {
            if (!pop(a))
                return fault("LOAD64 underflow");
            if (a < 0 || static_cast<size_t>(a) + 8 > mem_.size())
                return fault("LOAD64 out of bounds");
            int64_t v;
            std::memcpy(&v, mem_.data() + a, 8);
            stack_.push_back(v);
            break;
          }
          case Op::STORE8:
            if (!pop(b) || !pop(a))
                return fault("STORE8 underflow");
            if (a < 0 || static_cast<size_t>(a) >= mem_.size())
                return fault("STORE8 out of bounds");
            mem_[a] = static_cast<uint8_t>(b);
            break;
          case Op::STORE32: {
            if (!pop(b) || !pop(a))
                return fault("STORE32 underflow");
            if (a < 0 || static_cast<size_t>(a) + 4 > mem_.size())
                return fault("STORE32 out of bounds");
            int32_t v = static_cast<int32_t>(b);
            std::memcpy(mem_.data() + a, &v, 4);
            break;
          }
          case Op::STORE64:
            if (!pop(b) || !pop(a))
                return fault("STORE64 underflow");
            if (a < 0 || static_cast<size_t>(a) + 8 > mem_.size())
                return fault("STORE64 out of bounds");
            std::memcpy(mem_.data() + a, &b, 8);
            break;

#define BINOP(name, expr)                                                  \
  case Op::name:                                                           \
    if (!pop(b) || !pop(a))                                                \
        return fault(#name " underflow");                                  \
    stack_.push_back(expr);                                                \
    break;
          // Arithmetic wraps mod 2^64 (JS-engine semantics): compute in
          // uint64_t, where overflow is defined, and cast back.
          BINOP(ADD, static_cast<int64_t>(static_cast<uint64_t>(a) +
                                          static_cast<uint64_t>(b)))
          BINOP(SUB, static_cast<int64_t>(static_cast<uint64_t>(a) -
                                          static_cast<uint64_t>(b)))
          BINOP(MUL, static_cast<int64_t>(static_cast<uint64_t>(a) *
                                          static_cast<uint64_t>(b)))
          BINOP(AND, a & b)
          BINOP(OR, a | b)
          BINOP(XOR, a ^ b)
          BINOP(SHL, static_cast<int64_t>(static_cast<uint64_t>(a)
                                          << (b & 63)))
          BINOP(SHR, static_cast<int64_t>(static_cast<uint64_t>(a) >>
                                          (b & 63)))
          BINOP(EQ, a == b ? 1 : 0)
          BINOP(NE, a != b ? 1 : 0)
          BINOP(LT, a < b ? 1 : 0)
          BINOP(LE, a <= b ? 1 : 0)
          BINOP(GT, a > b ? 1 : 0)
          BINOP(GE, a >= b ? 1 : 0)
#undef BINOP
          case Op::DIVS:
            if (!pop(b) || !pop(a))
                return fault("DIVS underflow");
            if (b == 0)
                return fault("division by zero");
            // INT64_MIN / -1 overflows; wrap like the multiply does.
            stack_.push_back(b == -1 ? static_cast<int64_t>(
                                           -static_cast<uint64_t>(a))
                                     : a / b);
            break;
          case Op::MODS:
            if (!pop(b) || !pop(a))
                return fault("MODS underflow");
            if (b == 0)
                return fault("modulo by zero");
            stack_.push_back(b == -1 ? 0 : a % b);
            break;

          case Op::JMP:
            fr.pc = static_cast<uint32_t>(ins.imm);
            break;
          case Op::JZ:
            if (!pop(a))
                return fault("JZ underflow");
            if (a == 0)
                fr.pc = static_cast<uint32_t>(ins.imm);
            break;
          case Op::JNZ:
            if (!pop(a))
                return fault("JNZ underflow");
            if (a != 0)
                fr.pc = static_cast<uint32_t>(ins.imm);
            break;

          case Op::CALL: {
            if (ins.imm < 0 ||
                static_cast<size_t>(ins.imm) >= image_.functions.size())
                return fault("CALL out of range");
            const Function &callee = image_.functions[ins.imm];
            if (stack_.size() < callee.nargs)
                return fault("CALL arg underflow");
            Frame nf;
            nf.fn = static_cast<uint32_t>(ins.imm);
            nf.pc = 0;
            nf.locals.assign(
                std::max(callee.nlocals, callee.nargs), 0);
            for (uint32_t i = 0; i < callee.nargs; i++) {
                nf.locals[callee.nargs - 1 - i] = stack_.back();
                stack_.pop_back();
            }
            if (frames_.size() > 1024)
                return fault("call stack overflow");
            frames_.push_back(std::move(nf));
            break;
          }
          case Op::RET: {
            if (!pop(a))
                return fault("RET underflow");
            frames_.pop_back();
            if (frames_.empty()) {
                exitCode_ = a;
                running_ = false;
                return RunState::Done;
            }
            stack_.push_back(a);
            break;
          }

          case Op::SYSCALL: {
            int nargs = static_cast<int>(ins.imm);
            if (static_cast<int>(stack_.size()) < nargs + 1)
                return fault("SYSCALL underflow");
            pendingArgs_.assign(nargs, 0);
            for (int i = nargs - 1; i >= 0; i--) {
                pendingArgs_[i] = stack_.back();
                stack_.pop_back();
            }
            pendingTrap_ = static_cast<int>(stack_.back());
            stack_.pop_back();
            awaitingSyscall_ = true;
            return RunState::Syscall;
          }

          case Op::HALT:
            if (!pop(a))
                return fault("HALT underflow");
            exitCode_ = a;
            running_ = false;
            return RunState::Done;

          default:
            return fault("illegal opcode");
        }
    }
}

namespace {

int64_t
cmpApply(Op c, int64_t x, int64_t y)
{
    switch (c) {
      case Op::EQ: return x == y ? 1 : 0;
      case Op::NE: return x != y ? 1 : 0;
      case Op::LT: return x < y ? 1 : 0;
      case Op::LE: return x <= y ? 1 : 0;
      case Op::GT: return x > y ? 1 : 0;
      case Op::GE: return x >= y ? 1 : 0;
      default: return 0;
    }
}

/** Evaluate a fused *_BIN_SL binop: the isPureBin set, wrap-mod-2^64. */
int64_t
binApply(Op op, int64_t x, int64_t y)
{
    switch (op) {
      case Op::ADD:
        return static_cast<int64_t>(static_cast<uint64_t>(x) +
                                    static_cast<uint64_t>(y));
      case Op::SUB:
        return static_cast<int64_t>(static_cast<uint64_t>(x) -
                                    static_cast<uint64_t>(y));
      case Op::MUL:
        return static_cast<int64_t>(static_cast<uint64_t>(x) *
                                    static_cast<uint64_t>(y));
      case Op::AND: return x & y;
      case Op::OR: return x | y;
      case Op::XOR: return x ^ y;
      case Op::SHL:
        return static_cast<int64_t>(static_cast<uint64_t>(x) << (y & 63));
      case Op::SHR:
        return static_cast<int64_t>(static_cast<uint64_t>(x) >> (y & 63));
      default: return cmpApply(op, x, y);
    }
}

/** Evaluate the kind operand of a peephole-fused trace op. */
int64_t
tbinApply(TOpc k, int64_t x, int64_t y)
{
    switch (k) {
      case TOpc::ADD:
        return static_cast<int64_t>(static_cast<uint64_t>(x) +
                                    static_cast<uint64_t>(y));
      case TOpc::SUB:
        return static_cast<int64_t>(static_cast<uint64_t>(x) -
                                    static_cast<uint64_t>(y));
      case TOpc::MUL:
        return static_cast<int64_t>(static_cast<uint64_t>(x) *
                                    static_cast<uint64_t>(y));
      case TOpc::AND: return x & y;
      case TOpc::OR: return x | y;
      case TOpc::XOR: return x ^ y;
      case TOpc::SHL:
        return static_cast<int64_t>(static_cast<uint64_t>(x) << (y & 63));
      case TOpc::SHR:
        return static_cast<int64_t>(static_cast<uint64_t>(x) >> (y & 63));
      case TOpc::EQ: return x == y ? 1 : 0;
      case TOpc::NE: return x != y ? 1 : 0;
      case TOpc::LT: return x < y ? 1 : 0;
      case TOpc::LE: return x <= y ? 1 : 0;
      case TOpc::GT: return x > y ? 1 : 0;
      case TOpc::GE: return x >= y ? 1 : 0;
      default: return 0;
    }
}

const char *
cmpUnderflowMsg(Op c)
{
    switch (c) {
      case Op::EQ: return "EQ underflow";
      case Op::NE: return "NE underflow";
      case Op::LT: return "LT underflow";
      case Op::LE: return "LE underflow";
      case Op::GT: return "GT underflow";
      case Op::GE: return "GE underflow";
      default: return "cmp underflow";
    }
}

} // namespace

// Threaded (computed-goto) dispatch where the compiler supports it; the
// portable switch fallback compiles from the same handler bodies.
// -DBROWSIX_EMVM_NO_CGOTO forces the fallback for testing.
#if defined(__GNUC__) && !defined(BROWSIX_EMVM_NO_CGOTO)
#define BSX_EMVM_CGOTO 1
#else
#define BSX_EMVM_CGOTO 0
#endif

RunState
Vm::runFused(jsvm::InterruptToken *token)
{
    int check = 0;
    int64_t a, b;
    Frame *fr = nullptr;
    const Function *fnp = nullptr;
    TransFn *tfp = nullptr;
    const FInstr *code = nullptr;
    const FInstr *ins = nullptr;
    size_t n = 0, ncode = 0, fpc = 0;

    // Dispatch-loop counters accumulate in registers and flush to the Vm
    // on every exit from this function — including the WorkerTerminated
    // throw — so instructionsRetired()/stats() stay truthful without a
    // member read-modify-write on every dispatch.
    struct Acc
    {
        Vm *vm;
        uint64_t disp = 0;  ///< pending stats_.fusedDispatches
        uint64_t super = 0; ///< pending stats_.superinstructionsHit
        int64_t ret = 0;    ///< pending retired_ delta
        ~Acc()
        {
            vm->stats_.fusedDispatches += disp;
            vm->stats_.superinstructionsHit += super;
            vm->retired_ += ret;
        }
    } acc{this, 0, 0, 0};

    auto pop = [this](int64_t &v) -> bool {
        if (stack_.empty())
            return false;
        v = stack_.back();
        stack_.pop_back();
        return true;
    };
    auto ensureTrace = [this](TransFn &tf, const Function &fn,
                              uint32_t headerPc,
                              uint32_t bePc) -> const Trace * {
        TraceSlot *slot = tf.findSlot(headerPc);
        if (!slot) {
            tf.traces.push_back(TraceSlot{headerPc, false, nullptr});
            slot = &tf.traces.back();
        }
        if (!slot->built) {
            slot->built = true; // null after build = untraceable, cached
            slot->trace = buildTrace(fn, headerPc, bePc);
            if (slot->trace)
                stats_.tracesTranslated++;
        }
        return slot->trace.get();
    };

// Per-dispatch prologue: bounds, truthful retire accounting, and the
// InterruptToken cadence — `check` advances by ORIGINAL instructions so
// fused spans cannot stretch the termination window.
#define FETCH()                                                            \
    do {                                                                   \
        if (fpc >= ncode) {                                                \
            fr->pc = static_cast<uint32_t>(n);                             \
            return fault("pc out of range in " + fnp->name);               \
        }                                                                  \
        ins = &code[fpc++];                                                \
        acc.disp++;                                                        \
        acc.super += ins->nOrig > 1 ? 1 : 0;                               \
        acc.ret += ins->nOrig;                                             \
        check += ins->nOrig;                                               \
        if (check >= 4096) {                                               \
            check = 0;                                                     \
            if (token && token->interrupted())                             \
                throw jsvm::WorkerTerminated{};                            \
            jsvm::Fiber::maybeYield();                                     \
        }                                                                  \
    } while (0)

// Faults report original coordinates: the k-th original instruction of
// the span is the one that faulted, and base increments pc at fetch.
// Fault at original-op index k-1 inside the current (super)instruction.
// Base coordinates throughout: the pc lands just past the faulting
// original op (base bumps pc at fetch), and the retired counter gives
// back the original ops FETCH charged for but never ran — base counts
// the faulting instruction itself, none after it.
#define FAULTN(k, msg)                                                     \
    do {                                                                   \
        fr->pc = ins->origPc + (k);                                        \
        acc.ret -= ins->nOrig - (k);                                       \
        return fault(msg);                                                 \
    } while (0)

// A taken branch. Out-of-range targets fault in base coordinates; hot
// backedges bump their profile counter and may enter (or first build) a
// register trace, deopting back here with fr->pc at a span boundary.
#define TAKE_BRANCH()                                                      \
    do {                                                                   \
        if (static_cast<size_t>(ins->imm) >= ncode) {                      \
            fr->pc = ins->brOrig;                                          \
            return fault("pc out of range in " + fnp->name);               \
        }                                                                  \
        if (tier_ == Tier::Trace && ins->hot >= 0) {                       \
            Backedge &be = tfp->backedges[ins->hot];                       \
            if (++be.count >= traceThreshold_) {                           \
                be.count = 0;                                              \
                const Trace *tr =                                          \
                    ensureTrace(*tfp, *fnp, be.headerPc,                   \
                                ins->origPc + ins->nOrig - 1);             \
                if (tr) {                                                  \
                    fr->pc = be.headerPc;                                  \
                    stats_.tracesEntered++;                                \
                    if (!execTrace(*tr, token, check))                     \
                        return RunState::Trapped;                          \
                    stats_.traceDeopts++;                                  \
                    goto refetch_frame;                                    \
                }                                                          \
            }                                                              \
        }                                                                  \
        fpc = static_cast<size_t>(ins->imm);                               \
    } while (0)

refetch_frame:
    fr = &frames_.back();
    fnp = &image_.functions[fr->fn];
    tfp = &transFor(fr->fn);
    n = fnp->code.size();
    if (fr->pc >= n)
        // Base faults here leaving fr.pc untouched; match it.
        return fault("pc out of range in " + fnp->name);
    if (tfp->fusedOfOrig[fr->pc] < 0) {
        // A (doctored) snapshot resumed inside a superinstruction: step
        // base semantics until the pc is a span boundary again.
        bool reached = false;
        RunState rs = runBase(token, true, &reached, check);
        if (!reached)
            return rs;
        goto refetch_frame;
    }
    code = tfp->code.data();
    ncode = tfp->code.size();
    fpc = static_cast<size_t>(tfp->fusedOfOrig[fr->pc]);

#if BSX_EMVM_CGOTO
    static const void *const kLabels[] = {
        &&L_NOP, &&L_PUSH, &&L_DUP, &&L_POP, &&L_SWAP, &&L_LOADL,
        &&L_STOREL, &&L_LOAD8, &&L_LOAD32, &&L_LOAD64, &&L_STORE8,
        &&L_STORE32, &&L_STORE64, &&L_ADD, &&L_SUB, &&L_MUL, &&L_DIVS,
        &&L_MODS, &&L_AND, &&L_OR, &&L_XOR, &&L_SHL, &&L_SHR, &&L_EQ,
        &&L_NE, &&L_LT, &&L_LE, &&L_GT, &&L_GE, &&L_JMP, &&L_JZ, &&L_JNZ,
        &&L_CALL, &&L_RET, &&L_SYSCALL, &&L_HALT, &&L_PUSH_ADD,
        &&L_INC_LOCAL, &&L_LL_CMP, &&L_CMP_BR, &&L_LL_CMP_BR,
        &&L_LOADL_LOAD8, &&L_LOADL_LOAD32, &&L_LL_STORE8, &&L_LL_STORE32,
        &&L_LP_STORE8, &&L_LP_STORE32, &&L_LP_CMP_BR, &&L_LL_BIN_SL,
        &&L_LP_BIN_SL, &&L_BADOP,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                      static_cast<size_t>(FOp::COUNT),
                  "dispatch table matches FOp");
#define CASE(x) L_##x:
#define NEXT()                                                             \
    do {                                                                   \
        FETCH();                                                           \
        goto *kLabels[static_cast<size_t>(ins->op)];                       \
    } while (0)
    NEXT();
#else
#define CASE(x) case FOp::x:
#define NEXT() break
    for (;;) {
        FETCH();
        switch (ins->op) {
#endif

    CASE(NOP) { NEXT(); }
    CASE(PUSH)
    {
        stack_.push_back(ins->imm);
        NEXT();
    }
    CASE(DUP)
    {
        if (stack_.empty())
            FAULTN(1, "DUP on empty stack");
        stack_.push_back(stack_.back());
        NEXT();
    }
    CASE(POP)
    {
        if (!pop(a))
            FAULTN(1, "POP on empty stack");
        NEXT();
    }
    CASE(SWAP)
    {
        if (stack_.size() < 2)
            FAULTN(1, "SWAP underflow");
        std::swap(stack_[stack_.size() - 1], stack_[stack_.size() - 2]);
        NEXT();
    }
    CASE(LOADL)
    {
        if (ins->imm < 0 ||
            static_cast<size_t>(ins->imm) >= fr->locals.size())
            FAULTN(1, "LOADL out of range");
        stack_.push_back(fr->locals[ins->imm]);
        NEXT();
    }
    CASE(STOREL)
    {
        if (ins->imm < 0 ||
            static_cast<size_t>(ins->imm) >= fr->locals.size())
            FAULTN(1, "STOREL out of range");
        if (!pop(a))
            FAULTN(1, "STOREL underflow");
        fr->locals[ins->imm] = a;
        NEXT();
    }
    CASE(LOAD8)
    {
        if (!pop(a))
            FAULTN(1, "LOAD8 underflow");
        if (a < 0 || static_cast<size_t>(a) >= mem_.size())
            FAULTN(1, "LOAD8 out of bounds");
        stack_.push_back(mem_[a]);
        NEXT();
    }
    CASE(LOAD32)
    {
        if (!pop(a))
            FAULTN(1, "LOAD32 underflow");
        if (a < 0 || static_cast<size_t>(a) + 4 > mem_.size())
            FAULTN(1, "LOAD32 out of bounds");
        int32_t v;
        std::memcpy(&v, mem_.data() + a, 4);
        stack_.push_back(v);
        NEXT();
    }
    CASE(LOAD64)
    {
        if (!pop(a))
            FAULTN(1, "LOAD64 underflow");
        if (a < 0 || static_cast<size_t>(a) + 8 > mem_.size())
            FAULTN(1, "LOAD64 out of bounds");
        int64_t v;
        std::memcpy(&v, mem_.data() + a, 8);
        stack_.push_back(v);
        NEXT();
    }
    CASE(STORE8)
    {
        if (!pop(b) || !pop(a))
            FAULTN(1, "STORE8 underflow");
        if (a < 0 || static_cast<size_t>(a) >= mem_.size())
            FAULTN(1, "STORE8 out of bounds");
        mem_[a] = static_cast<uint8_t>(b);
        NEXT();
    }
    CASE(STORE32)
    {
        if (!pop(b) || !pop(a))
            FAULTN(1, "STORE32 underflow");
        if (a < 0 || static_cast<size_t>(a) + 4 > mem_.size())
            FAULTN(1, "STORE32 out of bounds");
        int32_t v = static_cast<int32_t>(b);
        std::memcpy(mem_.data() + a, &v, 4);
        NEXT();
    }
    CASE(STORE64)
    {
        if (!pop(b) || !pop(a))
            FAULTN(1, "STORE64 underflow");
        if (a < 0 || static_cast<size_t>(a) + 8 > mem_.size())
            FAULTN(1, "STORE64 out of bounds");
        std::memcpy(mem_.data() + a, &b, 8);
        NEXT();
    }

#define BINOP_CASE(name, expr)                                             \
    CASE(name)                                                             \
    {                                                                      \
        if (!pop(b) || !pop(a))                                            \
            FAULTN(1, #name " underflow");                                 \
        stack_.push_back(expr);                                            \
        NEXT();                                                            \
    }
    // Same wrap-mod-2^64 semantics as the base tier.
    BINOP_CASE(ADD, static_cast<int64_t>(static_cast<uint64_t>(a) +
                                         static_cast<uint64_t>(b)))
    BINOP_CASE(SUB, static_cast<int64_t>(static_cast<uint64_t>(a) -
                                         static_cast<uint64_t>(b)))
    BINOP_CASE(MUL, static_cast<int64_t>(static_cast<uint64_t>(a) *
                                         static_cast<uint64_t>(b)))
    BINOP_CASE(AND, a & b)
    BINOP_CASE(OR, a | b)
    BINOP_CASE(XOR, a ^ b)
    BINOP_CASE(SHL,
               static_cast<int64_t>(static_cast<uint64_t>(a) << (b & 63)))
    BINOP_CASE(SHR,
               static_cast<int64_t>(static_cast<uint64_t>(a) >> (b & 63)))
    BINOP_CASE(EQ, a == b ? 1 : 0)
    BINOP_CASE(NE, a != b ? 1 : 0)
    BINOP_CASE(LT, a < b ? 1 : 0)
    BINOP_CASE(LE, a <= b ? 1 : 0)
    BINOP_CASE(GT, a > b ? 1 : 0)
    BINOP_CASE(GE, a >= b ? 1 : 0)
#undef BINOP_CASE

    CASE(DIVS)
    {
        if (!pop(b) || !pop(a))
            FAULTN(1, "DIVS underflow");
        if (b == 0)
            FAULTN(1, "division by zero");
        stack_.push_back(
            b == -1 ? static_cast<int64_t>(-static_cast<uint64_t>(a))
                    : a / b);
        NEXT();
    }
    CASE(MODS)
    {
        if (!pop(b) || !pop(a))
            FAULTN(1, "MODS underflow");
        if (b == 0)
            FAULTN(1, "modulo by zero");
        stack_.push_back(b == -1 ? 0 : a % b);
        NEXT();
    }

    CASE(JMP)
    {
        TAKE_BRANCH();
        NEXT();
    }
    CASE(JZ)
    {
        if (!pop(a))
            FAULTN(1, "JZ underflow");
        if (a == 0)
            TAKE_BRANCH();
        NEXT();
    }
    CASE(JNZ)
    {
        if (!pop(a))
            FAULTN(1, "JNZ underflow");
        if (a != 0)
            TAKE_BRANCH();
        NEXT();
    }

    CASE(CALL)
    {
        if (ins->imm < 0 ||
            static_cast<size_t>(ins->imm) >= image_.functions.size())
            FAULTN(1, "CALL out of range");
        const Function &callee = image_.functions[ins->imm];
        if (stack_.size() < callee.nargs)
            FAULTN(1, "CALL arg underflow");
        Frame nf;
        nf.fn = static_cast<uint32_t>(ins->imm);
        nf.pc = 0;
        if (!localsPool_.empty()) {
            // Reuse a retired frame's heap buffer; assign() re-zeroes.
            nf.locals = std::move(localsPool_.back());
            localsPool_.pop_back();
        }
        nf.locals.assign(std::max(callee.nlocals, callee.nargs), 0);
        for (uint32_t i = 0; i < callee.nargs; i++) {
            nf.locals[callee.nargs - 1 - i] = stack_.back();
            stack_.pop_back();
        }
        // Base checks depth after popping args; keep the fault state
        // byte-identical.
        if (frames_.size() > 1024)
            FAULTN(1, "call stack overflow");
        fr->pc = ins->origPc + 1; // the return address, a leader
        frames_.push_back(std::move(nf));
        goto refetch_frame;
    }
    CASE(RET)
    {
        if (!pop(a))
            FAULTN(1, "RET underflow");
        if (localsPool_.size() < 64)
            localsPool_.push_back(std::move(frames_.back().locals));
        frames_.pop_back();
        if (frames_.empty()) {
            exitCode_ = a;
            running_ = false;
            return RunState::Done;
        }
        stack_.push_back(a);
        goto refetch_frame;
    }

    CASE(SYSCALL)
    {
        int nargs = static_cast<int>(ins->imm);
        if (static_cast<int>(stack_.size()) < nargs + 1)
            FAULTN(1, "SYSCALL underflow");
        pendingArgs_.assign(nargs, 0);
        for (int i = nargs - 1; i >= 0; i--) {
            pendingArgs_[i] = stack_.back();
            stack_.pop_back();
        }
        pendingTrap_ = static_cast<int>(stack_.back());
        stack_.pop_back();
        awaitingSyscall_ = true;
        fr->pc = ins->origPc + 1; // resume() continues at a leader
        return RunState::Syscall;
    }

    CASE(HALT)
    {
        if (!pop(a))
            FAULTN(1, "HALT underflow");
        exitCode_ = a;
        running_ = false;
        fr->pc = ins->origPc + 1;
        return RunState::Done;
    }

    // --- superinstructions ------------------------------------------------

    CASE(PUSH_ADD)
    {
        // PUSH imm; ADD. On underflow base has already pushed and
        // re-popped the immediate: net stack effect identical.
        if (stack_.empty())
            FAULTN(2, "ADD underflow");
        int64_t &tos = stack_.back();
        tos = static_cast<int64_t>(static_cast<uint64_t>(tos) +
                                   static_cast<uint64_t>(ins->imm));
        NEXT();
    }
    CASE(INC_LOCAL)
    {
        // LOADL a; PUSH imm; ADD; STOREL a — slot validated statically.
        int64_t &l = fr->locals[ins->a];
        l = static_cast<int64_t>(static_cast<uint64_t>(l) +
                                 static_cast<uint64_t>(ins->imm));
        NEXT();
    }
    CASE(LL_CMP)
    {
        stack_.push_back(
            cmpApply(ins->cmp, fr->locals[ins->a], fr->locals[ins->b]));
        NEXT();
    }
    CASE(CMP_BR)
    {
        if (!pop(b) || !pop(a))
            FAULTN(1, cmpUnderflowMsg(ins->cmp));
        if ((cmpApply(ins->cmp, a, b) != 0) == ins->brIfTrue)
            TAKE_BRANCH();
        NEXT();
    }
    CASE(LL_CMP_BR)
    {
        if ((cmpApply(ins->cmp, fr->locals[ins->a], fr->locals[ins->b]) !=
             0) == ins->brIfTrue)
            TAKE_BRANCH();
        NEXT();
    }
    CASE(LOADL_LOAD8)
    {
        int64_t addr = fr->locals[ins->a];
        if (addr < 0 || static_cast<size_t>(addr) >= mem_.size())
            FAULTN(2, "LOAD8 out of bounds");
        stack_.push_back(mem_[addr]);
        NEXT();
    }
    CASE(LOADL_LOAD32)
    {
        int64_t addr = fr->locals[ins->a];
        if (addr < 0 || static_cast<size_t>(addr) + 4 > mem_.size())
            FAULTN(2, "LOAD32 out of bounds");
        int32_t v;
        std::memcpy(&v, mem_.data() + addr, 4);
        stack_.push_back(v);
        NEXT();
    }
    CASE(LL_STORE8)
    {
        int64_t addr = fr->locals[ins->a];
        if (addr < 0 || static_cast<size_t>(addr) >= mem_.size())
            FAULTN(3, "STORE8 out of bounds");
        mem_[addr] = static_cast<uint8_t>(fr->locals[ins->b]);
        NEXT();
    }
    CASE(LL_STORE32)
    {
        int64_t addr = fr->locals[ins->a];
        if (addr < 0 || static_cast<size_t>(addr) + 4 > mem_.size())
            FAULTN(3, "STORE32 out of bounds");
        int32_t v = static_cast<int32_t>(fr->locals[ins->b]);
        std::memcpy(mem_.data() + addr, &v, 4);
        NEXT();
    }
    CASE(LP_STORE8)
    {
        int64_t addr = fr->locals[ins->a];
        if (addr < 0 || static_cast<size_t>(addr) >= mem_.size())
            FAULTN(3, "STORE8 out of bounds");
        mem_[addr] = static_cast<uint8_t>(ins->imm);
        NEXT();
    }
    CASE(LP_STORE32)
    {
        int64_t addr = fr->locals[ins->a];
        if (addr < 0 || static_cast<size_t>(addr) + 4 > mem_.size())
            FAULTN(3, "STORE32 out of bounds");
        int32_t v = static_cast<int32_t>(ins->imm);
        std::memcpy(mem_.data() + addr, &v, 4);
        NEXT();
    }

    CASE(LP_CMP_BR)
    {
        if ((cmpApply(ins->cmp, fr->locals[ins->a], ins->imm2) != 0) ==
            ins->brIfTrue)
            TAKE_BRANCH();
        NEXT();
    }
    CASE(LL_BIN_SL)
    {
        // Slots validated statically, binop total: no fault path.
        fr->locals[ins->c] =
            binApply(ins->cmp, fr->locals[ins->a], fr->locals[ins->b]);
        NEXT();
    }
    CASE(LP_BIN_SL)
    {
        fr->locals[ins->c] =
            binApply(ins->cmp, fr->locals[ins->a], ins->imm2);
        NEXT();
    }

    CASE(BADOP) { FAULTN(1, "illegal opcode"); }

#if !BSX_EMVM_CGOTO
          default:
            FAULTN(1, "illegal opcode");
        }
    }
#endif

#undef CASE
#undef NEXT
#undef TAKE_BRANCH
#undef FAULTN
#undef FETCH
}

bool
Vm::execTrace(const Trace &tr, jsvm::InterruptToken *token, int &check)
{
    Frame &fr = frames_.back();
    if (traceRegs_.size() < tr.nregs)
        traceRegs_.resize(tr.nregs);
    int64_t *R = traceRegs_.data();
    // Stable across the whole trace: trace ops never resize locals or
    // memory (CALL/SYSCALL always deopt first), so the data pointers can
    // live in registers instead of being re-derived per op.
    int64_t *L = fr.locals.data();
    uint8_t *M = mem_.data();
    const size_t msize = mem_.size();
    const TOp *ops = tr.ops.data();
    const size_t nops = tr.ops.size();
    const TOp *t = nullptr;
    size_t i = 0;

    // Truthful accounting accumulates in registers; every way out of the
    // trace — side exit, fault, WorkerTerminated — flushes to the Vm.
    int64_t ret = 0;
    int chk = check;

    // Deopt: rebuild the operand stack the base interpreter would have
    // at this point from the map's virtual registers (bottom→top).
    auto materialize = [&](int32_t map) {
        if (map >= 0) {
            for (int32_t r : tr.maps[map])
                stack_.push_back(R[r]);
        }
    };
    auto traceFault = [&](const char *msg) {
        retired_ += ret;
        check = chk;
        materialize(t->map);
        fr.pc = t->exitPc + 1;
        fault(msg);
        return false;
    };
    auto sideExit = [&]() {
        retired_ += ret;
        check = chk;
        materialize(t->map);
        fr.pc = t->exitPc;
        return true;
    };

// Per-op accounting + the termination cadence: an infinite traced loop
// still hits the InterruptToken window, with counters flushed before the
// unwind (and before a fiber switch) so observers never see stale state.
#define TACCOUNT()                                                         \
    do {                                                                   \
        ret += t->nOrig;                                                   \
        chk += t->nOrig;                                                   \
        if (chk >= 4096) {                                                 \
            chk = 0;                                                       \
            retired_ += ret;                                               \
            ret = 0;                                                       \
            check = 0;                                                     \
            if (token && token->interrupted())                             \
                throw jsvm::WorkerTerminated{};                            \
            jsvm::Fiber::maybeYield();                                     \
        }                                                                  \
    } while (0)

#if BSX_EMVM_CGOTO
    static const void *const kTLabels[] = {
        &&T_MOVI, &&T_LDL, &&T_STL, &&T_INCL, &&T_ADD, &&T_SUB, &&T_MUL,
        &&T_AND, &&T_OR, &&T_XOR, &&T_SHL, &&T_SHR, &&T_DIVS, &&T_MODS,
        &&T_EQ, &&T_NE, &&T_LT, &&T_LE, &&T_GT, &&T_GE, &&T_ADDI,
        &&T_LD8, &&T_LD32, &&T_LD64, &&T_ST8, &&T_ST32, &&T_ST64,
        &&T_JMP, &&T_BRZ, &&T_BRNZ, &&T_EXIT, &&T_NOPC, &&T_CMPBRLL,
        &&T_CMPBRLI, &&T_CMPBRRI, &&T_BINL, &&T_BINLI, &&T_BINRLL,
        &&T_BINRLI, &&T_LD8L, &&T_LD32L, &&T_LD64L, &&T_ST8LL,
        &&T_ST32LL, &&T_ST64LL, &&T_ST8LI, &&T_ST32LI, &&T_ST64LI,
    };
    static_assert(sizeof(kTLabels) / sizeof(kTLabels[0]) ==
                      static_cast<size_t>(TOpc::COUNT),
                  "trace dispatch table matches TOpc");
#define TCASE(x) T_##x:
// Replicated dispatch sites (one indirect branch per handler) so the
// host branch predictor learns per-op successor patterns.
#define TDISPATCH()                                                        \
    do {                                                                   \
        if (i >= nops)                                                     \
            goto trace_end;                                                \
        t = &ops[i];                                                       \
        TACCOUNT();                                                        \
        goto *kTLabels[static_cast<size_t>(t->op)];                       \
    } while (0)
#define TNEXT()                                                            \
    do {                                                                   \
        i++;                                                               \
        TDISPATCH();                                                       \
    } while (0)
#define TJUMP(d)                                                           \
    {                                                                      \
        i = static_cast<size_t>(d);                                        \
        TDISPATCH();                                                       \
    }
    TDISPATCH();
#else
#define TCASE(x) case TOpc::x:
#define TNEXT() break
#define TJUMP(d)                                                           \
    {                                                                      \
        i = static_cast<size_t>(d);                                        \
        continue;                                                          \
    }
    for (;;) {
        if (i >= nops)
            goto trace_end;
        t = &ops[i];
        TACCOUNT();
        switch (t->op) {
#endif

    TCASE(MOVI)
    {
        R[t->a] = t->imm;
        TNEXT();
    }
    TCASE(LDL)
    {
        R[t->a] = L[t->b];
        TNEXT();
    }
    TCASE(STL)
    {
        L[t->b] = R[t->a];
        TNEXT();
    }
    TCASE(INCL)
    {
        L[t->a] = static_cast<int64_t>(static_cast<uint64_t>(L[t->a]) +
                                       static_cast<uint64_t>(t->imm));
        TNEXT();
    }
#define TBIN(name, expr)                                                   \
    TCASE(name)                                                            \
    {                                                                      \
        int64_t x = R[t->b], y = R[t->c];                                  \
        (void)x;                                                           \
        (void)y;                                                           \
        R[t->a] = (expr);                                                  \
        TNEXT();                                                           \
    }
    TBIN(ADD, static_cast<int64_t>(static_cast<uint64_t>(x) +
                                   static_cast<uint64_t>(y)))
    TBIN(SUB, static_cast<int64_t>(static_cast<uint64_t>(x) -
                                   static_cast<uint64_t>(y)))
    TBIN(MUL, static_cast<int64_t>(static_cast<uint64_t>(x) *
                                   static_cast<uint64_t>(y)))
    TBIN(AND, x & y)
    TBIN(OR, x | y)
    TBIN(XOR, x ^ y)
    TBIN(SHL, static_cast<int64_t>(static_cast<uint64_t>(x) << (y & 63)))
    TBIN(SHR, static_cast<int64_t>(static_cast<uint64_t>(x) >> (y & 63)))
    TBIN(EQ, x == y ? 1 : 0)
    TBIN(NE, x != y ? 1 : 0)
    TBIN(LT, x < y ? 1 : 0)
    TBIN(LE, x <= y ? 1 : 0)
    TBIN(GT, x > y ? 1 : 0)
    TBIN(GE, x >= y ? 1 : 0)
#undef TBIN
    TCASE(DIVS)
    {
        int64_t x = R[t->b], y = R[t->c];
        if (y == 0)
            return traceFault("division by zero");
        R[t->a] = y == -1 ? static_cast<int64_t>(-static_cast<uint64_t>(x))
                          : x / y;
        TNEXT();
    }
    TCASE(MODS)
    {
        int64_t x = R[t->b], y = R[t->c];
        if (y == 0)
            return traceFault("modulo by zero");
        R[t->a] = y == -1 ? 0 : x % y;
        TNEXT();
    }
    TCASE(ADDI)
    {
        R[t->a] = static_cast<int64_t>(static_cast<uint64_t>(R[t->b]) +
                                       static_cast<uint64_t>(t->imm));
        TNEXT();
    }
    TCASE(LD8)
    {
        int64_t addr = R[t->b];
        if (addr < 0 || static_cast<size_t>(addr) >= msize)
            return traceFault("LOAD8 out of bounds");
        R[t->a] = M[addr];
        TNEXT();
    }
    TCASE(LD32)
    {
        int64_t addr = R[t->b];
        if (addr < 0 || static_cast<size_t>(addr) + 4 > msize)
            return traceFault("LOAD32 out of bounds");
        int32_t v;
        std::memcpy(&v, M + addr, 4);
        R[t->a] = v;
        TNEXT();
    }
    TCASE(LD64)
    {
        int64_t addr = R[t->b];
        if (addr < 0 || static_cast<size_t>(addr) + 8 > msize)
            return traceFault("LOAD64 out of bounds");
        int64_t v;
        std::memcpy(&v, M + addr, 8);
        R[t->a] = v;
        TNEXT();
    }
    TCASE(ST8)
    {
        int64_t addr = R[t->a];
        if (addr < 0 || static_cast<size_t>(addr) >= msize)
            return traceFault("STORE8 out of bounds");
        M[addr] = static_cast<uint8_t>(R[t->b]);
        TNEXT();
    }
    TCASE(ST32)
    {
        int64_t addr = R[t->a];
        if (addr < 0 || static_cast<size_t>(addr) + 4 > msize)
            return traceFault("STORE32 out of bounds");
        int32_t v = static_cast<int32_t>(R[t->b]);
        std::memcpy(M + addr, &v, 4);
        TNEXT();
    }
    TCASE(ST64)
    {
        int64_t addr = R[t->a];
        if (addr < 0 || static_cast<size_t>(addr) + 8 > msize)
            return traceFault("STORE64 out of bounds");
        int64_t v = R[t->b];
        std::memcpy(M + addr, &v, 8);
        TNEXT();
    }
    TCASE(JMP)
    {
        if (t->dest == kTraceDestTop)
            TJUMP(0)
        TJUMP(t->dest)
    }
    TCASE(BRZ)
    {
        if (R[t->a] == 0)
            goto t_branch_taken;
        TNEXT();
    }
    TCASE(BRNZ)
    {
        if (R[t->a] != 0)
            goto t_branch_taken;
        TNEXT();
    }
    t_branch_taken:
    {
        if (t->dest == kTraceDestTop)
            TJUMP(0)
        if (t->dest == kTraceDestExit)
            return sideExit();
        TJUMP(t->dest)
    }
    TCASE(EXIT) { return sideExit(); }
    TCASE(NOPC) { TNEXT(); }

    // --- peephole-fused forms (see peepholeTrace) ---------------------
    TCASE(CMPBRLL)
    {
        if (tbinApply(static_cast<TOpc>(t->a), L[t->b], L[t->c]) != 0)
            goto t_branch_taken;
        TNEXT();
    }
    TCASE(CMPBRLI)
    {
        if (tbinApply(static_cast<TOpc>(t->a), L[t->b], t->imm) != 0)
            goto t_branch_taken;
        TNEXT();
    }
    TCASE(CMPBRRI)
    {
        if (tbinApply(static_cast<TOpc>(t->a), R[t->b], t->imm) != 0)
            goto t_branch_taken;
        TNEXT();
    }
    TCASE(BINL)
    {
        L[t->a] = tbinApply(static_cast<TOpc>(t->imm), L[t->b], L[t->c]);
        TNEXT();
    }
    TCASE(BINLI)
    {
        L[t->a] = tbinApply(static_cast<TOpc>(t->c), L[t->b], t->imm);
        TNEXT();
    }
    TCASE(BINRLL)
    {
        R[t->a] = tbinApply(static_cast<TOpc>(t->imm), L[t->b], L[t->c]);
        TNEXT();
    }
    TCASE(BINRLI)
    {
        R[t->a] = tbinApply(static_cast<TOpc>(t->c), L[t->b], t->imm);
        TNEXT();
    }
    TCASE(LD8L)
    {
        int64_t addr = L[t->b];
        if (addr < 0 || static_cast<size_t>(addr) >= msize)
            return traceFault("LOAD8 out of bounds");
        R[t->a] = M[addr];
        TNEXT();
    }
    TCASE(LD32L)
    {
        int64_t addr = L[t->b];
        if (addr < 0 || static_cast<size_t>(addr) + 4 > msize)
            return traceFault("LOAD32 out of bounds");
        int32_t v;
        std::memcpy(&v, M + addr, 4);
        R[t->a] = v;
        TNEXT();
    }
    TCASE(LD64L)
    {
        int64_t addr = L[t->b];
        if (addr < 0 || static_cast<size_t>(addr) + 8 > msize)
            return traceFault("LOAD64 out of bounds");
        int64_t v;
        std::memcpy(&v, M + addr, 8);
        R[t->a] = v;
        TNEXT();
    }
    TCASE(ST8LL)
    {
        int64_t addr = L[t->a];
        if (addr < 0 || static_cast<size_t>(addr) >= msize)
            return traceFault("STORE8 out of bounds");
        M[addr] = static_cast<uint8_t>(L[t->b]);
        TNEXT();
    }
    TCASE(ST32LL)
    {
        int64_t addr = L[t->a];
        if (addr < 0 || static_cast<size_t>(addr) + 4 > msize)
            return traceFault("STORE32 out of bounds");
        int32_t v = static_cast<int32_t>(L[t->b]);
        std::memcpy(M + addr, &v, 4);
        TNEXT();
    }
    TCASE(ST64LL)
    {
        int64_t addr = L[t->a];
        if (addr < 0 || static_cast<size_t>(addr) + 8 > msize)
            return traceFault("STORE64 out of bounds");
        int64_t v = L[t->b];
        std::memcpy(M + addr, &v, 8);
        TNEXT();
    }
    TCASE(ST8LI)
    {
        int64_t addr = L[t->a];
        if (addr < 0 || static_cast<size_t>(addr) >= msize)
            return traceFault("STORE8 out of bounds");
        M[addr] = static_cast<uint8_t>(t->imm);
        TNEXT();
    }
    TCASE(ST32LI)
    {
        int64_t addr = L[t->a];
        if (addr < 0 || static_cast<size_t>(addr) + 4 > msize)
            return traceFault("STORE32 out of bounds");
        int32_t v = static_cast<int32_t>(t->imm);
        std::memcpy(M + addr, &v, 4);
        TNEXT();
    }
    TCASE(ST64LI)
    {
        int64_t addr = L[t->a];
        if (addr < 0 || static_cast<size_t>(addr) + 8 > msize)
            return traceFault("STORE64 out of bounds");
        int64_t v = t->imm;
        std::memcpy(M + addr, &v, 8);
        TNEXT();
    }

#if !BSX_EMVM_CGOTO
          default:
            break;
        }
        i++;
    }
#endif

trace_end:
    // Unreachable: every translated path ends in EXIT/JMP/BR.
    retired_ += ret;
    check = chk;
    jsvm::panic("emvm trace fell off the end");
    return false;
#undef TCASE
#undef TNEXT
#undef TJUMP
#undef TDISPATCH
#undef TACCOUNT
}

std::vector<uint8_t>
Vm::snapshot() const
{
    std::vector<uint8_t> out = {'B', 'S', 'X', 'S', 'N', 'A', 'P', '1'};
    out.reserve(out.size() + mem_.size() + 16);
    put32(out, static_cast<uint32_t>(mem_.size()));
    out.insert(out.end(), mem_.begin(), mem_.end());
    put32(out, static_cast<uint32_t>(stack_.size()));
    for (int64_t v : stack_)
        put64(out, static_cast<uint64_t>(v));
    put32(out, static_cast<uint32_t>(frames_.size()));
    for (const auto &fr : frames_) {
        put32(out, fr.fn);
        put32(out, fr.pc);
        put32(out, static_cast<uint32_t>(fr.locals.size()));
        for (int64_t v : fr.locals)
            put64(out, static_cast<uint64_t>(v));
    }
    out.push_back(awaitingSyscall_ ? 1 : 0);
    out.push_back(running_ ? 1 : 0);
    return out;
}

bool
Vm::restore(const Image &image, const std::vector<uint8_t> &snap, Vm &out)
{
    if (snap.size() < 8 || std::memcmp(snap.data(), "BSXSNAP1", 8) != 0)
        return false;
    Reader r{snap.data(), snap.size(), 8};
    out.image_ = image;
    // Translations and profile state belong to the old image; rebuild
    // lazily. Counters stay truthful: a restored Vm starts fresh.
    out.tfns_.clear();
    out.stats_ = VmStats{};
    out.retired_ = 0;
    uint32_t memsz = r.u32();
    if (!r.ok || memsz > (256u << 20))
        return false;
    out.mem_.resize(memsz);
    if (memsz && !r.bytes(out.mem_.data(), memsz))
        return false;
    uint32_t stksz = r.u32();
    if (!r.ok || stksz > (1u << 22))
        return false;
    out.stack_.resize(stksz);
    for (uint32_t i = 0; i < stksz; i++)
        out.stack_[i] = static_cast<int64_t>(r.u64());
    uint32_t nframes = r.u32();
    if (!r.ok || nframes > 65536)
        return false;
    out.frames_.clear();
    for (uint32_t i = 0; i < nframes && r.ok; i++) {
        Frame fr;
        fr.fn = r.u32();
        fr.pc = r.u32();
        uint32_t nl = r.u32();
        if (!r.ok || nl > (1u << 20))
            return false;
        fr.locals.resize(nl);
        for (uint32_t j = 0; j < nl; j++)
            fr.locals[j] = static_cast<int64_t>(r.u64());
        if (fr.fn >= image.functions.size())
            return false;
        // Frames are always built with max(nlocals, nargs) slots (start()
        // and CALL); the fused/trace tiers rely on that invariant instead
        // of bounds-checking every local access, so a hostile snapshot
        // with a short locals array must be rejected here, not executed.
        const Function &ffn = image.functions[fr.fn];
        if (nl != std::max<uint32_t>(ffn.nlocals, ffn.nargs))
            return false;
        out.frames_.push_back(std::move(fr));
    }
    if (r.off + 2 > r.len)
        return false;
    out.awaitingSyscall_ = snap[r.off] != 0;
    out.running_ = snap[r.off + 1] != 0;
    return r.ok;
}

} // namespace emvm
} // namespace browsix
