#include "kernel/syscall_ctx.h"

#include <algorithm>
#include <cstring>

#include "jsvm/sab.h"
#include "jsvm/util.h"
#include "kernel/kernel.h"
#include "runtime/syscall_ring.h"

namespace browsix {
namespace kernel {

SyscallCtx::SyscallCtx(Kernel &k, int pid, double id, std::string name,
                       jsvm::Value args)
    : kernel_(k), pid_(pid), conv_(SyscallConv::Async), id_(id),
      name_(std::move(name)), args_(std::move(args)),
      startUs_(jsvm::nowUs())
{
}

SyscallCtx::SyscallCtx(Kernel &k, int pid, int trap,
                       std::array<int32_t, 6> args)
    : kernel_(k), pid_(pid), conv_(SyscallConv::Sync),
      name_(sys::trapName(trap)), sargs_(args), trap_(trap),
      startUs_(jsvm::nowUs())
{
}

SyscallCtx::SyscallCtx(Kernel &k, int pid, int trap,
                       std::array<int32_t, 6> args, uint32_t seq)
    : kernel_(k), pid_(pid), conv_(SyscallConv::Ring),
      name_(sys::trapName(trap)), sargs_(args), seq_(seq), trap_(trap),
      startUs_(jsvm::nowUs())
{
}

void
SyscallCtx::markCompleted()
{
    if (completed_)
        jsvm::panic("syscall " + name_ + " completed twice");
    completed_ = true;
    int64_t elapsed = jsvm::nowUs() - startUs_;
    kernel_.noteSyscallLatency(trap_, name_,
                               elapsed < 0 ? 0
                                           : static_cast<uint64_t>(elapsed));
}

Task *
SyscallCtx::taskOrNull() const
{
    Task *t = kernel_.task(pid_);
    if (!t || t->state == TaskState::Zombie)
        return nullptr;
    return t;
}

size_t
SyscallCtx::argCount() const
{
    return isSync() ? 6 : args_.size();
}

int32_t
SyscallCtx::argInt(size_t i) const
{
    if (isSync())
        return i < 6 ? sargs_[i] : 0;
    return args_.at(i).isNumber() ? args_.at(i).asInt() : 0;
}

double
SyscallCtx::argNum(size_t i) const
{
    if (isSync())
        return i < 6 ? sargs_[i] : 0;
    return args_.at(i).isNumber() ? args_.at(i).asNumber() : 0;
}

std::string
SyscallCtx::argStr(size_t i) const
{
    if (!isSync()) {
        const jsvm::Value &v = args_.at(i);
        return v.isString() ? v.asString() : std::string();
    }
    Task *t = taskOrNull();
    if (!t || !t->heap)
        return std::string();
    size_t off = static_cast<uint32_t>(sargs_[i]);
    const uint8_t *heap = t->heap->data();
    size_t size = t->heap->size();
    std::string out;
    while (off < size && heap[off] != 0)
        out.push_back(static_cast<char>(heap[off++]));
    return out;
}

bfs::Buffer
SyscallCtx::argData(size_t i, size_t len_idx) const
{
    if (!isSync()) {
        const jsvm::Value &v = args_.at(i);
        if (v.isBytes() && v.asBytes())
            return *v.asBytes();
        if (v.isString()) {
            const std::string &s = v.asString();
            return bfs::Buffer(s.begin(), s.end());
        }
        return {};
    }
    Task *t = taskOrNull();
    if (!t || !t->heap)
        return {};
    size_t off = static_cast<uint32_t>(sargs_[i]);
    size_t len = static_cast<uint32_t>(sargs_[len_idx]);
    if (off > t->heap->size())
        return {};
    len = std::min(len, t->heap->size() - off);
    const uint8_t *heap = t->heap->data();
    return bfs::Buffer(heap + off, heap + off + len);
}

jsvm::Value
SyscallCtx::argValue(size_t i) const
{
    if (isSync())
        jsvm::panic("SyscallCtx::argValue on a sync call: " + name_);
    return args_.at(i);
}

SyscallCtx::HeapSpan
SyscallCtx::heapSpan(size_t dst_ptr_idx, size_t len) const
{
    HeapSpan out;
    if (!isSync())
        return out;
    Task *t = taskOrNull();
    if (!t || !t->heap)
        return out;
    size_t off = static_cast<uint32_t>(sargs_[dst_ptr_idx]);
    if (off > t->heap->size() || len > t->heap->size() - off)
        return out; // any byte outside the heap: EFAULT territory
    out.heap = t->heap;
    out.span.data = t->heap->data() + off;
    out.span.len = len;
    return out;
}

SyscallCtx::HeapConstSpan
SyscallCtx::heapConstSpan(size_t ptr_idx, size_t len_idx) const
{
    HeapConstSpan out;
    if (!isSync())
        return out;
    Task *t = taskOrNull();
    if (!t || !t->heap)
        return out;
    size_t off = static_cast<uint32_t>(sargs_[ptr_idx]);
    size_t len = static_cast<uint32_t>(sargs_[len_idx]);
    if (off > t->heap->size() || len > t->heap->size() - off)
        return out; // any byte outside the heap: EFAULT territory
    out.heap = t->heap;
    out.span.data = t->heap->data() + off;
    out.span.len = len;
    return out;
}

bool
SyscallCtx::heapWrite(size_t off, const uint8_t *data, size_t len) const
{
    Task *t = taskOrNull();
    if (!t || !t->heap)
        return false;
    if (off + len > t->heap->size())
        return false;
    if (len > 0) // empty payloads carry a null data pointer
        std::memcpy(t->heap->data() + off, data, len);
    return true;
}

void
SyscallCtx::finishSync(int64_t r0, int64_t r1)
{
    Task *t = taskOrNull();
    if (!t || !t->heap)
        return; // task died while the call was in flight
    int32_t ret0 = static_cast<int32_t>(r0);
    int32_t ret1 = static_cast<int32_t>(r1);
    heapWrite(static_cast<uint32_t>(t->retOff),
              reinterpret_cast<const uint8_t *>(&ret0), 4);
    heapWrite(static_cast<uint32_t>(t->retOff) + 4,
              reinterpret_cast<const uint8_t *>(&ret1), 4);
    jsvm::Atomics::store(*t->heap, static_cast<uint32_t>(t->waitOff), 1);
    jsvm::Atomics::notify(*t->heap, static_cast<uint32_t>(t->waitOff));
}

void
SyscallCtx::finishRing(int64_t r0, int64_t r1)
{
    Task *t = taskOrNull();
    if (!t || !t->heap || !t->ring.registered)
        return; // task died or dropped its ring while the call was in flight
    sys::RingLayout ring(static_cast<uint32_t>(t->ring.off),
                         static_cast<uint32_t>(t->ring.entries));
    jsvm::RingIndices cq(*t->heap, ring.cqHeadOff(), ring.cqTailOff(),
                         ring.entries());
    if (cq.full()) {
        // Only a producer that overruns the in-flight cap can get here.
        kernel_.stats_.ringCqOverflows++;
        return;
    }
    sys::Cqe e;
    e.seq = seq_;
    e.r0 = static_cast<int32_t>(r0);
    e.r1 = static_cast<int32_t>(r1);
    ring.writeCqe(*t->heap, cq.slot(cq.tail()), e);
    cq.publish();
    if (t->ring.draining) {
        t->ring.deferredNotify = true; // coalesced: one notify per batch
    } else {
        // A CQE landing outside a drain pass is a deferred completion:
        // the SQE parked (empty pipe, no pending connection, nothing
        // pollable) and this event-driven push is what un-parks the
        // producer. It pays its own notify.
        kernel_.stats_.ringDeferredCompletions++;
        kernel_.ringArmForWake(*t);
        kernel_.ringNotify(*t);
    }
}

void
SyscallCtx::finishHeap(int64_t r0, int64_t r1)
{
    if (conv_ == SyscallConv::Ring)
        finishRing(r0, r1);
    else
        finishSync(r0, r1);
}

void
SyscallCtx::finishAsync(int64_t r0, int64_t r1, jsvm::Value extra)
{
    Task *t = taskOrNull();
    if (!t || !t->worker)
        return;
    jsvm::Value msg = jsvm::Value::object();
    msg.set("t", jsvm::Value("ret"));
    msg.set("id", jsvm::Value(id_));
    jsvm::Value ret = jsvm::Value::array();
    ret.push(jsvm::Value(static_cast<double>(r0)));
    ret.push(jsvm::Value(static_cast<double>(r1)));
    msg.set("ret", std::move(ret));
    if (!extra.isUndefined())
        msg.set("data", std::move(extra));
    kernel_.stats_.messagesSent++;
    t->worker->postMessage(msg);
}

void
SyscallCtx::complete(int64_t r0, int64_t r1)
{
    markCompleted();
    if (isSync())
        finishHeap(r0, r1);
    else
        finishAsync(r0, r1, jsvm::Value::undefined());
}

void
SyscallCtx::completeData(const bfs::Buffer &data, size_t dst_ptr_idx,
                         int len_idx)
{
    markCompleted();
    if (isSync()) {
        size_t n = data.size();
        if (len_idx >= 0)
            n = std::min(n, static_cast<size_t>(static_cast<uint32_t>(
                                sargs_[len_idx])));
        if (!heapWrite(static_cast<uint32_t>(sargs_[dst_ptr_idx]),
                       data.data(), n)) {
            // The destination window is not inside the heap: refuse
            // rather than report bytes that were never delivered.
            finishHeap(-EFAULT, 0);
            return;
        }
        kernel_.stats_.copiedCompletions++;
        finishHeap(static_cast<int64_t>(n), 0);
    } else {
        finishAsync(static_cast<int64_t>(data.size()), 0,
                    jsvm::Value::bytes(data.data(), data.size()));
    }
}

void
SyscallCtx::completeFilled(int64_t n, bool zero_copy)
{
    if (!isSync())
        jsvm::panic("completeFilled on async call " + name_);
    markCompleted();
    if (zero_copy)
        kernel_.stats_.zeroCopyCompletions++;
    else
        kernel_.stats_.copiedCompletions++;
    finishHeap(n, 0);
}

void
SyscallCtx::completeStr(const std::string &s, size_t dst_ptr_idx,
                        size_t max_len_idx)
{
    markCompleted();
    if (isSync()) {
        size_t max_len = static_cast<uint32_t>(sargs_[max_len_idx]);
        if (s.size() + 1 > max_len) {
            finishHeap(-ERANGE, 0);
            return;
        }
        bfs::Buffer out(s.begin(), s.end());
        out.push_back(0);
        heapWrite(static_cast<uint32_t>(sargs_[dst_ptr_idx]), out.data(),
                  out.size());
        finishHeap(static_cast<int64_t>(s.size()), 0);
    } else {
        finishAsync(static_cast<int64_t>(s.size()), 0, jsvm::Value(s));
    }
}

void
SyscallCtx::completeStat(const sys::StatX &st, size_t dst_ptr_idx)
{
    markCompleted();
    if (isSync()) {
        uint8_t packed[sys::STAT_BYTES];
        sys::packStat(st, packed);
        heapWrite(static_cast<uint32_t>(sargs_[dst_ptr_idx]), packed,
                  sizeof(packed));
        finishHeap(0, 0);
    } else {
        finishAsync(0, 0, sys::statToValue(st));
    }
}

void
SyscallCtx::completeValue(int64_t r0, jsvm::Value extra)
{
    if (isSync())
        jsvm::panic("completeValue on sync call " + name_);
    markCompleted();
    finishAsync(r0, 0, std::move(extra));
}

} // namespace kernel
} // namespace browsix
