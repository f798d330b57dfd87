/**
 * @file
 * Pipeline-viewer subscriber: turns every retired or squashed entry's
 * DynInst lifecycle stamps into one trace::PipeView (Konata /
 * O3PipeView) record. entryRecord builds that per-entry record; the
 * text trace (core/text_trace.hh) prints from it too.
 */

#ifndef DMP_CORE_PIPEVIEW_HH
#define DMP_CORE_PIPEVIEW_HH

#include <cstdint>

#include "common/trace.hh"
#include "core/core.hh"
#include "core/observer.hh"

namespace dmp::core
{

/**
 * The lifecycle record of an entry leaving the ROB at cycle `now`:
 * its uop name (opcode for program instructions) and its fetch,
 * rename, issue and complete stamps widened back to absolute cycles.
 */
inline trace::PipeView::Record
entryRecord(const DynInst &di, std::uint64_t seq, Cycle now, bool squashed)
{
    trace::PipeView::Record r;
    r.seq = seq;
    r.pc = di.pc;
    switch (di.kind) {
      case UopKind::Normal:
        r.disasm = isa::opcodeName(di.si.op);
        break;
      case UopKind::EnterPred:
        r.disasm = "enter.pred";
        break;
      case UopKind::EnterAlt:
        r.disasm = "enter.alt";
        break;
      case UopKind::ExitPred:
        r.disasm = "exit.pred";
        break;
      case UopKind::Select:
        r.disasm = "select";
        break;
      default:
        r.disasm = "uop";
        break;
    }
    // Stamps are stored as truncated 32-bit cycles; recover absolute
    // ticks by measuring the (small) distance back from `now` in
    // mod-2^32 arithmetic.
    auto widen = [&](std::uint32_t stamp) -> Cycle {
        if (stamp == 0)
            return 0;
        return now - Cycle(std::uint32_t(now) - stamp);
    };
    r.fetch = widen(di.fetchedAt);
    r.rename = widen(di.renamedAt);
    r.issue = widen(di.issuedAt);
    r.complete = widen(di.completedAt);
    r.retire = now;
    r.squashed = squashed;
    return r;
}

class PipeViewObserver final : public CoreObserver
{
  public:
    /** `core_` and `out_` must outlive the observer. */
    PipeViewObserver(const Core &core_, trace::PipeView &out_)
        : core(core_), out(out_)
    {
    }

    void
    onRetire(const DynInst &di, std::uint64_t seq, PredId) override
    {
        out.emit(entryRecord(di, seq, core.cycle(), false));
    }
    void
    onSquash(const DynInst &di, std::uint64_t seq) override
    {
        out.emit(entryRecord(di, seq, core.cycle(), true));
    }

  private:
    const Core &core;
    trace::PipeView &out;
};

} // namespace dmp::core

#endif // DMP_CORE_PIPEVIEW_HH
