/**
 * @file
 * In-order retirement: architectural commit, predicated-FALSE
 * instruction disposal (section 2.5), store commit through the
 * predicate-aware store buffer, and retirement-time predictor training
 * (section 2.3: the PHT is updated at retire and never sees
 * predicated-FALSE branches).
 */

#include "common/logging.hh"
#include "core/core.hh"

namespace dmp::core
{

using isa::kInstBytes;
using isa::Opcode;

bool
Core::retireStage()
{
    unsigned retired = 0;
    for (unsigned w = 0; w < p.retireWidth && robCount > 0; ++w) {
        const std::uint32_t slot = robHead;
        DynInst &di = rob[slot];
        if (!(robState[slot] & kRobExecuted))
            break;
        ++retired;
        const std::uint64_t seq = robSeq[slot];
        dmp_assert(robPred[slot] == kNoPred || di.predResolved,
                   "unresolved predicate at retirement");

        commitInst(slot, di);
        notifyRetire(di, seq, robPred[slot]);
        if (di.kind == UopKind::Normal)
            st.fetchToRetire.sample(std::uint32_t(now) - di.fetchedAt);

        bool halt = di.kind == UopKind::Normal &&
                    di.si.op == Opcode::HALT &&
                    !(di.predResolved && !di.predValue);

        robSeq[slot] = 0;
        if (++robHead == p.robSize)
            robHead = 0;
        --robCount;

        if (halt) {
            isHalted = true;
            retiredArch.pc = di.pc + kInstBytes;
            // Discard everything younger than the committed HALT
            // (wrong-path or false-path leftovers past program end).
            squashYoungerThan(seq);
            sb.squashYoungerThan(seq);
            clearFetchQueue();
            break;
        }
    }
    return retired > 0;
}


void
Core::commitInst(std::uint32_t slot, DynInst &di)
{
    const std::uint64_t seq = robSeq[slot];
    const bool is_false =
        robPred[slot] != kNoPred && di.predResolved && !di.predValue;

    switch (di.kind) {
      case UopKind::Select: {
        // The select-uop commits the merged value and supersedes the
        // selected source mapping (the non-selected one is freed by its
        // own predicated-FALSE producer).
        retiredArch.write(di.archDest, di.result);
        prf.free(di.predValue ? di.selTrue : di.selFalse);
        ++st.retiredSelectUops;

        break;
      }
      case UopKind::EnterPred:
      case UopKind::EnterAlt:
      case UopKind::ExitPred:
        ++st.retiredExtraUops;
        break;
      case UopKind::Normal: {
        if (is_false) {
            // A predicated-FALSE instruction frees the physical register
            // it allocated itself and leaves no architectural trace.
            ++st.retiredFalseInsts;
            if (di.hasDest)
                prf.free(robDest[slot]); // false-path self free
            if (di.isStore())
                sb.retireHead(seq); // dropped, not sent to memory
            break;
        }

        if (di.hasDest) {
            retiredArch.write(di.archDest, di.result);
            if (di.oldDest != kNoPhysReg)
                prf.free(di.oldDest); // superseded mapping
        }
        if (di.isStore()) {
            SbEntry e = sb.retireHead(seq);

            dmp_assert(e.addrKnown, "retiring store without address");
            if (!e.dead) {
                memory->store(e.addr, e.data);
                caches.storeAccess(e.addr, now);
            }
        }
        ++st.retiredInsts;
        if (di.isCondBranch) {
            ++st.retiredCondBranches;
            if (di.actualNextPc != di.predNextPc)
                ++st.retiredMispredCondBranches;
            trainPredictors(di);
        } else if (di.isControl) {
            ++st.retiredControl;
            if (isa::isIndirect(di.si.op)) {
                itc.update(di.pc, di.predInfo.ghr, di.actualNextPc);
            } else if (di.actualTaken) {
                btb.update(di.pc, di.actualNextPc);
            }
        }
        break;
      }
      default:
        dmp_panic("commitInst: bad uop kind");
    }

    if (di.checkpointId >= 0)
        cpPool.release(di.checkpointId, seq);
}


void
Core::trainPredictors(DynInst &di)
{
    // Section 2.7.4 extension: optionally exclude dynamically predicated
    // diverge branches from direction-predictor training.
    bool was_dpred_starter =
        di.isDivergeStarter && di.episode != kNoEpisode;
    if (!(p.extSelectiveUpdate && was_dpred_starter)) {
        if (perceptron)
            perceptron->train(di.pc, di.actualTaken, di.predInfo);
        else
            predictor->train(di.pc, di.actualTaken, di.predInfo);
    }

    if (!p.perfectConfidence)
        jrs->update(di.confIndex, di.actualNextPc != di.predNextPc);

    if (di.actualTaken)
        btb.update(di.pc, di.actualNextPc);
}

} // namespace dmp::core
