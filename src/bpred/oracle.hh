/**
 * @file
 * Oracle path tracker.
 *
 * Follows the architecturally-correct execution path in lockstep with the
 * front-end: while the fetch stream is on the correct path the oracle
 * executes each fetched instruction functionally and therefore knows the
 * true direction/target of every branch *at fetch time*. When fetch
 * diverges onto a wrong path the oracle freezes at the divergence point
 * and resynchronizes only at explicit redirect events (misprediction
 * recovery, alternate-path start, CFM continuation) whose target equals
 * the frozen correct-path PC.
 *
 * This powers the paper's perfect-conditional-branch-predictor and
 * perfect-confidence-estimator configurations and the Figure 1
 * wrong-path accounting. It is an oracle: it has its own private memory
 * image and never interacts with the timing model's state.
 */

#ifndef DMP_BPRED_ORACLE_HH
#define DMP_BPRED_ORACLE_HH

#include <memory>

#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"

namespace dmp::bpred
{

/** Lockstep correct-path tracker (see file comment). */
class OracleTracker
{
  public:
    OracleTracker(const isa::Program &program, std::size_t mem_bytes);

    /** True while the fetch stream is known to be on the correct path. */
    bool synced() const { return isSynced; }

    /** Correct-path PC the oracle sits at (valid even when frozen). */
    Addr truePc() const;

    /**
     * Peek the architectural behaviour of the instruction at the current
     * correct-path PC without committing the step. Only valid when
     * synced. Used to answer "what will this branch really do?" at fetch.
     */
    isa::StepInfo peek() const;

    /**
     * The front-end fetched the instruction at `pc` and will continue at
     * `chosen_next_pc` (its prediction). Advances the oracle when synced;
     * freezes it when the front-end chose a wrong-path continuation.
     */
    void onFetch(Addr pc, Addr chosen_next_pc);

    /**
     * The front-end redirected fetch to `pc` (flush recovery, dynamic
     * predication path switch, or CFM continuation). Resynchronizes
     * when `pc` is the frozen correct-path PC.
     */
    void onRedirect(Addr pc);

    /** The oracle's architectural state (for end-of-run verification). */
    const isa::ArchState &state() const { return sim->state(); }

    bool halted() const { return sim->halted(); }

  private:
    const isa::Program &prog;
    std::unique_ptr<isa::MemoryImage> memory;
    std::unique_ptr<isa::FuncSim> sim;
    bool isSynced = true;
    /**
     * The last freeze was a *drift*: fetch was redirected away while
     * the oracle was synced (a flush squashed a correct-path stretch
     * the oracle had already walked). In that state the refetched
     * correct path will pass through the oracle's position again, so a
     * sequential fetch of the frozen PC is allowed to resynchronize —
     * something a wrong-path freeze must never do.
     */
    bool driftFrozen = false;
};

} // namespace dmp::bpred

#endif // DMP_BPRED_ORACLE_HH
