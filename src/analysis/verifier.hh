/**
 * @file
 * Guest-program static verifier.
 *
 * Validates the structural invariants every consumer of an
 * isa::Program (timing core, functional simulators, profiler) assumes
 * but never checks up front:
 *
 *  - direct control transfers land in bounds on instruction boundaries
 *  - the program cannot fall through past its last instruction
 *  - RET is encoded against the link register and is not reachable
 *    with a provably empty call stack
 *  - no statically unreachable code (warning; informational when the
 *    program contains indirect jumps whose targets are unknown)
 *  - an instruction-granular must/may register-initialization dataflow
 *    over the FlowGraph, splitting findings into *definitely* read
 *    before any write (`read-before-write`) and read before a write on
 *    only *some* paths (`read-before-write-maybe`). Informational: the
 *    ISA zero-initializes the register file, so either is defined
 *    behaviour — but it usually marks a program-generator bug
 *  - load/store segment and alignment sanity where the effective
 *    address is statically known (r0 base), extended to *proved*
 *    violations on computed addresses when an abstract-interpretation
 *    result (absint.hh) is supplied
 *  - with an absint result: conditional-branch arms proved infeasible
 *    (`dead-branch-arm`), semantically unreachable code the purely
 *    structural reachability sweep cannot see (`unreachable-code-absint`)
 *    and JR/RET proved to jump outside the image (`indirect-target-oob`)
 *
 * Every check is read-only; findings are appended to the caller's
 * Report.
 */

#ifndef DMP_ANALYSIS_VERIFIER_HH
#define DMP_ANALYSIS_VERIFIER_HH

#include <cstddef>

#include "analysis/report.hh"
#include "cfg/cfg.hh"
#include "isa/program.hh"

namespace dmp::analysis
{

class FlowGraph;
struct AbsintResult;

/** Knobs of the program verifier. */
struct VerifyOptions
{
    /**
     * Architectural data-space size for segment checks on statically
     * known addresses (0: skip the bound, keep the alignment check).
     */
    std::size_t memoryBytes = 0;
};

/**
 * Run every verifier pass over `program`, appending findings.
 * @param graph block-level Cfg of the same program (for block ids)
 * @param flow instruction-level may-reach graph of the same program
 * @param absint optional value-analysis result over the same program;
 *        enables proved-address memory errors, dead-arm findings,
 *        semantic unreachability and proved out-of-image indirect jumps
 */
void verifyProgram(const isa::Program &program, const cfg::Cfg &graph,
                   const FlowGraph &flow, const VerifyOptions &opts,
                   Report &report, const AbsintResult *absint = nullptr);

} // namespace dmp::analysis

#endif // DMP_ANALYSIS_VERIFIER_HH
