/**
 * @file
 * Simple-hammock detection.
 *
 * Dynamic Hammock Predication (Klauser et al., the paper's primary
 * comparison point) can only predicate "simple hammock branches (simple
 * if-else structures with no other control flow inside)". This pass
 * recognizes exactly those shapes so the DHP baseline is marked the same
 * way the paper's was.
 */

#ifndef DMP_CFG_HAMMOCK_HH
#define DMP_CFG_HAMMOCK_HH

#include <map>

#include "cfg/cfg.hh"

namespace dmp::cfg
{

/** Result of classifying one conditional branch's local structure. */
struct HammockInfo
{
    bool isSimpleHammock = false;
    /** Join (reconvergence) address when isSimpleHammock. */
    Addr joinAddr = kNoAddr;
    /** True for if-else (two side blocks); false for bare if. */
    bool hasElse = false;
};

/**
 * Classify the conditional branch ending block `branch_block`.
 *
 * A simple hammock is either:
 *  - if:      branch -> {S, J}, S has J as its only successor, S has the
 *             branch block as its only predecessor, S contains no control
 *             flow (no branches, calls, or indirect transfers except an
 *             optional final unconditional JMP to J);
 *  - if-else: branch -> {S1, S2}, both side blocks as above joining at
 *             the same J.
 */
HammockInfo classifyHammock(const Cfg &cfg, const isa::Program &program,
                            BlockId branch_block);

/**
 * Mark every simple-hammock branch of `program` (the DHP baseline): a
 * mark with isSimpleHammock set and the join as its only CFM point.
 * Purely structural, so the profiled and the static marker write the
 * same set. `cfg` is `program`'s graph.
 * @return the join of each marked branch, by branch PC
 */
std::map<Addr, Addr> markSimpleHammocks(const Cfg &cfg,
                                        isa::Program &program);

} // namespace dmp::cfg

#endif // DMP_CFG_HAMMOCK_HH
