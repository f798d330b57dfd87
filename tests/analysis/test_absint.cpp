/**
 * @file
 * Abstract-interpretation engine tests: domain algebra, transfer and
 * branch-proof precision on directed programs, and the soundness
 * property — every value FuncSim retires lies inside the abstract
 * value at that program point, over all 15 workloads (both marker
 * configurations) and a sweep of random programs — plus directed tests
 * of the smear, iteration-cap, forced-widening and memory-slot paths
 * and a golden digest of the engine's complete output.
 */

#include <cstdio>
#include <iterator>
#include <gtest/gtest.h>

#include "analysis/absint.hh"
#include "analysis/freq.hh"
#include "cfg/cfg.hh"
#include "core/params.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"
#include "profile/profiler.hh"
#include "workloads/workloads.hh"

using namespace dmp;
using analysis::AbsintOptions;
using analysis::AbsintResult;
using analysis::AbsVal;
using analysis::BranchProof;

namespace
{

AbsVal
interval(SWord lo, SWord hi)
{
    AbsVal v = AbsVal::top();
    v.smin = lo;
    v.smax = hi;
    if (lo >= 0) {
        v.umin = Word(lo);
        v.umax = Word(hi);
    }
    v.reduce();
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// Domain algebra.

TEST(AbsVal, ConstantRoundTrip)
{
    AbsVal v = AbsVal::constant(42);
    EXPECT_TRUE(v.isConstant());
    EXPECT_EQ(v.constantValue(), 42u);
    EXPECT_TRUE(v.contains(42));
    EXPECT_FALSE(v.contains(41));
    EXPECT_EQ(v.count(10), 1u);
    EXPECT_EQ(v.zeros, ~Word(42));
    EXPECT_EQ(v.ones, Word(42));
}

TEST(AbsVal, TopContainsEverything)
{
    AbsVal t = AbsVal::top();
    EXPECT_TRUE(t.isTop());
    EXPECT_FALSE(t.isEmpty());
    EXPECT_TRUE(t.contains(0));
    EXPECT_TRUE(t.contains(~Word(0)));
    EXPECT_TRUE(t.contains(Word(1) << 63));
}

TEST(AbsVal, EmptyContainsNothing)
{
    AbsVal e = AbsVal::empty();
    EXPECT_TRUE(e.isEmpty());
    EXPECT_FALSE(e.contains(0));
    EXPECT_EQ(e.count(10), 0u);
}

TEST(AbsVal, JoinIsUpperBound)
{
    AbsVal a = AbsVal::constant(3);
    AbsVal b = AbsVal::constant(12);
    AbsVal j = AbsVal::join(a, b);
    EXPECT_TRUE(j.contains(3));
    EXPECT_TRUE(j.contains(12));
    EXPECT_FALSE(j.contains(100));
    // 3 = 0b0011, 12 = 0b1100: no common ones, common zeros above bit 3.
    EXPECT_EQ(j.ones, 0u);
    EXPECT_EQ(j.zeros & 0xf, 0u);
    EXPECT_EQ(j.zeros >> 4, ~Word(0) >> 4);
    // Joining with empty is the identity.
    EXPECT_EQ(AbsVal::join(a, AbsVal::empty()), a);
    EXPECT_EQ(AbsVal::join(AbsVal::empty(), b), b);
}

TEST(AbsVal, MeetIsLowerBound)
{
    AbsVal a = interval(0, 10);
    AbsVal b = interval(8, 20);
    AbsVal m = AbsVal::meet(a, b);
    EXPECT_TRUE(m.contains(8));
    EXPECT_TRUE(m.contains(10));
    EXPECT_FALSE(m.contains(7));
    EXPECT_FALSE(m.contains(11));
    // Disjoint intervals meet to empty.
    EXPECT_TRUE(AbsVal::meet(interval(0, 3), interval(5, 9)).isEmpty());
}

TEST(AbsVal, WidenJumpsMovedBounds)
{
    AbsVal prev = interval(0, 4);
    AbsVal next = interval(0, 8);
    AbsVal w = AbsVal::widen(prev, next);
    // Widening is an upper bound of both arguments, keeps the stable
    // lower bound, and at least reaches the grown upper bound.
    EXPECT_TRUE(w.contains(0));
    EXPECT_TRUE(w.contains(4));
    EXPECT_TRUE(w.contains(8));
    EXPECT_GE(w.smax, next.smax);
    EXPECT_EQ(w.smin, 0);
    // An unchanged value widens to itself.
    EXPECT_EQ(AbsVal::widen(prev, prev), prev);
    // Any ascending chain converges in a bounded number of steps
    // (interval bounds jump to extremes, known bits shrink <= 64x).
    AbsVal cur = prev;
    int steps = 0;
    for (SWord hi = 8; steps < 200; hi *= 2, ++steps) {
        AbsVal grown = AbsVal::join(cur, interval(0, hi));
        AbsVal wide = AbsVal::widen(cur, grown);
        if (wide == cur)
            break;
        cur = wide;
        if (hi > (SWord(1) << 60))
            hi = 8; // keep feeding fresh values below the extreme
    }
    EXPECT_LT(steps, 200) << "widening failed to converge";
}

TEST(AbsVal, ReduceTightensAcrossDomains)
{
    // Interval [1, 9] with the low 3 bits known zero: the bit-pattern
    // maximum (~zeros) caps the range at 8, and containment rejects
    // every value with a known-zero bit set.
    AbsVal v = interval(1, 9);
    v.zeros |= 7;
    v.reduce();
    EXPECT_EQ(v.umax, 8u);
    EXPECT_TRUE(v.contains(8));
    EXPECT_FALSE(v.contains(9));
    EXPECT_FALSE(v.contains(4));
    // And agreeing interval bounds pin high bits: [5, 5] is constant.
    AbsVal c = interval(5, 5);
    EXPECT_TRUE(c.isConstant());
    EXPECT_EQ(c.ones, 5u);
    EXPECT_EQ(c.zeros, ~Word(5));
}

TEST(AbsVal, CountSaturates)
{
    AbsVal v = interval(0, 1000);
    EXPECT_EQ(v.count(10), 10u);
    EXPECT_EQ(v.count(2000), 1001u);
    EXPECT_EQ(AbsVal::top().count(5), 5u);
}

// ---------------------------------------------------------------------
// Transfers and proofs on directed programs.

TEST(Absint, ConstantFolding)
{
    isa::ProgramBuilder b;
    b.li(1, 5);
    b.li(2, 7);
    b.add(3, 1, 2);
    Addr at = b.halt();
    isa::Program prog = b.build();

    AbsintResult r = analysis::runAbsint(prog);
    ASSERT_TRUE(r.ran);
    AbsVal v = r.regBefore(prog.indexOf(at), 3);
    ASSERT_TRUE(v.isConstant());
    EXPECT_EQ(v.constantValue(), 12u);
}

TEST(Absint, KnownBitsThroughAnd)
{
    isa::ProgramBuilder b;
    b.add(1, 2, 3); // r2, r3 start as architectural zeros -> r1 = 0
    b.li(1, 0x123);
    b.andi(4, 1, 1);
    Addr at = b.halt();
    isa::Program prog = b.build();

    AbsintResult r = analysis::runAbsint(prog);
    ASSERT_TRUE(r.ran);
    AbsVal v = r.regBefore(prog.indexOf(at), 4);
    // andi x, 1 proves bits 1..63 zero and here folds to exactly 1.
    EXPECT_EQ(v.zeros, ~Word(1));
    ASSERT_TRUE(v.isConstant());
    EXPECT_EQ(v.constantValue(), 1u);
}

TEST(Absint, ProvesOneSidedBranch)
{
    isa::ProgramBuilder b;
    b.li(1, 4);
    isa::Label off = b.newLabel();
    Addr br = b.blt(1, 0, off); // 4 < 0: never taken
    b.halt();
    b.bind(off);
    Addr dead = b.halt();
    isa::Program prog = b.build();

    AbsintResult r = analysis::runAbsint(prog);
    ASSERT_TRUE(r.ran);
    BranchProof p = r.proofAt(br);
    EXPECT_EQ(p.status, BranchProof::Status::NotTaken);
    EXPECT_EQ(r.stats.provedNotTaken, 1u);
    // The taken arm is semantically unreachable.
    EXPECT_FALSE(r.in[prog.indexOf(dead)].reachable);
    EXPECT_GE(r.stats.unreachable, 1u);
}

TEST(Absint, CountedLoopTripBound)
{
    isa::ProgramBuilder b;
    b.li(10, 8);
    isa::Label loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    Addr br = b.blt(1, 10, loop); // r1 walks 1..8: 7 back edges
    b.halt();
    isa::Program prog = b.build();

    AbsintResult r = analysis::runAbsint(prog);
    ASSERT_TRUE(r.ran);
    BranchProof p = r.proofAt(br);
    EXPECT_TRUE(p.backward);
    ASSERT_GT(p.tripMax, 0u) << "loop counter should be bounded";
    EXPECT_LE(p.tripMax, 16u) << "bound should be near the real trip";
    EXPECT_EQ(r.stats.tripBounded, 1u);
}

TEST(Absint, ResolvesConstantIndirectJump)
{
    constexpr Addr kBase = 0x2000;
    isa::ProgramBuilder b(kBase);
    b.li(1, SWord(kBase + 12)); // the halt below
    Addr jr = b.jr(1);
    b.addi(2, 2, 1); // skipped
    b.halt();        // kBase + 12
    isa::Program prog = b.build();

    AbsintResult r = analysis::runAbsint(prog);
    ASSERT_TRUE(r.ran);
    EXPECT_FALSE(r.smeared);
    EXPECT_EQ(r.stats.indirectResolved, 1u);
    auto it = r.resolvedIndirects.find(prog.indexOf(jr));
    ASSERT_NE(it, r.resolvedIndirects.end());
    ASSERT_EQ(it->second.size(), 1u);
    // The skipped instruction is proved unreachable.
    EXPECT_FALSE(r.in[prog.indexOf(jr) + 1].reachable);
}

TEST(Absint, ProofsOverrideFreqHeuristics)
{
    isa::ProgramBuilder b;
    b.li(1, 4);
    isa::Label off = b.newLabel();
    Addr br = b.blt(1, 0, off); // proved never taken
    b.halt();
    b.bind(off);
    b.halt();
    isa::Program prog = b.build();

    AbsintResult r = analysis::runAbsint(prog);
    ASSERT_TRUE(r.ran);
    const cfg::Cfg graph = cfg::Cfg::build(prog);
    analysis::FreqEstimate heur =
        analysis::estimateFrequencies(prog, graph);
    analysis::FreqEstimate proved =
        analysis::estimateFrequencies(prog, graph, &r);

    cfg::BlockId blk = graph.blockContaining(br);
    ASSERT_NE(blk, cfg::kNoBlock);
    // Heuristics clamp to [0.01, 0.99]; the proof escapes the clamp.
    EXPECT_GE(heur.takenProb[blk], 0.01);
    EXPECT_EQ(proved.takenProb[blk], 0.0);
    EXPECT_EQ(proved.heuristic[blk], analysis::ProbHeuristic::Proved);
    // The pre-proof heuristic estimate survives alongside the proof —
    // the marking cost model selects from it, not from the 0/1.
    EXPECT_EQ(proved.heurTakenProb[blk], heur.takenProb[blk]);
}

TEST(Absint, InitialDataOptionGatesImageProofs)
{
    // Each proof below holds only because of the initial data image:
    // with assumeInitialData off memory is havocked and the branch must
    // stay unproven. A tracked slot (an r0-relative load) reads the
    // image when the state is seeded, a constant address through a
    // register reads it at the load.
    struct Case
    {
        const char *what;
        std::vector<std::pair<Addr, Word>> data;
        bool viaReg;
        Addr addr;
        Word expect;
    };
    // Two runs, 0x100-0x110 and 0x120-0x128, one unwritten word between.
    const std::vector<std::pair<Addr, Word>> twoRuns = {
        {0x100, 11}, {0x108, 12}, {0x110, 13}, {0x120, 21}, {0x128, 22}};
    const Case cases[] = {
        {"slot", {{64, 7}}, false, 64, 7},
        {"slot, later of two writes", {{64, 5}, {8, 1}, {64, 7}}, false,
         64, 7},
        {"constant load, no data word", {{64, 7}}, true, 0x200, 0},
        {"constant load, first word", {{0x100, 11}, {0x108, 12},
         {0x110, 13}}, true, 0x100, 11},
        {"constant load, last word", {{0x100, 11}, {0x108, 12},
         {0x110, 13}}, true, 0x110, 13},
        {"two runs, before the first", twoRuns, true, 0x0f8, 0},
        {"two runs, first word of the first", twoRuns, true, 0x100, 11},
        {"two runs, last word of the first", twoRuns, true, 0x110, 13},
        {"two runs, the gap between them", twoRuns, true, 0x118, 0},
        {"two runs, first word of the second", twoRuns, true, 0x120, 21},
        {"two runs, last word of the second", twoRuns, true, 0x128, 22},
        {"two runs, past the second", twoRuns, true, 0x130, 0},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        isa::ProgramBuilder b;
        for (const auto &[a, w] : c.data)
            b.dataWord(a, w);
        if (c.viaReg) {
            b.li(3, std::int64_t(c.addr));
            b.ld(1, 3, 0);
        } else {
            b.ld(1, 0, std::int64_t(c.addr));
        }
        b.li(2, std::int64_t(c.expect));
        isa::Label eq = b.newLabel();
        Addr br = b.beq(1, 2, eq);
        b.halt();
        b.bind(eq);
        b.halt();
        isa::Program prog = b.build();

        AbsintResult withData = analysis::runAbsint(prog);
        ASSERT_TRUE(withData.ran);
        EXPECT_EQ(withData.proofAt(br).status, BranchProof::Status::Taken);

        AbsintOptions ao;
        ao.assumeInitialData = false;
        AbsintResult havocked = analysis::runAbsint(prog, ao);
        ASSERT_TRUE(havocked.ran);
        EXPECT_EQ(havocked.proofAt(br).status, BranchProof::Status::None);
    }
}

TEST(Absint, AbsintAddMatchesConcreteWrap)
{
    AbsVal a = AbsVal::constant(~Word(0)); // -1
    AbsVal b = AbsVal::constant(2);
    AbsVal s = analysis::absintAdd(a, b);
    ASSERT_TRUE(s.isConstant());
    EXPECT_EQ(s.constantValue(), 1u); // wraps

    AbsVal t = analysis::absintAdd(AbsVal::top(), b);
    EXPECT_TRUE(t.contains(2));
    EXPECT_TRUE(t.contains(1)); // ~0 + 2
}

// ---------------------------------------------------------------------
// Soundness: lockstep against FuncSim. Every retired register value
// (and every tracked-slot memory value) must be contained in the
// abstract in-state of the next program point.

namespace
{

/** Run `prog` under FuncSim and check containment at every step. */
void
checkLockstep(const isa::Program &prog, const std::string &what,
              std::uint64_t max_insts)
{
    AbsintOptions ao;
    AbsintResult r = analysis::runAbsint(prog, ao);
    ASSERT_TRUE(r.ran) << what << ": engine declined";

    // The core's image size, as dmp run passes it (CoreParams).
    isa::MemoryImage mem(core::CoreParams{}.memoryBytes);
    isa::FuncSim sim(prog, mem);

    std::uint64_t escapes = 0;
    sim.visitRun(max_insts, [&](Addr, const isa::Inst &, bool, bool,
                                Addr nextPc, Addr memAddr) {
        if (escapes > 4 || !prog.contains(nextPc))
            return; // off-image next pc: nothing to check
        const std::size_t idx = prog.indexOf(nextPc);
        const analysis::AbsState &st = r.in[idx];
        if (!st.reachable) {
            ++escapes;
            ADD_FAILURE() << what << ": pc 0x" << std::hex << nextPc
                          << " retired but proved unreachable";
            return;
        }
        const isa::ArchState &arch = sim.state();
        for (std::size_t reg = 0; reg < isa::kNumArchRegs; ++reg) {
            const Word v = reg == isa::kZeroReg ? 0 : arch.regs[reg];
            if (!st.regs[reg].contains(v)) {
                ++escapes;
                ADD_FAILURE()
                    << what << ": pc 0x" << std::hex << nextPc
                    << " r" << std::dec << reg << " = 0x" << std::hex
                    << v << " escapes [" << st.regs[reg].smin << ", "
                    << st.regs[reg].smax << "] u[" << st.regs[reg].umin
                    << ", " << st.regs[reg].umax << "]";
            }
        }
        // Tracked memory slots: only re-checked after memory traffic.
        if (memAddr == kNoAddr)
            return;
        for (std::size_t s = 0; s < r.slotAddrs.size(); ++s) {
            const Word v = mem.load(r.slotAddrs[s]);
            if (!st.slots[s].contains(v)) {
                ++escapes;
                ADD_FAILURE()
                    << what << ": pc 0x" << std::hex << nextPc
                    << " slot @0x" << r.slotAddrs[s] << " = 0x" << v
                    << " escapes its abstract value";
            }
        }
    });
    EXPECT_EQ(escapes, 0u) << what;
}

} // namespace

TEST(AbsintSoundness, AllWorkloadsBothMarkerConfigs)
{
    const core::CoreParams defaults;
    for (const auto &info : workloads::workloadList()) {
        for (bool loopExt : {false, true}) {
            workloads::WorkloadParams p;
            p.iterations = 40;
            p.seed = 0x7e41a;
            isa::Program prog = workloads::buildWorkload(info.name, p);
            profile::MarkerConfig mc;
            mc.markLoopBranches = loopExt;
            profile::profileAndMark(prog, defaults.memoryBytes, mc);
            checkLockstep(prog,
                          info.name + (loopExt ? "+loop-ext" : ""),
                          60000);
        }
    }
}

TEST(AbsintSoundness, RandomProgramSweep)
{
    for (std::uint64_t structure = 0; structure < 12; ++structure) {
        for (std::uint64_t data = 0; data < 2; ++data) {
            isa::Program prog = workloads::buildRandomProgram(
                0x5eed00 + structure, 0xda7a00 + data);
            char what[48];
            std::snprintf(what, sizeof(what), "random(%llu,%llu)",
                          static_cast<unsigned long long>(structure),
                          static_cast<unsigned long long>(data));
            checkLockstep(prog, what, 40000);
        }
    }
}

// ---------------------------------------------------------------------
// Fixpoint paths the workloads rarely or never drive.

TEST(AbsintSoundness, UnresolvableJumpSmearsEveryPoint)
{
    // The call's summary edge havocs r2, so `jr r2` has no enumerable
    // target even though it concretely lands on the halt.
    constexpr Addr kBase = 0x2000;
    isa::ProgramBuilder b(kBase);
    isa::Label fn = b.newLabel();
    b.li(2, SWord(kBase + 4 * isa::kInstBytes)); // the halt below
    b.call(fn);
    b.jr(2);
    b.addi(1, 1, 1); // concretely skipped
    b.halt();
    b.bind(fn);
    b.ret();
    isa::Program prog = b.build();

    // Narrowing re-spreads the smear, so also check the bare worklist
    // fixpoint (narrowIters 0).
    for (unsigned narrow : {0u, 2u}) {
        AbsintOptions ao;
        ao.narrowIters = narrow;
        AbsintResult r = analysis::runAbsint(prog, ao);
        ASSERT_TRUE(r.ran);
        EXPECT_TRUE(r.smeared);
        EXPECT_GE(r.stats.indirectUnresolved, 1u);
        // The smear (r2 = top, memory havocked) joins into every point.
        for (std::size_t i = 0; i < prog.size(); ++i) {
            EXPECT_TRUE(r.in[i].reachable) << "inst " << i;
            EXPECT_TRUE(r.in[i].memHavoc) << "inst " << i;
            EXPECT_TRUE(r.in[i].regs[2].isTop()) << "inst " << i;
        }
    }
    checkLockstep(prog, "smear", 100);
}

TEST(Absint, IterationCapGivesUpWithNoProofs)
{
    // With widening disabled the counter's interval climbs one value
    // per trip round the loop, far past the iteration cap.
    isa::ProgramBuilder b;
    b.li(10, SWord(1) << 30);
    isa::Label loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    Addr br = b.blt(1, 10, loop);
    b.halt();
    isa::Program prog = b.build();

    AbsintOptions ao;
    ao.widenDelay = ~0u;
    AbsintResult r = analysis::runAbsint(prog, ao);
    EXPECT_FALSE(r.ran);
    EXPECT_EQ(r.stats.iterations, 256 * prog.size() + 1024 + 1);
    EXPECT_TRUE(r.in.empty());
    EXPECT_TRUE(r.branchProofs.empty());
    EXPECT_TRUE(r.resolvedIndirects.empty());
    EXPECT_EQ(r.proofAt(br).status, BranchProof::Status::None);
    EXPECT_TRUE(r.regBefore(prog.indexOf(br), 1).isTop());

    // Widening at the loop head makes the same program converge.
    EXPECT_TRUE(analysis::runAbsint(prog).ran);
}

TEST(AbsintSoundness, IndirectLoopConvergesViaForcedWidening)
{
    // The only cycle closes through a resolved `jr`: the Cfg sees no
    // back edge, so no loop head is a widening point and only the
    // visit-count backstop stops the counter's ascending chain.
    constexpr Addr kBase = 0x2000;
    isa::ProgramBuilder b(kBase);
    b.li(2, SWord(kBase + isa::kInstBytes)); // the addi below
    Addr head = b.addi(1, 1, 1);
    Addr jr = b.jr(2);
    b.halt();
    isa::Program prog = b.build();
    ASSERT_TRUE(cfg::backEdges(cfg::Cfg::build(prog)).empty());

    AbsintResult r = analysis::runAbsint(prog);
    ASSERT_TRUE(r.ran) << "backstop failed to stop the chain";
    EXPECT_FALSE(r.smeared);
    auto it = r.resolvedIndirects.find(prog.indexOf(jr));
    ASSERT_NE(it, r.resolvedIndirects.end());
    EXPECT_EQ(it->second,
              std::vector<std::uint32_t>{std::uint32_t(prog.indexOf(head))});
    // The counter was widened, not enumerated.
    const AbsVal ctr = r.regBefore(prog.indexOf(head), 1);
    EXPECT_TRUE(ctr.contains(0));
    EXPECT_TRUE(ctr.contains(Word(1) << 40));
    checkLockstep(prog, "indirect-loop", 2000);

    // Without any widening the same chain runs into the iteration cap.
    AbsintOptions ao;
    ao.widenDelay = ~0u;
    EXPECT_FALSE(analysis::runAbsint(prog, ao).ran);
}

// ---------------------------------------------------------------------
// Golden digest: the fixpoint engine's complete output (every in-state,
// slot, proof, resolved indirect and counter, iterations included) on
// the 15 workloads at the train and ref data seeds, a random-program
// sweep and directed memory-slot programs, each at two narrowing
// depths. The expected digests were taken before the in-place join
// rewrite of the worklist loop; any change to join order, widening, a
// transfer function or a program generator moves them.

namespace
{

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void add(const AbsVal &v)
    {
        add(Word(v.smin));
        add(Word(v.smax));
        add(v.umin);
        add(v.umax);
        add(v.zeros);
        add(v.ones);
    }
};

std::uint64_t
digestResult(const AbsintResult &r)
{
    Fnv f;
    f.add(r.ran);
    f.add(r.smeared);
    f.add(r.in.size());
    for (const analysis::AbsState &s : r.in) {
        f.add(s.reachable);
        f.add(s.memHavoc);
        for (const AbsVal &v : s.regs)
            f.add(v);
        f.add(s.slots.size());
        for (const AbsVal &v : s.slots)
            f.add(v);
    }
    f.add(r.slotAddrs.size());
    for (Word a : r.slotAddrs)
        f.add(a);
    f.add(r.branchProofs.size());
    for (const auto &[pc, p] : r.branchProofs) {
        f.add(pc);
        f.add(std::uint64_t(p.status));
        f.add(p.backward);
        f.add(p.tripMax);
    }
    f.add(r.resolvedIndirects.size());
    for (const auto &[idx, targets] : r.resolvedIndirects) {
        f.add(idx);
        f.add(targets.size());
        for (std::uint32_t t : targets)
            f.add(t);
    }
    const analysis::AbsintStats &st = r.stats;
    for (std::size_t v :
         {st.insts, st.unreachable, st.branches, st.provedTaken,
          st.provedNotTaken, st.tripBounded, st.indirectResolved,
          st.indirectUnresolved, st.nontrivialRegs, st.iterations})
        f.add(v);
    return f.h;
}

/** One program of the golden set, named for failure messages. */
struct GoldenCase
{
    std::string name;
    isa::Program prog;
    bool assumeInitialData = true;
};

constexpr Addr kSlotA = 0x8000; ///< seeded by the initial data
constexpr Addr kSlotB = 0x8008; ///< seeded by the initial data
constexpr Addr kSlotC = 0x8010; ///< only ever stored to

/**
 * Strong slot updates: r0-relative loads and stores at constant
 * addresses, a counter kept in a slot round a loop (so slot joins and
 * widening at the loop head), and a slot with no initial data.
 */
isa::Program
slotConstProgram()
{
    isa::ProgramBuilder b;
    b.dataWord(kSlotA, 7);
    b.dataWord(kSlotB, 100);
    b.ld(2, 0, SWord(kSlotB));
    isa::Label loop = b.newLabel();
    isa::Label done = b.newLabel();
    b.bind(loop);
    b.ld(1, 0, SWord(kSlotA));
    b.addi(1, 1, 3);
    b.st(0, SWord(kSlotA), 1);
    b.ld(3, 0, SWord(kSlotA));
    b.blt(3, 2, loop);
    b.st(0, SWord(kSlotC), 3);
    b.ld(4, 0, SWord(kSlotC));
    b.ld(5, 0, SWord(kSlotB));
    b.beq(5, 2, done); // provable from the untouched slot
    b.addi(6, 6, 1);
    b.bind(done);
    b.halt();
    return b.build();
}

/**
 * Weak slot updates: a store through a computed base whose range
 * covers two tracked slots joins into both, and the loads after it
 * decide a branch.
 */
isa::Program
slotWeakProgram()
{
    isa::ProgramBuilder b;
    b.dataWord(kSlotA, 1);
    b.dataWord(kSlotB, 2);
    b.li(9, 4);
    isa::Label loop = b.newLabel();
    isa::Label skip = b.newLabel();
    b.bind(loop);
    b.andi(6, 7, 8); // 0 or 8
    b.li(5, SWord(kSlotA));
    b.add(5, 5, 6);
    b.addi(8, 7, 40);
    b.st(5, 0, 8); // may write kSlotA or kSlotB
    b.ld(1, 0, SWord(kSlotA));
    b.ld(2, 0, SWord(kSlotB));
    b.bltu(1, 2, skip);
    b.addi(10, 10, 1);
    b.bind(skip);
    b.addi(7, 7, 8);
    b.addi(9, 9, -1);
    b.bne(9, 0, loop);
    b.ld(3, 0, SWord(kSlotC));
    b.halt();
    return b.build();
}

/**
 * A call between slot accesses: the callee's edge sees the caller's
 * slots, and the summary edge havocs every slot and register.
 */
isa::Program
slotCallProgram()
{
    isa::ProgramBuilder b;
    b.dataWord(kSlotA, 5);
    isa::Label fn = b.newLabel();
    isa::Label start = b.newLabel();
    isa::Label same = b.newLabel();
    b.jmp(start);
    b.bind(fn);
    b.ld(7, 0, SWord(kSlotB));
    b.addi(7, 7, 1);
    b.st(0, SWord(kSlotA), 7);
    b.ret();
    b.bind(start);
    b.li(3, 11);
    b.st(0, SWord(kSlotB), 3);
    b.ld(1, 0, SWord(kSlotA));
    b.call(fn);
    b.ld(2, 0, SWord(kSlotA));
    b.ld(4, 0, SWord(kSlotB));
    b.beq(2, 1, same);
    b.addi(6, 6, 1);
    b.bind(same);
    b.halt();
    return b.build();
}

std::vector<GoldenCase>
goldenPrograms()
{
    std::vector<GoldenCase> out;
    for (const auto &info : workloads::workloadList()) {
        // SimConfig's train and ref data seeds.
        for (const auto &[tag, seed] :
             {std::pair<const char *, std::uint64_t>{"train", 0x7e41a},
              {"ref", 0x4ef}}) {
            workloads::WorkloadParams p;
            p.seed = seed;
            out.push_back({info.name + "@" + tag,
                           workloads::buildWorkload(info.name, p)});
        }
    }
    for (std::uint64_t structure = 0; structure < 30; ++structure) {
        for (std::uint64_t data = 0; data < 2; ++data) {
            char name[48];
            std::snprintf(name, sizeof(name), "random(%llu,%llu)",
                          static_cast<unsigned long long>(structure),
                          static_cast<unsigned long long>(data));
            out.push_back({name, workloads::buildRandomProgram(
                                     0x5eed00 + structure,
                                     0xda7a00 + data)});
        }
    }
    // No generated program tracks a memory slot; these do.
    out.push_back({"slot-const", slotConstProgram()});
    out.push_back({"slot-weak", slotWeakProgram()});
    out.push_back({"slot-call", slotCallProgram()});
    out.push_back({"slot-const/no-initial-data", slotConstProgram(), false});
    return out;
}

} // namespace

/**
 * Expected digests in goldenPrograms() order, narrowIters 2 then 1 for
 * each program (so four per workload: train/n2, train/n1, ref/n2,
 * ref/n1). The slot programs' digests were taken with an engine whose
 * states held whole AbsVals, one per register and slot.
 */
constexpr std::uint64_t kGoldenDigests[] = {
    0xc19c513e905cb361ull, 0xa4f9fcd869504b21ull, 0xcd7a9a8c8cbefa5dull,
    0xdec2ffd5440b25ddull, 0xfffc351517c6e747ull, 0xfffc351517c6e747ull,
    0x413ef54ff45b93dbull, 0x413ef54ff45b93dbull, 0x1b57df81c299c151ull,
    0x54c5a40a245f7b11ull, 0x2be1c40fc64c24ddull, 0xd4ce0f49ae178e1dull,
    0x6ceb677cb14159f0ull, 0x7f51950f6540ca30ull, 0x3c85f51f18a90f9cull,
    0x92b2c920d444445cull, 0x6c00e99c3f37dd65ull, 0x6c00e99c3f37dd65ull,
    0x6c00e99c3f37dd65ull, 0x6c00e99c3f37dd65ull, 0x1e60ab4adf3793b4ull,
    0x18dd6c8d61cdabb4ull, 0xc479d83aae5a1830ull, 0x7147deb7cd84bc70ull,
    0x880e4d391d85ee9dull, 0x84212e064b0a893dull, 0x6d4cac56bf1acb3full,
    0x2c1b5ce4a9fb6f2full, 0x94bcb961c85ec6dbull, 0xb05124596352255bull,
    0xf12b4005a1bbb3d7ull, 0x086c9f0943528d97ull, 0xfbaf2b4842d84a1eull,
    0xfbaf2b4842d84a1eull, 0x108b583a1e38eac5ull, 0x108b583a1e38eac5ull,
    0xe3aa889100046440ull, 0x64f5c68849555300ull, 0x017e8e69ef4d80b4ull,
    0x78879850596c3834ull, 0x4260ea895109fba3ull, 0x4260ea895109fba3ull,
    0xc8729bf3237a4427ull, 0xc8729bf3237a4427ull, 0x7fd4edf9d0bef8b3ull,
    0x7fabe83d50c310b3ull, 0x656c000ad79ff01full, 0xdb9ed19f422b78dfull,
    0x881d696e2c39f2aeull, 0x95d9b57c840f526eull, 0x4ac5c3d70c8daaa6ull,
    0x54a733f3066c92a6ull, 0xa44a67ce3e5fea36ull, 0x6b4c9d8a632265caull,
    0xc5134a21ee784756ull, 0x4afaa4382bcc316aull, 0xceed0a0bda71b3ceull,
    0xfcfd4bfdc692bbceull, 0x1e07ad8ab461bd5aull, 0x93d6e7b4effea55aull,
    0x577deeae9e49dff3ull, 0x8dc3ea19ba8e5033ull, 0xd365492ac80de7abull,
    0x66fd599d991736ebull, 0x0650d7fdcde9eab1ull, 0x0650d7fdcde9eab1ull,
    0x9ec43fc456703ddeull, 0x9ec43fc456703ddeull, 0xb2fa57d099e13904ull,
    0xb7f1319725a84c44ull, 0xcc22267a7ddebea4ull, 0x85a2a6a1772292e4ull,
    0xaea1bc44a972086aull, 0xa0597ef7712598eaull, 0x879892837a782f81ull,
    0xe61210573a51a701ull, 0x1d5c0538e050d182ull, 0x8898af24aab59ceeull,
    0x8180a71f691bcf1aull, 0x25fdda9f493c2e26ull, 0xae3cbbf7b0e3474eull,
    0xb797aa52d70359a7ull, 0xdeafae33976af646ull, 0xb37535467c28650full,
    0x6adf7b093faceafeull, 0x6adf7b093faceafeull, 0x9e0e063256f9c8f6ull,
    0x9e0e063256f9c8f6ull, 0xfd03775c7d62cd95ull, 0xfd03775c7d62cd95ull,
    0x3592c7980b9468edull, 0x3592c7980b9468edull, 0x546aa4a69511f097ull,
    0x9903fb06bf5c9657ull, 0xd57b19391b2943c7ull, 0x4daf8554b0b72887ull,
    0xa2d8b012c8399053ull, 0xa2d8b012c8399053ull, 0x7243b85c8ca89b43ull,
    0x7243b85c8ca89b43ull, 0x4890b17d8b15e00aull, 0x7cd2b0b406da4e4aull,
    0xe441da120c21f8f6ull, 0xec8ec9d2468fecb6ull, 0xc0d341019e16442dull,
    0xd55a3385f8b1402dull, 0x58ca934504fa368dull, 0xbf6d4fdaca01228dull,
    0x33ec7eb4b99593d2ull, 0x506907745cac3ad2ull, 0xdad74639bf2e5550ull,
    0xc4c905c8d1123d50ull, 0xfe6203656d65a43dull, 0x5388a47d1dead8fdull,
    0x018e468d0b10e46full, 0xbd9931405fc7452full, 0x42d6a0549b69537dull,
    0x938e81980615927dull, 0xa035c0b418da69a2ull, 0x4f7ddf70ae2e2aa2ull,
    0x0f54bd82eed71f04ull, 0x0f54bd82eed71f04ull, 0x68d6531e20aab95cull,
    0x68d6531e20aab95cull, 0x7bcea7880f49be92ull, 0xb9b96ca72f016b92ull,
    0x7c816cafcb5dbf09ull, 0x958f7e0fc106d789ull, 0x55be0531076cba9eull,
    0x55be0531076cba9eull, 0x88872e1115df48bdull, 0x88872e1115df48bdull,
    0x33d08aa9297aff1dull, 0x33d08aa9297aff1dull, 0x33d08aa9297aff1dull,
    0x33d08aa9297aff1dull, 0x596e4e6ca212d569ull, 0x596e4e6ca212d569ull,
    0x596e4e6ca212d569ull, 0x596e4e6ca212d569ull, 0x3914a66990fc1ab5ull,
    0x53c7cb2b9e7b33f5ull, 0xdff93b9c70a17565ull, 0x93266051527f04a5ull,
    0x4e184443bb1517e9ull, 0x4e184443bb1517e9ull, 0x724d1669ffff8941ull,
    0x724d1669ffff8941ull, 0x551bf8cc511c2c8aull, 0x551bf8cc511c2c8aull,
    0x551bf8cc511c2c8aull, 0x551bf8cc511c2c8aull, 0x26860ddbdbc7da1aull,
    0x964d3d31f704e432ull, 0xe73f9d1eb2cc7099ull, 0xec2d1f2a40f32441ull,
    0x4476ebe807095e3full, 0x2d606c951c3c88bfull, 0x661b2e724aac0f58ull,
    0x937b5203370ae6d8ull, 0x76b25d18631ebcc5ull, 0x756c44239e9e9d85ull,
    0x1879567cc0a4cc29ull, 0xb47572560ee62269ull, 0x8f1fde84a308655bull,
    0xed433b5c7ef01edbull, 0x0cf056cf6337938bull, 0xba1b14e6f4c60a0bull,
    0xed69e33d4dcce230ull, 0xb0871782f963e570ull, 0x524aa84a991de281ull,
    0x18ef0efb028eb2c1ull, 0xa2555753876b46a9ull, 0xa2555753876b46a9ull,
    0x8034942aaf294ba1ull, 0x8034942aaf294ba1ull, 0xbc4af6e506d083b2ull,
    0x04ede03377c422b2ull, 0x973d34be5ae7babaull, 0x79b7c497d77ef33aull,
    // The directed slot programs.
    0x48d0b7f338b09eeaull, 0x23eb3698081ade7eull, 0x9fb366f479622537ull,
    0x9fb366f479622537ull, 0xb84bb6c84703fdf1ull, 0xb84bb6c84703fdf1ull,
    0x1448662af9520b1eull, 0x1448662af9520b1eull
};

TEST(AbsintGolden, DigestsMatchReference)
{
    const std::vector<GoldenCase> cases = goldenPrograms();
    ASSERT_EQ(std::size(kGoldenDigests), 2 * cases.size());
    std::size_t at = 0;
    for (const GoldenCase &c : cases) {
        for (unsigned narrow : {2u, 1u}) {
            AbsintOptions ao;
            ao.narrowIters = narrow;
            ao.assumeInitialData = c.assumeInitialData;
            const std::uint64_t got =
                digestResult(analysis::runAbsint(c.prog, ao));
            ASSERT_EQ(got, kGoldenDigests[at++])
                << "first diverging program: " << c.name
                << " at narrowIters " << narrow << " (digest 0x"
                << std::hex << got << ")";
        }
    }
}

TEST(AbsintSoundness, SlotPrograms)
{
    const std::vector<Word> slots{kSlotA, kSlotB, kSlotC};
    for (const auto &[name, prog] :
         {std::pair<const char *, isa::Program>{"slot-const",
                                                slotConstProgram()},
          {"slot-weak", slotWeakProgram()},
          {"slot-call", slotCallProgram()}}) {
        const AbsintResult r = analysis::runAbsint(prog);
        ASSERT_TRUE(r.ran) << name;
        const std::vector<Word> want =
            name == std::string("slot-call")
                ? std::vector<Word>{kSlotA, kSlotB}
                : slots;
        EXPECT_EQ(r.slotAddrs, want) << name;
        checkLockstep(prog, name, 2000);
    }

    // The untouched slot keeps its initial value across the loop, so
    // the final beq is proved taken; without the initial data it is
    // not.
    const isa::Program cp = slotConstProgram();
    const Addr beq = cp.baseAddr() + 9 * isa::kInstBytes;
    ASSERT_EQ(cp.instAt(cp.indexOf(beq)).op, isa::Opcode::BEQ);
    EXPECT_EQ(analysis::runAbsint(cp).proofAt(beq).status,
              BranchProof::Status::Taken);
    AbsintOptions noData;
    noData.assumeInitialData = false;
    EXPECT_EQ(analysis::runAbsint(cp, noData).proofAt(beq).status,
              BranchProof::Status::None);

    // The weak store joins into both slots its address range covers
    // and leaves the third alone.
    const isa::Program wp = slotWeakProgram();
    const AbsintResult wr = analysis::runAbsint(wp);
    const analysis::AbsState &tail = wr.in[wp.size() - 1];
    EXPECT_TRUE(tail.memHavoc);
    EXPECT_TRUE(tail.slots[0].contains(1));
    EXPECT_TRUE(tail.slots[0].contains(40));
    EXPECT_TRUE(tail.slots[1].contains(2));
    EXPECT_TRUE(tail.slots[1].contains(48));
    EXPECT_TRUE(tail.slots[2].isConstant());

    // The call's summary edge havocs every slot.
    const isa::Program kp = slotCallProgram();
    const AbsintResult kr = analysis::runAbsint(kp);
    const analysis::AbsState &after = kr.in[9]; // the ld after the call
    EXPECT_TRUE(after.memHavoc);
    for (const AbsVal &v : after.slots)
        EXPECT_TRUE(v.isTop());
}
