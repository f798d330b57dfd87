/**
 * @file
 * Event-driven cycle skipping: lockstep equivalence against the
 * full-scan scheduler (a test::NoCycleSkip observer) plus directed
 * clock-jump corner cases — a flush landing exactly on the resume
 * cycle, and an episode whose predicate resolves on the resume cycle.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.hh"
#include "profile/profiler.hh"
#include "workloads/workloads.hh"

namespace dmp
{
namespace
{

/** Everything the skip transformation must leave bit-identical. */
struct RunObservation
{
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::vector<Word> regs;
    Addr finalPc = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, DistSnapshot>> dists;
};

/** Run to completion; with `full_scan`, tick every cycle. */
RunObservation
observeRun(const isa::Program &prog, const core::CoreParams &params,
           bool full_scan)
{
    core::Core machine(prog, params);
    test::NoCycleSkip no_skip;
    if (full_scan)
        machine.addObserver(&no_skip);
    machine.run(~0ULL, 400'000'000ULL);
    EXPECT_TRUE(machine.halted()) << "core did not halt";

    RunObservation obs;
    const core::CoreStats &st = machine.stats();
    obs.cycles = st.cycles.value();
    obs.skipped = st.cyclesSkipped.value();
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        obs.regs.push_back(machine.retiredState().read(ArchReg(r)));
    obs.finalPc = machine.retiredState().pc;
    // Every registered counter except the skip diagnostic itself must
    // be unaffected by how the clock advances. stage_active_cycles is
    // deliberately included: skipped cycles bulk-sample zero, exactly
    // like the full scan samples each idle cycle.
    st.forEachStat(Overloaded{
        [&](std::string_view name, const Counter &c, std::string_view) {
            if (name != "cycles_skipped")
                obs.counters.emplace_back(name, c.value());
        },
        [&](std::string_view name, const Distribution &d,
            std::string_view) { obs.dists.emplace_back(name, d.snapshot()); },
        [](std::string_view, double, std::string_view) {}});
    return obs;
}

void
expectSameDist(const std::string &name, const DistSnapshot &a,
               const DistSnapshot &b, const std::string &what)
{
    EXPECT_EQ(a.samples, b.samples) << what << ": " << name;
    EXPECT_EQ(a.sum, b.sum) << what << ": " << name;
    EXPECT_EQ(a.underflow, b.underflow) << what << ": " << name;
    EXPECT_EQ(a.overflow, b.overflow) << what << ": " << name;
    EXPECT_EQ(a.minVal, b.minVal) << what << ": " << name;
    EXPECT_EQ(a.maxVal, b.maxVal) << what << ": " << name;
    EXPECT_EQ(a.buckets, b.buckets) << what << ": " << name;
}

/**
 * Run with cycle skipping, then again ticking every cycle, and
 * assert the two machines are indistinguishable (architectural state,
 * cycle count, every stat but the skip diagnostic). Returns the
 * skip-enabled run's skipped-cycle count so callers can assert the
 * fast path was actually exercised.
 */
std::uint64_t
expectSkipLockstep(const isa::Program &prog,
                   const core::CoreParams &params, const std::string &what)
{
    RunObservation fast = observeRun(prog, params, false);
    RunObservation slow = observeRun(prog, params, true);
    EXPECT_EQ(slow.skipped, 0u)
        << what << ": full-scan run must not skip";
    EXPECT_EQ(fast.cycles, slow.cycles) << what << ": cycle count";
    EXPECT_EQ(fast.regs, slow.regs) << what << ": architectural registers";
    EXPECT_EQ(fast.finalPc, slow.finalPc) << what << ": final PC";
    EXPECT_EQ(fast.counters.size(), slow.counters.size()) << what;
    if (fast.counters.size() == slow.counters.size()) {
        for (std::size_t i = 0; i < fast.counters.size(); ++i) {
            EXPECT_EQ(fast.counters[i].second, slow.counters[i].second)
                << what << ": counter " << fast.counters[i].first;
        }
    }
    EXPECT_EQ(fast.dists.size(), slow.dists.size()) << what;
    if (fast.dists.size() == slow.dists.size()) {
        for (std::size_t i = 0; i < fast.dists.size(); ++i)
            expectSameDist(fast.dists[i].first, fast.dists[i].second,
                           slow.dists[i].second, what);
    }
    return fast.skipped;

}

isa::Program
markedRandomProgram(std::uint64_t structure_seed)
{
    isa::Program train =
        workloads::buildRandomProgram(structure_seed, 0xAAAA);
    profile::MarkerConfig cfg;
    cfg.profileInsts = 80000;
    profile::profileAndMark(train, 16 * 1024 * 1024, cfg);

    isa::Program ref =
        workloads::buildRandomProgram(structure_seed, 0xBBBB);
    profile::transferMarks(train, ref);
    return ref;
}

// ---------------------------------------------------------------
// Property: random programs, all machine modes, skip vs full scan.
// ---------------------------------------------------------------

class CycleSkipLockstep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CycleSkipLockstep, SkipAndFullScanAreIndistinguishable)
{
    isa::Program p = markedRandomProgram(GetParam());

    struct ModeCase
    {
        const char *name;
        core::CoreParams params;
    };
    ModeCase modes[] = {
        {"base", sim::machine("base")},
        {"dhp", sim::machine("dhp")},
        {"dmp", sim::machine("dmp")},
        {"enh", sim::machine("dmp-enhanced")},
        {"dual", sim::machine("dual")},
    };

    std::uint64_t total_skipped = 0;
    for (ModeCase &m : modes) {
        if (GetParam() % 2)
            m.params.alwaysLowConfidence = true;
        total_skipped += expectSkipLockstep(
            p, m.params,
            std::string("skip-lockstep seed") +
                std::to_string(GetParam()) + "/" + m.name);
        if (HasFatalFailure())
            return;
    }
    // The terminal drain (front end idle behind HALT while the window
    // empties) reliably quiesces at least once per program; a seed
    // whose five runs never skip means the fast path silently died.
    EXPECT_GT(total_skipped, 0u)
        << "no mode skipped a single cycle for seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleSkipLockstep,
                         ::testing::Range(1u, 9u));

// ---------------------------------------------------------------
// Directed: a redirect lands exactly on the resume cycle.
// ---------------------------------------------------------------

/**
 * A cold-missing load feeds an unpredicted indirect jump. Fetch
 * stalls on the indirect (no ITC entry), every stage quiesces for
 * the duration of the memory miss, and the machine clock must jump
 * to the load's completion; the jump's resolution then redirects
 * fetch on the resume cycle. The run is wrong if the skip overshoots
 * (redirect cycle missed) or undershoots (no skip at all).
 */
TEST(CycleSkipDirected, RedirectOnResumeCycle)
{
    isa::ProgramBuilder b;
    isa::Label target = b.newLabel();
    b.li(2, 0x5000);
    b.ld(1, 2, 0); // cold miss: hundreds of idle cycles
    b.jr(1);       // no ITC entry: fetch stalls until execute
    b.halt();      // container for the stalled fall-through
    b.bind(target);
    Addr target_pc = b.here();
    b.addi(3, 0, 7);
    b.halt();
    b.dataWord(0x5000, target_pc);
    isa::Program p = b.build();

    std::uint64_t skipped =
        expectSkipLockstep(p, sim::machine("base"), "jr-resume");
    EXPECT_GT(skipped, 0u) << "miss latency was not skipped";

    core::Core machine(p, sim::machine("base"));
    machine.run();
    ASSERT_TRUE(machine.halted());
    // r3 == 7 proves the post-resume redirect steered fetch to the
    // loaded target (fetch had nothing younger in flight to squash, so
    // this redirect does not count as a pipeline flush).
    EXPECT_EQ(machine.retiredState().read(ArchReg(3)), Word(7));

}

// ---------------------------------------------------------------
// Directed: an episode's predicate resolves on the resume cycle.
// ---------------------------------------------------------------

/**
 * A marked hammock whose diverge branch hangs off a cold-missing
 * load. The episode enters, fetches both paths to the CFM point, and
 * the front end idles behind HALT — so the clock jumps across the
 * miss, and the diverge branch resolves its predicate (terminating
 * the episode's speculative state) on the resume cycle.
 */
TEST(CycleSkipDirected, EpisodeResolvesOnResumeCycle)
{
    isa::ProgramBuilder b;
    isa::Label els = b.newLabel();
    isa::Label merge = b.newLabel();
    b.li(2, 0x5000);
    b.li(4, 0);
    b.ld(1, 2, 0); // cold miss gates the diverge branch
    Addr diverge_pc = b.here();
    b.beq(1, 4, els);
    b.addi(3, 0, 1);
    b.jmp(merge);
    b.bind(els);
    b.addi(3, 0, 2);
    b.bind(merge);
    Addr cfm_pc = b.here();
    b.add(5, 3, 3);
    b.halt();
    b.dataWord(0x5000, 0); // branch taken; predictor guesses cold
    isa::Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.isSimpleHammock = true;
    mark.cfmPoints.push_back(cfm_pc);
    p.setMark(diverge_pc, mark);

    core::CoreParams params = sim::machine("dmp-enhanced");
    params.alwaysLowConfidence = true; // force episode entry

    std::uint64_t skipped =
        expectSkipLockstep(p, params, "episode-resume");
    EXPECT_GT(skipped, 0u) << "miss latency was not skipped";

    core::Core machine(p, params);
    machine.run();
    ASSERT_TRUE(machine.halted());
    EXPECT_GE(machine.stats().dpredEntries.value(), 1u)
        << "the marked hammock must start an episode";
    EXPECT_EQ(machine.retiredState().read(ArchReg(3)), Word(2));
    EXPECT_EQ(machine.retiredState().read(ArchReg(5)), Word(4));
    test::expectCoreMatchesReference(p, params, "episode-resume/ref");
}

} // namespace
} // namespace dmp

