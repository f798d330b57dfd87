/**
 * @file
 * Adversarial markings for the diverge-marking legality linter: each
 * deliberately illegal marking must trigger exactly the expected
 * finding, with the expected severity, at the expected PC — and a
 * corrupted marking, or one transferred onto a build whose code
 * differs, must abort a pre-flight before simulation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/analysis.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "profile/profiler.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace dmp;
using analysis::Severity;

namespace
{

analysis::Report
lint(const isa::Program &prog, unsigned max_depth = 32,
     profile::MarkerConfig mc = {})
{
    analysis::AnalysisOptions ao;
    ao.marker = mc;
    ao.maxPredicateDepth = max_depth;
    ao.verify = false; // isolate the marking checks
    return analysis::analyzeProgram(prog, ao);
}

isa::DivergeMark
divergeMark(std::vector<Addr> cfms)
{
    isa::DivergeMark m;
    m.isDiverge = true;
    m.cfmPoints = std::move(cfms);
    return m;
}

/**
 * The paper's Figure 3 shape: a diverge branch whose two sides contain
 * further control flow and reconverge at `merge`. Returns the branch
 * and merge addresses through the out-parameters.
 */
isa::Program
buildHammockish(Addr &branch, Addr &merge)
{
    isa::ProgramBuilder b;
    b.li(1, 1);
    isa::Label side_c = b.newLabel(), merge_l = b.newLabel();
    branch = b.bne(1, 0, side_c);
    b.addi(3, 3, 7); // side B
    b.addi(4, 4, 1);
    b.jmp(merge_l);
    b.bind(side_c);
    b.addi(3, 3, 13); // side C
    b.addi(4, 4, 2);
    b.bind(merge_l);
    merge = b.add(5, 5, 4);
    b.halt();
    return b.build();
}

} // namespace

TEST(Lint, LegalMarkingIsClean)
{
    Addr branch, merge;
    isa::Program prog = buildHammockish(branch, merge);
    prog.setMark(branch, divergeMark({merge}));
    analysis::Report r = lint(prog);
    EXPECT_TRUE(r.empty()) << r.text();
}

TEST(Lint, DivergeWithoutCfm)
{
    Addr branch, merge;
    isa::Program prog = buildHammockish(branch, merge);
    prog.setMark(branch, divergeMark({}));
    analysis::Report r = lint(prog);

    const analysis::Finding *f = r.first("diverge-no-cfm");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);
}

TEST(Lint, CfmOutOfBounds)
{
    Addr branch, merge;
    isa::Program prog = buildHammockish(branch, merge);
    prog.setMark(branch, divergeMark({Addr(0x7f000)}));
    analysis::Report r = lint(prog);

    const analysis::Finding *f = r.first("cfm-oob");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);
}

TEST(Lint, CfmIsTheBranchItself)
{
    Addr branch, merge;
    isa::Program prog = buildHammockish(branch, merge);
    prog.setMark(branch, divergeMark({branch}));
    analysis::Report r = lint(prog);

    const analysis::Finding *f = r.first("cfm-self");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);
}

TEST(Lint, DuplicateAndExcessCfmPoints)
{
    Addr branch, merge;
    isa::Program prog = buildHammockish(branch, merge);
    profile::MarkerConfig mc;
    mc.maxCfmPoints = 2;
    prog.setMark(branch, divergeMark({merge, merge, merge}));
    analysis::Report r = lint(prog, 32, mc);

    const analysis::Finding *dup = r.first("cfm-duplicate");
    ASSERT_NE(dup, nullptr) << r.text();
    EXPECT_EQ(dup->severity, Severity::Warn);
    const analysis::Finding *cnt = r.first("cfm-count");
    ASSERT_NE(cnt, nullptr) << r.text();
    EXPECT_EQ(cnt->severity, Severity::Warn);
    EXPECT_EQ(r.errors(), 0u);
}

TEST(Lint, CfmUnreachableOnTakenPath)
{
    // The taken side halts without ever passing the CFM point; only
    // the fall-through reaches it. An episode that takes the branch
    // could never merge.
    isa::ProgramBuilder b;
    b.li(1, 1);
    isa::Label taken = b.newLabel();
    Addr branch = b.bne(1, 0, taken);
    b.addi(3, 3, 1); // fall-through side
    Addr merge = b.add(5, 5, 3);
    b.halt();
    b.bind(taken);
    b.addi(4, 4, 1); // taken side: exits without reaching `merge`
    b.halt();
    isa::Program prog = b.build();
    prog.setMark(branch, divergeMark({merge}));
    analysis::Report r = lint(prog);

    const analysis::Finding *f = r.first("cfm-unreachable");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);
    EXPECT_NE(f->message.find("taken"), std::string::npos);
}

TEST(Lint, CfmBeyondMaxDistance)
{
    // Both sides reach the CFM point, but only after more instructions
    // than maxCfmDistance allows on every path: the static shortest
    // path is a lower bound on any dynamic distance, so this is a
    // proof of violation.
    isa::ProgramBuilder b;
    b.li(1, 1);
    isa::Label taken = b.newLabel(), merge_l = b.newLabel();
    Addr branch = b.bne(1, 0, taken);
    for (int i = 0; i < 10; ++i) // fall-through side: 10 insts
        b.addi(3, 3, 1);
    b.jmp(merge_l);
    b.bind(taken);
    for (int i = 0; i < 12; ++i) // taken side: 12 insts
        b.addi(4, 4, 1);
    b.bind(merge_l);
    Addr merge = b.add(5, 5, 3);
    b.halt();
    isa::Program prog = b.build();
    prog.setMark(branch, divergeMark({merge}));

    profile::MarkerConfig tight;
    tight.maxCfmDistance = 4;
    analysis::Report r = lint(prog, 32, tight);
    const analysis::Finding *f = r.first("cfm-distance");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);

    profile::MarkerConfig loose;
    loose.maxCfmDistance = 120;
    EXPECT_EQ(lint(prog, 32, loose).first("cfm-distance"), nullptr);
}

TEST(Lint, NestedDivergesBeyondPredicateDepth)
{
    // Three properly nested diverge regions with a predicate-depth
    // bound of two: the innermost branch is one level too deep.
    isa::ProgramBuilder b;
    b.li(1, 1);
    isa::Label a1 = b.newLabel(), a2 = b.newLabel(), a3 = b.newLabel();
    isa::Label m1 = b.newLabel(), m2 = b.newLabel(), m3 = b.newLabel();
    Addr b1 = b.beq(1, 0, a1);
    b.addi(2, 2, 1);
    Addr b2 = b.beq(1, 0, a2);
    b.addi(2, 2, 1);
    Addr b3 = b.beq(1, 0, a3);
    b.addi(2, 2, 1);
    b.jmp(m3);
    b.bind(a3);
    b.addi(3, 3, 1);
    b.bind(m3);
    Addr m3pc = b.addi(4, 4, 1);
    b.jmp(m2);
    b.bind(a2);
    b.addi(3, 3, 2);
    b.bind(m2);
    Addr m2pc = b.addi(4, 4, 2);
    b.jmp(m1);
    b.bind(a1);
    b.addi(3, 3, 3);
    b.bind(m1);
    Addr m1pc = b.addi(4, 4, 3);
    b.halt();
    isa::Program prog = b.build();
    prog.setMark(b1, divergeMark({m1pc}));
    prog.setMark(b2, divergeMark({m2pc}));
    prog.setMark(b3, divergeMark({m3pc}));

    analysis::Report r = lint(prog, 2);
    const analysis::Finding *f = r.first("nesting-depth");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Warn);
    EXPECT_EQ(f->pc, b3); // only the innermost branch is too deep
    EXPECT_EQ(r.byCode("nesting-depth").size(), 1u);
    EXPECT_EQ(r.first("diverge-overlap"), nullptr) << r.text();

    // With depth 3 allowed the same marking is legal.
    EXPECT_TRUE(lint(prog, 3).empty()) << lint(prog, 3).text();
}

TEST(Lint, OverlappingRegionsWarn)
{
    // The inner branch sits inside the outer region, but every one of
    // its CFM points lies beyond the outer merge point: the two
    // episodes overlap instead of nesting (the twolf/fma3d shape).
    isa::ProgramBuilder b;
    b.li(1, 1);
    isa::Label t = b.newLabel(), ib = b.newLabel();
    isa::Label c = b.newLabel();
    Addr outer = b.beq(1, 0, t);
    Addr inner = b.beq(1, 0, ib); // fall side of `outer`
    b.addi(2, 2, 1);
    b.jmp(c);
    b.bind(ib);
    b.addi(2, 2, 2);
    b.jmp(c);
    b.bind(t);
    b.addi(2, 2, 3); // taken side of `outer`, falls into c
    b.bind(c);
    Addr cpc = b.addi(3, 3, 1); // outer merge
    Addr fin = b.addi(4, 4, 1); // inner "merge": past the outer one
    b.halt();
    isa::Program prog = b.build();
    prog.setMark(outer, divergeMark({cpc}));
    prog.setMark(inner, divergeMark({fin}));

    analysis::Report r = lint(prog);
    const analysis::Finding *f = r.first("diverge-overlap");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Warn);
    EXPECT_EQ(f->pc, inner);
    EXPECT_EQ(r.errors(), 0u) << r.text();
}

TEST(Lint, LoopMarkOnForwardBranch)
{
    Addr branch, merge;
    isa::Program prog = buildHammockish(branch, merge);
    isa::DivergeMark m = divergeMark({merge});
    m.isLoopBranch = true; // but the branch target is forward
    prog.setMark(branch, m);
    analysis::Report r = lint(prog);

    const analysis::Finding *f = r.first("loop-not-backward");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);
}

TEST(Lint, LegalLoopMark)
{
    isa::ProgramBuilder b;
    b.li(1, 4);
    isa::Label loop = b.newLabel();
    b.bind(loop);
    b.addi(2, 2, 1);
    b.addi(1, 1, -1);
    Addr back = b.blt(0, 1, loop);
    Addr exit = b.add(5, 5, 2);
    b.halt();
    isa::Program prog = b.build();
    isa::DivergeMark m = divergeMark({exit});
    m.isLoopBranch = true;
    prog.setMark(back, m);
    analysis::Report r = lint(prog);
    EXPECT_TRUE(r.empty()) << r.text();
}

TEST(Lint, HammockJoinDisagreesWithCfg)
{
    // A textbook if-else hammock, marked with the wrong join address.
    isa::ProgramBuilder b;
    b.li(1, 1);
    isa::Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(1, 0, els);
    b.addi(2, 2, 1);
    b.jmp(join);
    b.bind(els);
    b.addi(3, 3, 1);
    b.bind(join);
    Addr joinpc = b.add(4, 2, 3);
    Addr after = b.halt();
    isa::Program prog = b.build();

    isa::DivergeMark good;
    good.isSimpleHammock = true;
    good.cfmPoints = {joinpc};
    prog.setMark(branch, good);
    EXPECT_TRUE(lint(prog).empty()) << lint(prog).text();

    isa::DivergeMark bad = good;
    bad.cfmPoints = {after}; // one instruction past the real join
    prog.setMark(branch, bad);
    analysis::Report r = lint(prog);
    const analysis::Finding *f = r.first("hammock-join-mismatch");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);
}

TEST(Lint, HammockMarkOnNonHammockShape)
{
    // The "taken side halts" shape is not a simple hammock.
    isa::ProgramBuilder b;
    b.li(1, 1);
    isa::Label taken = b.newLabel();
    Addr branch = b.bne(1, 0, taken);
    b.addi(3, 3, 1);
    Addr merge = b.add(5, 5, 3);
    b.halt();
    b.bind(taken);
    b.addi(4, 4, 1);
    b.halt();
    isa::Program prog = b.build();
    isa::DivergeMark m;
    m.isSimpleHammock = true;
    m.cfmPoints = {merge};
    prog.setMark(branch, m);
    analysis::Report r = lint(prog);

    const analysis::Finding *f = r.first("hammock-shape");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);
}

TEST(Lint, HammockMarkWithoutJoin)
{
    Addr branch, merge;
    isa::Program prog = buildHammockish(branch, merge);
    isa::DivergeMark m;
    m.isSimpleHammock = true; // and no join address
    prog.setMark(branch, m);
    analysis::Report r = lint(prog);

    const analysis::Finding *f = r.first("hammock-no-join");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, branch);
    EXPECT_EQ(r.size(), 1u) << r.text();
}

TEST(Lint, CfmBehindAnIndirectJumpIsUnverifiable)
{
    // The not-taken side leaves through JR r2 (r2 = the merge): the
    // structural sweep cannot follow it.
    isa::ProgramBuilder b;
    const Addr merge_at = b.here() + 5 * isa::kInstBytes;
    b.li(1, 1);
    b.li(2, std::int64_t(merge_at));
    isa::Label side_c = b.newLabel();
    Addr branch = b.bne(1, 0, side_c);
    b.jr(2);
    b.bind(side_c);
    b.addi(3, 3, 1);
    Addr merge = b.add(5, 5, 3);
    b.halt();
    isa::Program prog = b.build();
    ASSERT_EQ(merge, merge_at);
    prog.setMark(branch, divergeMark({merge}));
    analysis::Report r = lint(prog);

    const analysis::Finding *f = r.first("cfm-unverifiable");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Info);
    EXPECT_EQ(f->pc, branch);
    EXPECT_NE(f->message.find("not-taken side"), std::string::npos)
        << f->message;
    EXPECT_EQ(r.size(), 1u) << r.text();
}

/**
 * A diverge mark on a branch with no valid taken target, or on the last
 * instruction, leaves the linter nothing to sweep; the verifier reports
 * the branch itself, and it runs on every program before marking.
 */
TEST(Lint, BadDivergeBranchIsTheVerifiersFinding)
{
    analysis::AnalysisOptions ao; // verifier on

    isa::ProgramBuilder oob;
    oob.li(1, 1);
    Addr branch = oob.emit({isa::Opcode::BEQ, 0, 1, 0, 0, Addr(0x20000)});
    Addr merge = oob.halt();
    isa::Program prog = oob.build();
    prog.setMark(branch, divergeMark({merge}));
    analysis::Report r = analysis::analyzeProgram(prog, ao);
    ASSERT_NE(r.first("branch-target-oob"), nullptr) << r.text();
    EXPECT_EQ(r.errors(), 1u) << r.text();
    EXPECT_TRUE(lint(prog).empty()) << lint(prog).text();

    // The HALT keeps no-reachable-halt out of the count: the loop can
    // leave through the BEQ.
    isa::ProgramBuilder last;
    isa::Label top = last.newLabel(), out = last.newLabel();
    last.jmp(top);
    last.bind(out);
    last.halt();
    last.bind(top);
    Addr first = last.li(1, 1);
    last.beq(1, 3, out);
    branch = last.bne(1, 0, top);
    prog = last.build();
    prog.setMark(branch, divergeMark({first}));
    r = analysis::analyzeProgram(prog, ao);
    ASSERT_NE(r.first("fallthrough-end"), nullptr) << r.text();
    EXPECT_EQ(r.errors(), 1u) << r.text();
    EXPECT_TRUE(lint(prog).empty()) << lint(prog).text();
}

TEST(Lint, PreflightThrowsOnCorruptedMarking)
{
    // Profile a real workload, then corrupt one discovered marking:
    // the pre-flight must reject the program before any simulation.
    workloads::WorkloadParams wp;
    wp.iterations = 300;
    isa::Program prog = workloads::buildWorkload("vpr", wp);
    profile::MarkerConfig mc;
    mc.profileInsts = 100000;
    profile::profileAndMark(prog, 16 * 1024 * 1024, mc);
    ASSERT_FALSE(prog.allMarks().empty());

    analysis::AnalysisOptions ao;
    ao.marker = mc;
    ao.memoryBytes = 16 * 1024 * 1024;
    EXPECT_NO_THROW(analysis::preflightOrThrow(prog, ao, "vpr"));

    // Corrupt the first diverge mark: point its CFM out of the image.
    for (const auto &[pc, mark] : prog.allMarks()) {
        if (!mark.isDiverge)
            continue;
        isa::DivergeMark bad = mark;
        bad.cfmPoints.front() = prog.endAddr() + 0x100;
        prog.setMark(pc, bad);
        break;
    }

    try {
        analysis::preflightOrThrow(prog, ao, "vpr");
        FAIL() << "corrupted marking not caught";
    } catch (const analysis::LintError &e) {
        EXPECT_NE(e.report().first("cfm-oob"), nullptr)
            << e.report().text();
        EXPECT_GE(e.report().errors(), 1u);
        EXPECT_NE(std::string(e.what()).find("vpr"), std::string::npos);
        // The message carries the findings, not a moved-from report.
        EXPECT_NE(std::string(e.what()).find("cfm-oob"), std::string::npos)
            << e.what();
    }
}

TEST(Lint, RefPreflightRejectsMarkOnNonBranch)
{
    // A hand-assembled train/ref pair whose ref build holds an ADDI
    // where the train build's marked branch sits: the transferred mark
    // is refused on the ref image, the one that would run. The ref
    // build is an assembly file, a target sim::markRefBuild can load.
    auto build = [](bool branch, Addr *pc_out, Addr *join_out) {
        const std::string text =
            std::string("li r1, 0\n") +
            (branch ? "beq r1, r0, join\n" : "addi r2, r2, 1\n") +
            "addi r3, r3, 1\njoin: halt\n";
        isa::Program prog = isa::assemble(text);
        *pc_out = prog.baseAddr() + isa::kInstBytes;
        *join_out = prog.baseAddr() + 3 * isa::kInstBytes;
        const std::string path = ::testing::TempDir() + "lint_ref_" +
                                 (branch ? "branch" : "addi") + ".s";
        std::ofstream(path) << text;
        return std::pair{std::move(prog), path};
    };
    Addr pc = 0, join = 0;
    auto [train_build, same] = build(true, &pc, &join);
    sim::MarkedProgram train{std::move(train_build), {}};
    train.program.setMark(pc, divergeMark({join}));
    sim::SimConfig cfg;
    cfg.workload = same;
    EXPECT_NO_THROW(sim::markRefBuild(cfg, &train));

    const std::string ref = build(false, &pc, &join).second;
    cfg.workload = ref;
    try {
        sim::markRefBuild(cfg, &train);
        FAIL() << "mark on a non-branch not caught";
    } catch (const analysis::LintError &e) {
        const analysis::Finding *f = e.report().first("mark-not-branch");
        ASSERT_NE(f, nullptr) << e.report().text();
        EXPECT_EQ(f->severity, Severity::Error);
        EXPECT_EQ(f->pc, pc);
        EXPECT_NE(std::string(e.what()).find("mark-not-branch"),
                  std::string::npos)
            << e.what();
    }
    std::remove(same.c_str());
    std::remove(ref.c_str());
}

TEST(Lint, BatchRunnerPreflightsCleanWorkloads)
{
    // The batch pre-flight runs once per profile-cache entry and lets
    // legally marked programs through unchanged.
    sim::SimConfig cfg;
    cfg.workload = "vpr";
    cfg.train.iterations = 300;
    cfg.ref.iterations = 300;
    cfg.marker.profileInsts = 100000;
    sim::BatchRunner runner(1);
    std::vector<sim::SimResult> rs = runner.run({cfg});
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_GT(rs[0].retiredInsts, 0u);
}
