/**
 * @file
 * Workload-level integration tests: construction invariants, seed
 * separation (same code, different data), calibration sanity against
 * the Table 3 targets, and the sim facade.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace dmp
{
namespace
{

TEST(Workloads, FifteenPaperBenchmarks)
{
    const auto &list = workloads::workloadList();
    ASSERT_EQ(list.size(), 15u);
    EXPECT_EQ(list[0].name, "bzip2");
    EXPECT_EQ(list[14].name, "fma3d");
    unsigned fp = 0;
    for (const auto &info : list)
        fp += info.floatingPoint;
    EXPECT_EQ(fp, 3u); // mesa, ammp, fma3d
}

TEST(Workloads, AllBuildAndTerminate)
{
    for (const auto &info : workloads::workloadList()) {
        workloads::WorkloadParams wp;
        wp.iterations = 50;
        isa::Program p = workloads::buildWorkload(info.name, wp);
        EXPECT_GT(p.size(), 100u) << info.name;
        isa::MemoryImage mem(16 * 1024 * 1024);
        isa::FuncSim sim(p, mem);
        sim.run(50'000'000);
        EXPECT_TRUE(sim.halted()) << info.name << " did not halt";
    }
}

TEST(Workloads, SeedChangesDataNotCode)
{
    for (const auto &info : workloads::workloadList()) {
        workloads::WorkloadParams a, b;
        a.iterations = b.iterations = 20;
        a.seed = 1;
        b.seed = 2;
        isa::Program pa = workloads::buildWorkload(info.name, a);
        isa::Program pb = workloads::buildWorkload(info.name, b);
        ASSERT_EQ(pa.size(), pb.size()) << info.name;
        for (Addr pc = pa.baseAddr(); pc < pa.endAddr(); pc += 4) {
            const isa::Inst &ia = pa.fetch(pc);
            const isa::Inst &ib = pb.fetch(pc);
            EXPECT_EQ(int(ia.op), int(ib.op)) << info.name;
            EXPECT_EQ(ia.target, ib.target) << info.name;
        }
    }
}

/**
 * The data image FuncSim and Core load by block copy equals one filled
 * a word at a time, on every workload at the train and ref seeds, and
 * the runs it comes from ascend with a gap between any two.
 */
TEST(Workloads, DataImageLoadsMatchWordByWordFill)
{
    const sim::SimConfig cfg;
    const core::CoreParams &params = sim::machine("base");
    for (const auto &info : workloads::workloadList()) {
        for (const workloads::WorkloadParams &wp : {cfg.train, cfg.ref}) {
            SCOPED_TRACE(info.name + " seed " + std::to_string(wp.seed));
            isa::Program p = workloads::buildWorkload(info.name, wp);
            ASSERT_FALSE(p.dataSegments().empty());

            isa::MemoryImage expect(params.memoryBytes);
            const isa::DataSegment *prev = nullptr;
            for (const isa::DataSegment &seg : p.dataSegments()) {
                ASSERT_FALSE(seg.words.empty());
                if (prev) {
                    ASSERT_GT(seg.base, prev->end());
                }
                prev = &seg;
                for (std::size_t i = 0; i < seg.words.size(); ++i)
                    expect.store(seg.base + i * sizeof(Word), seg.words[i]);
            }

            isa::MemoryImage mem(params.memoryBytes);
            isa::FuncSim sim(p, mem);
            EXPECT_TRUE(mem == expect);
            core::Core machine(p, params);
            EXPECT_TRUE(machine.retiredMemory() == expect);
        }
    }
}

TEST(Workloads, IterationsScaleInstructionCount)
{
    workloads::WorkloadParams small, large;
    small.iterations = 50;
    large.iterations = 200;
    isa::Program ps = workloads::buildWorkload("parser", small);
    isa::Program pl = workloads::buildWorkload("parser", large);
    isa::MemoryImage m1(16 << 20), m2(16 << 20);
    isa::FuncSim s1(ps, m1), s2(pl, m2);
    s1.run(100'000'000);
    s2.run(100'000'000);
    EXPECT_GT(s2.retiredInsts(), 3 * s1.retiredInsts());
}

TEST(Workloads, RandomProgramsTerminate)
{
    for (unsigned seed = 100; seed < 112; ++seed) {
        isa::Program p = workloads::buildRandomProgram(seed, seed + 1);
        isa::MemoryImage mem(16 << 20);
        isa::FuncSim sim(p, mem);
        sim.run(20'000'000);
        EXPECT_TRUE(sim.halted()) << "seed " << seed;
    }
}

TEST(SimFacade, RunsAndReportsCounters)
{
    sim::SimConfig cfg;
    cfg.workload = "vpr";
    cfg.train.iterations = 200;
    cfg.ref.iterations = 200;
    cfg.core = sim::machine("dmp");
    sim::SimResult r = sim::runSim(cfg);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_GT(r.retiredInsts, 10000u);
    EXPECT_GT(r.get("dpred_entries"), 0u);
    EXPECT_GT(r.marking.markedDiverge, 0u);
    EXPECT_EQ(r.get("cycles"), r.cycles);
}

TEST(SimFacade, MispredictRateOrderingMatchesTable3)
{
    // Spot-check the calibration ordering: perlbmk << eon < parser/vpr.
    auto mpki = [](const char *wl) {
        sim::SimConfig cfg;
        cfg.workload = wl;
        cfg.train.iterations = 400;
        cfg.ref.iterations = 400;
        sim::SimResult r = sim::runSim(cfg);
        return 1000.0 * double(r.get("retired_mispred_cond_branches")) /
               double(r.retiredInsts);
    };
    double perl = mpki("perlbmk");
    double eon = mpki("eon");
    double parser = mpki("parser");
    double vpr = mpki("vpr");
    EXPECT_LT(perl, 1.0);
    EXPECT_LT(perl, eon);
    EXPECT_LT(eon, parser);
    EXPECT_GT(parser, 4.0);
    EXPECT_GT(vpr, 4.0);
}

TEST(SimFacade, PerfectPredictorBeatsBaselineEverywhere)
{
    for (const char *wl : {"bzip2", "parser", "gcc"}) {
        sim::SimConfig cfg;
        cfg.workload = wl;
        cfg.train.iterations = 300;
        cfg.ref.iterations = 300;
        sim::SimResult base = sim::runSim(cfg);
        cfg.core.perfectCondPredictor = true;
        sim::SimResult perfect = sim::runSim(cfg);
        EXPECT_GT(perfect.ipc, base.ipc * 1.05) << wl;
    }
}

} // namespace
} // namespace dmp
