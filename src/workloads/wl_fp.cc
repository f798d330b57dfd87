/**
 * @file
 * Floating-point workloads (mesa, ammp, fma3d) — the three SPEC FP
 * benchmarks the paper keeps because they lose at least 3% to branch
 * mispredictions. Calibrated against Table 3:
 *
 *   bench   target misp/KI   note
 *   mesa    0.9              diverge-dominated but little CI slack
 *   ammp    0.5              regular FP, low misprediction rate
 *   fma3d   2.1              diverge structures between FP kernels
 */

#include "workloads/wl_common.hh"
#include "workloads/workloads.hh"

namespace dmp::workloads
{

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

namespace
{

void
fpPrologue(ProgramBuilder &b, Random &drng, const WorkloadParams &wp,
           std::uint64_t iter_scale_permille = 1000)
{
    std::uint64_t iters =
        std::max<std::uint64_t>(1, wp.iterations * iter_scale_permille /
                                       1000);
    b.li(rCnt, 0);
    b.li(rBound, std::int64_t(iters));
    b.li(rData, std::int64_t(kDataBase));
    b.li(rOut, std::int64_t(kDataBase + (8u << 20)));
    b.li(rRng, std::int64_t(drng.next() >> 1));
    for (ArchReg r = 15; r <= 22; ++r)
        b.li(r, std::int64_t(drng.below(1 << 20)));
    for (ArchReg r = 32; r <= 39; ++r)
        b.li(r, std::int64_t(drng.below(1 << 20)));
}

void
fpEpilogue(ProgramBuilder &b, Label loop)
{
    b.addi(rCnt, rCnt, 1);
    b.blt(rCnt, rBound, loop);
    b.fadd(15, 15, 16);
    b.fadd(15, 15, 17);
    b.add(33, 33, 34);
    b.xor_(15, 15, 33);
    b.st(rOut, 0, 15);
    b.halt();
}

Program
make_mesa(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x3E5A);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 4096);
    fpPrologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    b.andi(8, 23, 4095);
    b.shli(8, 8, 3);
    b.add(8, 8, rData);
    b.ld(24, 8, 0);
    emitFpPadding(b, srng, 5, 2);
    // Hard diverge region every 4th iteration, placed right before the
    // loop back-edge so there is little control-independent slack after
    // the merge point (mesa's Figure 11-vs-Figure 9 behaviour).
    emitFpPadding(b, srng, 4, 2);
    {
        Label g = emitPeriodicGuardBegin(b, 3);
        emitComplexDiverge(b, srng, 24, 7, 1016, 63);
        b.bind(g);
    }

    fpEpilogue(b, loop);
    return b.build();
}

Program
make_ammp(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0xA339);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 65536); // 512KB working set
    fpPrologue(b, drng, wp, 800);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    b.andi(8, 23, 65535);
    b.shli(8, 8, 3);
    b.add(8, 8, rData);
    b.ld(24, 8, 0);
    b.ld(25, 8, 8 * 64); // second stream
    emitFpPadding(b, srng, 6, 2);
    // Rare hard region (every 8th iteration).
    {
        Label g = emitPeriodicGuardBegin(b, 7);
        emitComplexDiverge(b, srng, 24, 7, 1016, 63);
        b.bind(g);
    }
    emitFpPadding(b, srng, 4, 2);
    b.fadd(15, 15, 25);

    fpEpilogue(b, loop);
    return b.build();
}

Program
make_fma3d(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0xF3A3D);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 16384);
    fpPrologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    b.andi(8, 23, 16383);
    b.shli(8, 8, 3);
    b.add(8, 8, rData);
    b.ld(24, 8, 0);
    emitFpPadding(b, srng, 3, 4);
    // Well-merging diverge region every 2nd iteration and a multi-merge
    // region (2.7.1 showcase) every 4th.
    {
        Label g = emitPeriodicGuardBegin(b, 1);
        emitComplexDiverge(b, srng, 24, 9, 1016, 31);
        b.bind(g);
    }
    emitFpPadding(b, srng, 2, 4);
    {
        Label g = emitPeriodicGuardBegin(b, 3);
        b.shri(25, 24, 13);
        emitMultiMergeDiverge(b, srng, 25, 30);
        b.bind(g);
    }
    emitFpPadding(b, srng, 2, 4);

    fpEpilogue(b, loop);
    return b.build();
}

} // namespace

Program
buildFpWorkload(const std::string &name, const WorkloadParams &wp,
                bool &found)
{
    found = true;
    if (name == "mesa")
        return make_mesa(wp);
    if (name == "ammp")
        return make_ammp(wp);
    if (name == "fma3d")
        return make_fma3d(wp);
    found = false;
    return Program{};
}

} // namespace dmp::workloads
