/**
 * @file
 * Integer workloads (bzip2 ... vpr).
 *
 * Calibration method: each benchmark's dynamic instruction stream is
 * mostly *predictable* filler (emitPadding: ALU + learnable branches),
 * dosed with hard branch regions at a frequency chosen to land near the
 * paper's Table 3 misprediction rate (mispredicted branches per 1000
 * instructions) and Figure 6 class mix:
 *
 *   bench    target misp/KI   dominant class
 *   bzip2    7.6              complex diverge
 *   crafty   3.5              mixed, some diverge
 *   eon      1.3              (predictable)
 *   gap      0.8              diverge w/ poor merge (case 3)
 *   gcc      8.2              other complex
 *   gzip     5.0              diverge w/ moderate merge
 *   mcf      5.4              simple hammocks (44%)
 *   parser   8.2              complex diverge (big DMP win)
 *   perlbmk  ~0               (near-perfect prediction)
 *   twolf    5.2              complex diverge
 *   vortex   0.9              (predictable)
 *   vpr      9.3              complex diverge + some hammocks
 *
 * Hard-region *frequency* is set with loop-counter-periodic guards
 * (perfectly learnable), never with biased random branches, so the
 * guards themselves add no mispredictions.
 */

#include "common/logging.hh"
#include "workloads/wl_common.hh"
#include "workloads/workloads.hh"

namespace dmp::workloads
{

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

namespace
{

/** Shared prologue: counters, data pointers, RNG register. */
void
prologue(ProgramBuilder &b, Random &drng, const WorkloadParams &wp,
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

/** Shared epilogue: bump counter, loop, store a checksum, halt. */
void
epilogue(ProgramBuilder &b, Label loop)
{
    b.addi(rCnt, rCnt, 1);
    b.blt(rCnt, rBound, loop);
    b.add(15, 15, 16);
    b.add(15, 15, 17);
    b.add(15, 15, 18);
    b.add(33, 33, 34);
    b.add(33, 33, 35);
    b.xor_(15, 15, 33);
    b.st(rOut, 0, 15);
    b.st(rOut, 8, rRng);
    b.halt();
}

/** Load a data word indexed by the low bits of `idxReg`. */
void
emitTableLoad(ProgramBuilder &b, ArchReg dst, ArchReg idxReg,
              unsigned table_words_log2)
{
    b.andi(8, idxReg, (1LL << table_words_log2) - 1);
    b.shli(8, 8, 3);
    b.add(8, 8, rData);
    b.ld(dst, 8, 0);
}

Program
make_bzip2(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0xB21F2);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 8192);
    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 13);
    emitPadding(b, srng, 2, 12);
    // Hard multi-merge region (multiple CFM points) plus a single-CFM
    // complex diverge region per iteration.
    emitMultiMergeDiverge(b, srng, 24);
    emitPadding(b, srng, 2, 12);
    b.shri(25, 24, 17);
    emitComplexDiverge(b, srng, 25, 9, 1016, 31);
    emitPadding(b, srng, 2, 12);
    b.andi(8, rCnt, 8191);
    b.shli(8, 8, 3);
    b.add(8, 8, rOut);
    b.st(8, 0, 24);

    epilogue(b, loop);
    return b.build();
}

Program
make_crafty(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0xC4AF7);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 4096);

    Label fn = b.newLabel();
    Label over = b.newLabel();
    b.jmp(over);
    b.bind(fn); // small evaluation helper
    emitAluBlock(b, srng, 8, 15);
    emitPadding(b, srng, 1, 8);
    b.ret();
    b.bind(over);

    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 12);
    emitPadding(b, srng, 4, 8);
    emitComplexDiverge(b, srng, 24, 9, 1014, 31);
    b.call(fn);
    emitPadding(b, srng, 4, 8);
    emitAluBlock(b, srng, 6, 23);

    epilogue(b, loop);
    return b.build();
}

Program
make_eon(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0xE07);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 2048);
    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 11);
    // ILP-rich arithmetic (C++ ray tracer flavour).
    b.fmul(15, 16, 24);
    b.fadd(16, 17, 24);
    b.fmul(17, 18, 23);
    b.fadd(18, 19, 23);
    b.fmul(19, 20, 24);
    b.fadd(20, 21, 24);
    emitPadding(b, srng, 5, 3);
    // Hard region only every 4th iteration.
    {
        Label g = emitPeriodicGuardBegin(b, 3);
        emitComplexDiverge(b, srng, 24, 7, 1016, 63);
        b.bind(g);
    }
    emitPadding(b, srng, 4, 3);

    epilogue(b, loop);
    return b.build();
}

Program
make_gap(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x6A9);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 4096);
    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 12);
    emitPadding(b, srng, 5, 3);
    // Rare and poorly merging diverge region: the profiled CFM is
    // reached well under half the time (case-1/3 source).
    {
        Label g = emitPeriodicGuardBegin(b, 15);
        emitComplexDiverge(b, srng, 24, 10, 1010, 1);
        b.bind(g);
    }
    emitPadding(b, srng, 5, 3);
    emitAluBlock(b, srng, 6, 24);

    epilogue(b, loop);
    return b.build();
}

Program
make_gcc(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x6CC);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 4096);
    prologue(b, drng, wp, 600);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 12);
    emitPadding(b, srng, 2, 6);
    // Hard branches buried in non-reconverging regions: candidates for
    // neither DHP nor DMP (no CFM within 120 instructions).
    emitNonMergeable(b, srng, 24, 130);
    emitPadding(b, srng, 2, 6);
    // Indirect dispatch: random selector every 8th iteration, periodic
    // otherwise (a learnable mix with occasional target misses).
    b.andi(9, rCnt, 7);
    Label rnd = b.newLabel();
    Label dispatch = b.newLabel();
    b.beq(9, 0, rnd);
    b.andi(25, rCnt, 7);
    b.jmp(dispatch);
    b.bind(rnd);
    b.andi(25, 23, 7);
    b.bind(dispatch);
    emitIndirectSwitch(b, srng, 25, 8, 6);
    b.shri(26, 24, 13);
    emitNonMergeable(b, srng, 26, 130);
    emitPadding(b, srng, 2, 6);

    epilogue(b, loop);
    return b.build();
}

Program
make_gzip(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x6219);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 8192);
    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 13);
    emitPadding(b, srng, 3, 10);
    // Moderately merging diverge region.
    emitComplexDiverge(b, srng, 24, 10, 1012, 3);
    emitPadding(b, srng, 4, 10);
    b.andi(8, rCnt, 8191);
    b.shli(8, 8, 3);
    b.add(8, 8, rOut);
    b.st(8, 0, 24);

    epilogue(b, loop);
    return b.build();
}

Program
make_mcf(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x3CF);
    Random drng(wp.seed);
    // 4MB of random next-pointers (indices into the same table).
    constexpr unsigned table_log2 = 19; // 512K words = 4MB > 1MB L2
    seedData(b, drng, kDataBase, 1u << table_log2,
             (1u << table_log2) - 1);
    prologue(b, drng, wp, 500);
    b.li(25, 1); // current node index
    Label loop = b.newLabel();
    b.bind(loop);

    // Dependent pointer chase: idx = table[idx] (memory-bound core).
    b.shli(8, 25, 3);
    b.add(8, 8, rData);
    b.ld(25, 8, 0);
    emitPadding(b, srng, 2, 8);
    // Simple hammock on the loaded (random) value: the DHP-friendly
    // misprediction population (44% in the paper).
    emitSimpleHammock(b, srng, 25, 3, 5, 5);
    emitPadding(b, srng, 2, 8);
    // Complex diverge region every 2nd iteration.
    {
        Label g = emitPeriodicGuardBegin(b, 1);
        emitComplexDiverge(b, srng, 25, 7, 1014, 31);
        b.bind(g);
    }
    // Non-mergeable region every 4th iteration.
    {
        Label g = emitPeriodicGuardBegin(b, 3);
        emitNonMergeable(b, srng, 25, 126);
        b.bind(g);
    }
    emitPadding(b, srng, 2, 8);

    epilogue(b, loop);
    return b.build();
}

Program
make_parser(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x9A45E);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 8192);
    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 13);
    emitPadding(b, srng, 2, 10);
    // Two well-merging single-CFM regions per iteration, plus a deep
    // chained region (2.7.3 showcase) every 4th iteration.
    emitComplexDiverge(b, srng, 24, 9, 1016, 63);
    emitPadding(b, srng, 2, 10);
    b.shri(25, 24, 11);
    emitComplexDiverge(b, srng, 25, 10, 1016, 63);
    emitPadding(b, srng, 1, 10);
    {
        Label g = emitPeriodicGuardBegin(b, 3);
        b.shri(26, 24, 21);
        emitDeepDiverge(b, srng, 26);
        b.bind(g);
    }
    emitPadding(b, srng, 1, 10);

    epilogue(b, loop);
    return b.build();
}

Program
make_perlbmk(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x9E41);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 2048);
    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    // Near-perfectly predictable: periodic selector dispatch whose
    // selector bits are encoded into the global history by two
    // learnable branches, so the indirect target cache can
    // distinguish the four targets.
    b.andi(23, rCnt, 1);
    {
        // A branch to its own fall-through: it records the selector bit
        // in the history (so the indirect target cache can learn the
        // dispatch) but can never mispredict and is not a hammock.
        Label l1 = b.newLabel();
        b.beq(23, 0, l1);
        b.bind(l1);
    }
    emitIndirectSwitch(b, srng, 23, 2, 10);
    emitPadding(b, srng, 2, 1);
    emitTableLoad(b, 24, rCnt, 11);
    emitPadding(b, srng, 2, 1);
    emitAluBlock(b, srng, 10, 24);

    epilogue(b, loop);
    return b.build();
}

Program
make_twolf(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x72013);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 16384);
    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 14);
    emitPadding(b, srng, 3, 8);
    emitComplexDiverge(b, srng, 24, 10, 1016, 31);
    emitPadding(b, srng, 2, 8);
    // Multi-merge region (2.7.1 showcase) every 2nd iteration.
    {
        Label g = emitPeriodicGuardBegin(b, 1);
        b.shri(25, 24, 7);
        emitTableLoad(b, 26, 25, 14);
        emitMultiMergeDiverge(b, srng, 26);
        b.bind(g);
    }
    emitPadding(b, srng, 3, 8);
    b.andi(8, rCnt, 16383);
    b.shli(8, 8, 3);
    b.add(8, 8, rOut);
    b.st(8, 0, 24);

    epilogue(b, loop);
    return b.build();
}

Program
make_vortex(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x40127E);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 4096);

    Label fn = b.newLabel();
    Label over = b.newLabel();
    b.jmp(over);
    b.bind(fn);
    emitAluBlock(b, srng, 8, 15);
    b.ret();
    b.bind(over);

    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 12);
    emitPadding(b, srng, 4, 3);
    b.call(fn);
    // Hard region only every 16th iteration.
    {
        Label g = emitPeriodicGuardBegin(b, 15);
        emitComplexDiverge(b, srng, 24, 8, 1016, 63);
        b.bind(g);
    }
    emitPadding(b, srng, 4, 3);
    b.andi(8, rCnt, 4095);
    b.shli(8, 8, 3);
    b.add(8, 8, rOut);
    b.st(8, 0, 24);

    epilogue(b, loop);
    return b.build();
}

Program
make_vpr(const WorkloadParams &wp)
{
    ProgramBuilder b;
    Random srng(0x9912);
    Random drng(wp.seed);
    seedData(b, drng, kDataBase, 8192);
    prologue(b, drng, wp);
    Label loop = b.newLabel();
    b.bind(loop);

    emitLcg(b, 23);
    emitTableLoad(b, 24, 23, 13);
    emitPadding(b, srng, 2, 10);
    // Hard simple hammock every 2nd iteration (the ~11% DHP-eligible
    // slice of vpr's mispredictions).
    {
        Label g = emitPeriodicGuardBegin(b, 1);
        emitSimpleHammock(b, srng, 24, 1, 5, 5);
        b.bind(g);
    }
    // Two dominant complex diverge regions per iteration plus a deep
    // chained region every 4th iteration.
    emitComplexDiverge(b, srng, 24, 9, 1016, 63);
    emitPadding(b, srng, 2, 10);
    b.shri(25, 24, 19);
    emitComplexDiverge(b, srng, 25, 10, 1018, 63);
    emitPadding(b, srng, 1, 10);
    {
        Label g = emitPeriodicGuardBegin(b, 3);
        b.shri(26, 24, 9);
        emitDeepDiverge(b, srng, 26);
        b.bind(g);
    }
    emitPadding(b, srng, 1, 10);

    epilogue(b, loop);
    return b.build();
}

} // namespace

Program
buildIntWorkload(const std::string &name, const WorkloadParams &wp,
                 bool &found)
{
    found = true;
    if (name == "bzip2")
        return make_bzip2(wp);
    if (name == "crafty")
        return make_crafty(wp);
    if (name == "eon")
        return make_eon(wp);
    if (name == "gap")
        return make_gap(wp);
    if (name == "gcc")
        return make_gcc(wp);
    if (name == "gzip")
        return make_gzip(wp);
    if (name == "mcf")
        return make_mcf(wp);
    if (name == "parser")
        return make_parser(wp);
    if (name == "perlbmk")
        return make_perlbmk(wp);
    if (name == "twolf")
        return make_twolf(wp);
    if (name == "vortex")
        return make_vortex(wp);
    if (name == "vpr")
        return make_vpr(wp);
    found = false;
    return Program{};
}

} // namespace dmp::workloads
