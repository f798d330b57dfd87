#include "workloads/wl_common.hh"

#include "common/logging.hh"

namespace dmp::workloads
{

using isa::kInstBytes;
using isa::Label;
using isa::Opcode;
using isa::ProgramBuilder;

void
emitLcg(ProgramBuilder &b, ArchReg dst)
{
    // Knuth's MMIX LCG, split because immediates are emitted verbatim.
    b.muli(rRng, rRng, 6364136223846793005LL);
    b.addi(rRng, rRng, 1442695040888963407LL);
    // Use the strong upper bits.
    b.shri(dst, rRng, 33);
}

void
emitAluBlock(ProgramBuilder &b, Random &rng, unsigned n, ArchReg mix,
             const ArchReg *bank)
{
    const ArchReg *scratch = bank;
    for (unsigned i = 0; i < n; ++i) {
        ArchReg rd = scratch[rng.below(8)];
        ArchReg rs = scratch[rng.below(8)];
        switch (rng.below(5)) {
          case 0:
            b.add(rd, rs, mix);
            break;
          case 1:
            b.xor_(rd, rs, mix);
            break;
          case 2:
            b.addi(rd, rs, std::int64_t(rng.below(64)));
            break;
          case 3:
            b.shri(rd, rs, std::int64_t(rng.below(8)) + 1);
            break;
          default:
            b.sub(rd, rs, mix);
            break;
        }
    }
}

namespace
{

/** One biased skip over a few instructions (~noise/1024 mispredicts). */
void
emitBiasedSkip(ProgramBuilder &b, Random &rng, unsigned noise_permille)
{
    unsigned noise = noise_permille ? noise_permille : 1;
    b.shri(9, rRng, unsigned(rng.below(20)) + 8);
    b.andi(9, 9, 1023);
    b.slti(9, 9, std::int64_t(1024 - noise));
    isa::Label skip = b.newLabel();
    b.bne(9, 0, skip);
    emitAluBlock(b, rng, 3, 23);
    b.bind(skip);
}

} // namespace

void
emitSimpleHammock(ProgramBuilder &b, Random &rng, ArchReg condReg,
                  unsigned bit, unsigned thenLen, unsigned elseLen)
{
    // r9 = condition bit
    b.shri(9, condReg, bit);
    b.andi(9, 9, 1);
    Label else_l = b.newLabel();
    Label join = b.newLabel();
    b.beq(9, 0, else_l);
    emitAluBlock(b, rng, thenLen, condReg, kHardBank);
    if (elseLen > 0) {
        b.jmp(join);
        b.bind(else_l);
        emitAluBlock(b, rng, elseLen, condReg, kHardBank);
        b.bind(join);
    } else {
        b.bind(else_l);
    }
}

void
emitComplexDiverge(ProgramBuilder &b, Random &rng, ArchReg condReg,
                   unsigned armLen, unsigned reconv_permille,
                   std::uint64_t esc_mask)
{
    Label side_c = b.newLabel();
    Label block_e = b.newLabel();
    Label block_g = b.newLabel();
    Label cfm = b.newLabel();
    Label cold = b.newLabel();
    Label after_cold = b.newLabel();

    auto emit_escape = [&] {
        if (esc_mask == 0)
            return;
        // Periodic escape: predictable for the branch predictor but it
        // still takes control past the CFM point at rate 1/(mask+1).
        b.andi(9, rCnt, std::int64_t(esc_mask));
        b.beq(9, 0, cold);
    };

    // A: hard-to-predict branch on bit 0 of condReg.
    b.andi(8, condReg, 1);
    b.bne(8, 0, side_c);

    // B side. Internal branch biased toward rejoining at the CFM.
    emitAluBlock(b, rng, armLen, condReg, kHardBank);
    b.shri(9, condReg, 8);
    b.andi(9, 9, 1023);
    b.slti(9, 9, std::int64_t(reconv_permille));
    b.bne(9, 0, block_e); // frequently to E
    // D: less frequent arm.
    emitAluBlock(b, rng, armLen / 2 + 1, condReg, kHardBank);
    emitAluBlock(b, rng, 2, condReg, kHardBank);
    b.jmp(cfm);
    b.bind(block_e); // E
    emitAluBlock(b, rng, armLen / 2 + 1, condReg, kHardBank);
    b.jmp(cfm);

    // C side.
    b.bind(side_c);
    emitAluBlock(b, rng, armLen, condReg, kHardBank);
    b.shri(9, condReg, 14);
    b.andi(9, 9, 1023);
    b.slti(9, 9, std::int64_t(reconv_permille));
    b.bne(9, 0, block_g); // frequently to G
    // F arm with its own escape.
    emitAluBlock(b, rng, armLen / 2 + 1, condReg, kHardBank);
    emit_escape();
    emitAluBlock(b, rng, 2, condReg, kHardBank);
    b.jmp(cfm);
    b.bind(block_g); // G
    emitAluBlock(b, rng, armLen / 2 + 1, condReg, kHardBank);
    emit_escape();
    b.jmp(cfm);

    // Cold non-merging region (skipped on the frequent paths).
    b.bind(cold);
    emitAluBlock(b, rng, armLen * 2 + 8, condReg, kHardBank);
    b.jmp(after_cold);

    // H: the control-flow merge point of the frequent paths.
    b.bind(cfm);
    emitAluBlock(b, rng, 2, condReg, kHardBank);
    b.bind(after_cold);
}

void
emitMultiMergeDiverge(ProgramBuilder &b, Random &rng, ArchReg condReg,
                      unsigned hBodyLen)
{
    Label arm_y = b.newLabel();
    Label h1 = b.newLabel();
    Label h2 = b.newLabel();
    Label end = b.newLabel();

    // A: hard branch.
    b.andi(8, condReg, 1);
    b.bne(8, 0, arm_y);

    // Arm X with nested hard branch Bx.
    emitAluBlock(b, rng, 6, condReg, kHardBank);
    b.shri(9, condReg, 3);
    b.andi(9, 9, 1);
    {
        Label sub2 = b.newLabel();
        b.beq(9, 0, sub2); // Bx (hard)
        emitAluBlock(b, rng, 5, condReg, kHardBank);
        b.jmp(h1);
        b.bind(sub2);
        emitAluBlock(b, rng, 5, condReg, kHardBank);
        b.jmp(h2);
    }

    // Arm Y with nested hard branch By.
    b.bind(arm_y);
    emitAluBlock(b, rng, 6, condReg, kHardBank);
    b.shri(9, condReg, 5);
    b.andi(9, 9, 1);
    {
        Label sub4 = b.newLabel();
        b.beq(9, 0, sub4); // By (hard)
        emitAluBlock(b, rng, 5, condReg, kHardBank);
        b.jmp(h1);
        b.bind(sub4);
        emitAluBlock(b, rng, 5, condReg, kHardBank);
        b.jmp(h2);
    }

    // H1 / H2: the alternative merge points, each followed by a long
    // control-independent body so END is beyond the CFM search bound.
    b.bind(h1);
    emitAluBlock(b, rng, hBodyLen, condReg, kHardBank);
    b.jmp(end);
    b.bind(h2);
    emitAluBlock(b, rng, hBodyLen, condReg, kHardBank);
    b.bind(end);
}

void
emitDeepDiverge(ProgramBuilder &b, Random &rng, ArchReg condReg,
                unsigned detourLen)
{
    Label arm_y = b.newLabel();
    Label detour_x = b.newLabel();
    Label detour_y = b.newLabel();
    Label h = b.newLabel();
    Label far = b.newLabel();

    // A: hard branch.
    b.andi(8, condReg, 1);
    b.bne(8, 0, arm_y);

    // Arm X with nested hard branch Bx.
    emitAluBlock(b, rng, 6, condReg, kHardBank);
    b.shri(9, condReg, 3);
    b.andi(9, 9, 1);
    b.beq(9, 0, detour_x); // Bx (hard)
    emitAluBlock(b, rng, 4, condReg, kHardBank);
    b.jmp(h);
    b.bind(detour_x);
    emitAluBlock(b, rng, detourLen, condReg, kHardBank);
    b.jmp(far);

    // Arm Y with nested hard branch By.
    b.bind(arm_y);
    emitAluBlock(b, rng, 6, condReg, kHardBank);
    b.shri(9, condReg, 5);
    b.andi(9, 9, 1);
    b.beq(9, 0, detour_y); // By (hard)
    emitAluBlock(b, rng, 4, condReg, kHardBank);
    b.jmp(h);
    b.bind(detour_y);
    emitAluBlock(b, rng, detourLen, condReg, kHardBank);
    b.jmp(far);

    // H: A's (partial) merge point; falls through to FAR.
    b.bind(h);
    emitAluBlock(b, rng, 8, condReg, kHardBank);
    b.bind(far);
    emitAluBlock(b, rng, 4, condReg, kHardBank);
}

void
emitNonMergeable(ProgramBuilder &b, Random &rng, ArchReg condReg,
                 unsigned armLen)
{
    Label other = b.newLabel();
    Label join = b.newLabel();

    b.andi(8, condReg, 1);
    b.bne(8, 0, other);
    // Each arm is far longer than the 120-instruction CFM search bound.
    // Internal branches are strongly biased: the mispredictions of this
    // region come from the top branch, which no merge point can cover.
    emitAluBlock(b, rng, armLen / 3, condReg, kHardBank);
    emitBiasedSkip(b, rng, 4);
    emitAluBlock(b, rng, armLen / 3, condReg, kHardBank);
    emitBiasedSkip(b, rng, 4);
    emitAluBlock(b, rng, armLen / 3, condReg, kHardBank);
    b.jmp(join);
    b.bind(other);
    emitAluBlock(b, rng, armLen / 3, condReg, kHardBank);
    emitBiasedSkip(b, rng, 4);
    emitAluBlock(b, rng, armLen / 3, condReg, kHardBank);
    emitBiasedSkip(b, rng, 4);
    emitAluBlock(b, rng, armLen / 3, condReg, kHardBank);
    b.bind(join);
}

void
emitIndirectSwitch(ProgramBuilder &b, Random &rng, ArchReg selReg,
                   unsigned cases, unsigned caseLen)
{
    dmp_assert(cases >= 2, "switch needs at least two cases");

    // Lay out the case blocks first (jumped over on entry) so their
    // base address is known when the dispatch code is emitted.
    Label over = b.newLabel();
    Label cont = b.newLabel();
    b.jmp(over);

    // Each case block occupies exactly `stride` instructions.
    const unsigned stride = caseLen + 1; // body + jmp cont
    Addr first_case = b.here();
    for (unsigned c = 0; c < cases; ++c) {
        Addr start = b.here();
        emitAluBlock(b, rng, caseLen, selReg);
        b.jmp(cont);
        dmp_assert(b.here() - start == stride * kInstBytes,
                   "switch case block size drifted");
    }

    b.bind(over);
    // target = first_case + (sel % cases) * stride * 4
    b.andi(8, selReg, 0xffff);
    b.li(9, std::int64_t(cases));
    b.divq(7, 8, 9);
    b.muli(7, 7, std::int64_t(cases));
    b.sub(8, 8, 7); // r8 = sel % cases
    b.muli(8, 8, std::int64_t(stride * kInstBytes));
    b.li(9, std::int64_t(first_case));
    b.add(9, 9, 8);
    b.jr(9);
    b.bind(cont);
}

Addr
seedData(ProgramBuilder &b, Random &rng, Addr base, std::size_t words,
         std::uint64_t value_mask)
{
    for (Word &w : b.dataBlock(base, words))
        w = rng.next() & value_mask;
    return base;
}

void
emitPadding(ProgramBuilder &b, Random &rng, unsigned units,
            unsigned noise_permille)
{
    for (unsigned u = 0; u < units; ++u) {
        emitAluBlock(b, rng, 7 + unsigned(rng.below(4)), 23);
        if (rng.below(3) != 2)
            emitBiasedSkip(b, rng, noise_permille);
        else
            emitAluBlock(b, rng, 4, 23);
    }
}

void
emitFpPadding(ProgramBuilder &b, Random &rng, unsigned units,
              unsigned noise_permille)
{
    static constexpr ArchReg f[] = {15, 16, 17, 18, 19, 20};
    for (unsigned u = 0; u < units; ++u) {
        for (unsigned i = 0; i < 8; ++i) {
            ArchReg a = f[(u + i) % 6];
            ArchReg c = f[(u + i + 2) % 6];
            if (i % 2)
                b.fadd(a, c, 23);
            else
                b.fmul(a, c, 23);
        }
        if (rng.chancePercent(50))
            emitBiasedSkip(b, rng, noise_permille);
        else
            emitAluBlock(b, rng, 3, 23);
    }
}

Label
emitPeriodicGuardBegin(ProgramBuilder &b, std::uint64_t mask)
{
    Label skip = b.newLabel();
    b.andi(9, rCnt, std::int64_t(mask));
    b.bne(9, 0, skip);
    return skip;
}

} // namespace dmp::workloads
