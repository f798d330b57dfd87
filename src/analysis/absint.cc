#include "analysis/absint.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>

#include "cfg/cfg.hh"
#include "common/ring_queue.hh"

namespace dmp::analysis
{

using isa::Inst;
using isa::kInstBytes;
using isa::Opcode;

namespace
{

using I128 = __int128;
using U128 = unsigned __int128;

constexpr SWord kSMin = std::numeric_limits<SWord>::min();
constexpr SWord kSMax = std::numeric_limits<SWord>::max();
constexpr Word kUMax = ~Word(0);

Word
lowMask(unsigned bits)
{
    return bits >= 64 ? kUMax : (Word(1) << bits) - 1;
}

} // namespace

AbsVal
AbsVal::top()
{
    return {kSMin, kSMax, 0, kUMax, 0, 0};
}

AbsVal
AbsVal::constant(Word v)
{
    return {SWord(v), SWord(v), v, v, ~v, v};
}

AbsVal
AbsVal::empty()
{
    return {1, 0, 1, 0, 0, 0};
}

bool
AbsVal::isEmpty() const
{
    return smin > smax || umin > umax || (zeros & ones) != 0;
}

bool
AbsVal::isTop() const
{
    return *this == top();
}

bool
AbsVal::contains(Word v) const
{
    return !isEmpty() && SWord(v) >= smin && SWord(v) <= smax &&
           v >= umin && v <= umax && (v & zeros) == 0 &&
           (v & ones) == ones;
}

Word
AbsVal::count(Word cap) const
{
    if (isEmpty())
        return 0;
    Word best = cap;
    if (!(umin == 0 && umax == kUMax))
        best = std::min(best, umax - umin + 1);
    if (!(smin == kSMin && smax == kSMax))
        best = std::min(best, Word(smax) - Word(smin) + 1);
    const int unknown = std::popcount(~(zeros | ones));
    if (unknown < 63)
        best = std::min(best, Word(1) << unknown);
    return best;
}

void
AbsVal::reduce()
{
    if (isEmpty())
        return;
    for (int round = 0; round < 2; ++round) {
        // Known bits bound the unsigned range from both sides.
        umin = std::max(umin, ones);
        umax = std::min(umax, ~zeros);
        if (umin > umax)
            return;
        // Bits on which both unsigned bounds agree above the highest
        // differing bit are known.
        const Word x = umin ^ umax;
        const Word high = x ? ~lowMask(unsigned(std::bit_width(x))) : kUMax;
        zeros |= high & ~umin;
        ones |= high & umin;
        if ((zeros & ones) != 0)
            return;
        // Signed <-> unsigned when a range does not straddle the
        // wrap/sign boundary of the other view.
        if (smin >= 0 || smax < 0) {
            umin = std::max(umin, Word(smin));
            umax = std::min(umax, Word(smax));
            if (umin > umax)
                return;
        }
        if (umax <= Word(kSMax) || umin > Word(kSMax)) {
            smin = std::max(smin, SWord(umin));
            smax = std::min(smax, SWord(umax));
            if (smin > smax)
                return;
        }
        // A known sign bit clamps the signed range.
        if (zeros >> 63)
            smin = std::max(smin, SWord(0));
        if (ones >> 63)
            smax = std::min(smax, SWord(-1));
        if (smin > smax)
            return;
    }
}

AbsVal
AbsVal::join(const AbsVal &a, const AbsVal &b)
{
    if (a.isEmpty())
        return b;
    if (b.isEmpty())
        return a;
    AbsVal r{std::min(a.smin, b.smin), std::max(a.smax, b.smax),
             std::min(a.umin, b.umin), std::max(a.umax, b.umax),
             a.zeros & b.zeros,        a.ones & b.ones};
    r.reduce();
    return r;
}

AbsVal
AbsVal::meet(const AbsVal &a, const AbsVal &b)
{
    AbsVal r{std::max(a.smin, b.smin), std::min(a.smax, b.smax),
             std::max(a.umin, b.umin), std::min(a.umax, b.umax),
             a.zeros | b.zeros,        a.ones | b.ones};
    if (!r.isEmpty())
        r.reduce();
    return r;
}

AbsVal
AbsVal::widen(const AbsVal &prev, const AbsVal &next)
{
    if (prev.isEmpty())
        return next;
    AbsVal r;
    r.smin = next.smin < prev.smin ? kSMin : prev.smin;
    r.smax = next.smax > prev.smax ? kSMax : prev.smax;
    r.umin = next.umin < prev.umin ? 0 : prev.umin;
    r.umax = next.umax > prev.umax ? kUMax : prev.umax;
    // Known-bit sets only shrink under join (finite descending chain),
    // so they need no acceleration.
    r.zeros = prev.zeros & next.zeros;
    r.ones = prev.ones & next.ones;
    r.reduce();
    return r;
}

namespace
{

/** Programs larger than this skip the analysis (state memory). */
constexpr std::size_t kMaxInsts = 1u << 14;
/** Largest enumerable JR/RET target set; beyond this, smear. */
constexpr unsigned kMaxIndirectTargets = 16;
/** Track at most this many r0-relative memory slots. */
constexpr unsigned kMaxSlots = 64;

/** Unsigned range with everything else derived by reduction. */
AbsVal
rangeU(Word lo, Word hi)
{
    AbsVal r = AbsVal::top();
    r.umin = lo;
    r.umax = hi;
    r.reduce();
    return r;
}

AbsVal
addVals(const AbsVal &a, const AbsVal &b)
{
    if (a.isEmpty() || b.isEmpty())
        return AbsVal::empty();
    AbsVal r = AbsVal::top();
    const U128 ulo = U128(a.umin) + b.umin;
    const U128 uhi = U128(a.umax) + b.umax;
    if (uhi <= U128(kUMax)) {
        r.umin = Word(ulo);
        r.umax = Word(uhi);
    } else if (ulo > U128(kUMax)) { // both sums wrap exactly once
        r.umin = Word(ulo);
        r.umax = Word(uhi);
    }
    const I128 slo = I128(a.smin) + b.smin;
    const I128 shi = I128(a.smax) + b.smax;
    if (slo >= I128(kSMin) && shi <= I128(kSMax)) {
        r.smin = SWord(slo);
        r.smax = SWord(shi);
    } else if (shi < I128(kSMin) || slo > I128(kSMax)) {
        // Both endpoints wrap the same way: the range stays exact.
        r.smin = SWord(Word(slo));
        r.smax = SWord(Word(shi));
    }
    // Fully known low bits of both operands give exact low sum bits.
    const unsigned t =
        unsigned(std::countr_one((a.zeros | a.ones) & (b.zeros | b.ones)));
    if (t > 0) {
        const Word mask = lowMask(t);
        const Word low = (a.ones + b.ones) & mask;
        r.zeros |= ~low & mask;
        r.ones |= low & mask;
    }
    r.reduce();
    return r;
}

AbsVal
subVals(const AbsVal &a, const AbsVal &b)
{
    if (a.isEmpty() || b.isEmpty())
        return AbsVal::empty();
    AbsVal r = AbsVal::top();
    const I128 ulo = I128(a.umin) - I128(b.umax);
    const I128 uhi = I128(a.umax) - I128(b.umin);
    if (ulo >= 0 || uhi < 0) { // no wrap, or both wrap once
        r.umin = Word(ulo);
        r.umax = Word(uhi);
    }
    const I128 slo = I128(a.smin) - I128(b.smax);
    const I128 shi = I128(a.smax) - I128(b.smin);
    if ((slo >= I128(kSMin) && shi <= I128(kSMax)) ||
        shi < I128(kSMin) || slo > I128(kSMax)) {
        r.smin = SWord(Word(slo));
        r.smax = SWord(Word(shi));
    }
    const unsigned t =
        unsigned(std::countr_one((a.zeros | a.ones) & (b.zeros | b.ones)));
    if (t > 0) {
        const Word mask = lowMask(t);
        const Word low = (a.ones - b.ones) & mask;
        r.zeros |= ~low & mask;
        r.ones |= low & mask;
    }
    r.reduce();
    return r;
}

AbsVal
mulVals(const AbsVal &a, const AbsVal &b)
{
    if (a.isEmpty() || b.isEmpty())
        return AbsVal::empty();
    if ((a.isConstant() && a.constantValue() == 0) ||
        (b.isConstant() && b.constantValue() == 0))
        return AbsVal::constant(0);
    AbsVal r = AbsVal::top();
    if (U128(a.umax) * b.umax <= U128(kUMax)) {
        r.umin = a.umin * b.umin;
        r.umax = a.umax * b.umax;
    } else {
        const I128 c[4] = {I128(a.smin) * b.smin, I128(a.smin) * b.smax,
                           I128(a.smax) * b.smin, I128(a.smax) * b.smax};
        const I128 lo = std::min({c[0], c[1], c[2], c[3]});
        const I128 hi = std::max({c[0], c[1], c[2], c[3]});
        if (lo >= I128(kSMin) && hi <= I128(kSMax)) {
            r.smin = SWord(lo);
            r.smax = SWord(hi);
        }
    }
    // Known trailing zeros accumulate across a product.
    const unsigned tz = unsigned(std::countr_one(a.zeros)) +
                        unsigned(std::countr_one(b.zeros));
    r.zeros |= lowMask(std::min(tz, 63u));
    r.reduce();
    return r;
}

/** Unsigned division with the ISA's divide-by-zero result (~0). */
AbsVal
divVals(const AbsVal &a, const AbsVal &b)
{
    if (a.isEmpty() || b.isEmpty())
        return AbsVal::empty();
    AbsVal r = AbsVal::empty();
    if (b.contains(0))
        r = AbsVal::constant(kUMax);
    if (b.umax >= 1) {
        const Word dlo = std::max<Word>(b.umin, 1);
        r = AbsVal::join(r, rangeU(a.umin / b.umax, a.umax / dlo));
    }
    return r;
}

AbsVal
andVals(const AbsVal &a, const AbsVal &b)
{
    if (a.isEmpty() || b.isEmpty())
        return AbsVal::empty();
    AbsVal r = AbsVal::top();
    r.zeros = a.zeros | b.zeros;
    r.ones = a.ones & b.ones;
    r.umax = std::min(a.umax, b.umax);
    r.reduce();
    return r;
}

AbsVal
orVals(const AbsVal &a, const AbsVal &b)
{
    if (a.isEmpty() || b.isEmpty())
        return AbsVal::empty();
    AbsVal r = AbsVal::top();
    r.zeros = a.zeros & b.zeros;
    r.ones = a.ones | b.ones;
    r.umin = std::max(a.umin, b.umin);
    const unsigned bw = std::max(std::bit_width(a.umax),
                                 std::bit_width(b.umax));
    r.umax = lowMask(bw);
    r.reduce();
    return r;
}

AbsVal
xorVals(const AbsVal &a, const AbsVal &b)
{
    if (a.isEmpty() || b.isEmpty())
        return AbsVal::empty();
    AbsVal r = AbsVal::top();
    const Word known = (a.zeros | a.ones) & (b.zeros | b.ones);
    const Word vbits = a.ones ^ b.ones;
    r.zeros = known & ~vbits;
    r.ones = known & vbits;
    const unsigned bw = std::max(std::bit_width(a.umax),
                                 std::bit_width(b.umax));
    r.umax = lowMask(bw);
    r.reduce();
    return r;
}

AbsVal
shlConst(const AbsVal &a, unsigned c)
{
    if (a.isEmpty())
        return AbsVal::empty();
    if (c == 0)
        return a;
    AbsVal r = AbsVal::top();
    r.zeros = (a.zeros << c) | lowMask(c);
    r.ones = a.ones << c;
    if (a.umax <= (kUMax >> c)) {
        r.umin = a.umin << c;
        r.umax = a.umax << c;
    }
    r.reduce();
    return r;
}

AbsVal
shrConst(const AbsVal &a, unsigned c)
{
    if (a.isEmpty())
        return AbsVal::empty();
    if (c == 0)
        return a;
    AbsVal r = AbsVal::top();
    r.zeros = (a.zeros >> c) | ~(kUMax >> c);
    r.ones = a.ones >> c;
    r.umin = a.umin >> c;
    r.umax = a.umax >> c;
    r.reduce();
    return r;
}

AbsVal
sraConst(const AbsVal &a, unsigned c)
{
    if (a.isEmpty())
        return AbsVal::empty();
    if (c == 0)
        return a;
    AbsVal r = AbsVal::top();
    r.smin = a.smin >> c;
    r.smax = a.smax >> c;
    if (a.zeros >> 63) { // sign bit known zero: same as logical shift
        r.zeros = (a.zeros >> c) | ~(kUMax >> c);
        r.ones = a.ones >> c;
    } else if (a.ones >> 63) { // sign bit known one: shifts in ones
        r.zeros = a.zeros >> c;
        r.ones = (a.ones >> c) | ~(kUMax >> c);
    }
    r.reduce();
    return r;
}

/** Shift by a register amount; the ISA masks the count with &63. */
AbsVal
shiftVar(Opcode op, const AbsVal &a, const AbsVal &b)
{
    const AbsVal eff = andVals(b, AbsVal::constant(63));
    if (a.isEmpty() || eff.isEmpty())
        return AbsVal::empty();
    if (eff.isConstant()) {
        const unsigned c = unsigned(eff.constantValue());
        switch (op) {
          case Opcode::SHL: return shlConst(a, c);
          case Opcode::SHR: return shrConst(a, c);
          default:          return sraConst(a, c);
        }
    }
    AbsVal r = AbsVal::top();
    const unsigned clo = unsigned(eff.umin), chi = unsigned(eff.umax);
    if (op == Opcode::SHR) {
        r.umin = a.umin >> chi;
        r.umax = a.umax >> clo;
    } else if (op == Opcode::SHL) {
        // Only the trailing-zero guarantee survives a variable shift.
        const unsigned tz =
            unsigned(std::countr_one(a.zeros)) + clo;
        r.zeros |= lowMask(std::min(tz, 63u));
    }
    r.reduce();
    return r;
}

std::optional<bool>
provedLtS(const AbsVal &a, const AbsVal &b)
{
    if (a.smax < b.smin)
        return true;
    if (a.smin >= b.smax)
        return false;
    return std::nullopt;
}

std::optional<bool>
provedLtU(const AbsVal &a, const AbsVal &b)
{
    if (a.umax < b.umin)
        return true;
    if (a.umin >= b.umax)
        return false;
    return std::nullopt;
}

std::optional<bool>
provedEq(const AbsVal &a, const AbsVal &b)
{
    if (a.isConstant() && b.isConstant())
        return a.constantValue() == b.constantValue();
    if (AbsVal::meet(a, b).isEmpty())
        return false;
    return std::nullopt;
}

AbsVal
boolVal(std::optional<bool> proved)
{
    if (proved)
        return AbsVal::constant(*proved ? 1 : 0);
    AbsVal r = AbsVal::top();
    r.umin = 0;
    r.umax = 1;
    r.zeros = ~Word(1);
    r.reduce();
    return r;
}

/** Remove the single value c from a's feasible set where cheap. */
AbsVal
trimNotEqual(const AbsVal &a, Word c)
{
    if (!a.contains(c))
        return a;
    if (a.isConstant())
        return AbsVal::empty();
    AbsVal r = a;
    if (r.umin == c)
        ++r.umin;
    if (r.umax == c)
        --r.umax;
    if (r.smin == SWord(c))
        ++r.smin;
    if (r.smax == SWord(c))
        --r.smax;
    r.reduce();
    return r;
}

/**
 * Refine (a, b) under "branch outcome holds". Empty results mean the
 * outcome is infeasible from this state — a proof the arm is dead.
 */
void
refineBranch(Opcode op, bool taken, AbsVal &a, AbsVal &b)
{
    // Map every opcode/outcome pair onto one of four relations.
    enum class Rel { Eq, Ne, LtS, GeS, LtU, GeU };
    Rel rel;
    switch (op) {
      case Opcode::BEQ:  rel = taken ? Rel::Eq : Rel::Ne; break;
      case Opcode::BNE:  rel = taken ? Rel::Ne : Rel::Eq; break;
      case Opcode::BLT:  rel = taken ? Rel::LtS : Rel::GeS; break;
      case Opcode::BGE:  rel = taken ? Rel::GeS : Rel::LtS; break;
      case Opcode::BLTU: rel = taken ? Rel::LtU : Rel::GeU; break;
      default:           rel = taken ? Rel::GeU : Rel::LtU; break;
    }
    switch (rel) {
      case Rel::Eq: {
        AbsVal m = AbsVal::meet(a, b);
        a = m;
        b = m;
        break;
      }
      case Rel::Ne:
        if (b.isConstant())
            a = trimNotEqual(a, b.constantValue());
        if (a.isConstant())
            b = trimNotEqual(b, a.constantValue());
        if (a.isConstant() && b.isConstant() &&
            a.constantValue() == b.constantValue())
            a = AbsVal::empty();
        break;
      case Rel::LtS:
        if (b.smax == kSMin || a.smin == kSMax) {
            a = AbsVal::empty();
            break;
        }
        a.smax = std::min(a.smax, b.smax - 1);
        b.smin = std::max(b.smin, a.smin + 1);
        a.reduce();
        b.reduce();
        break;
      case Rel::GeS:
        a.smin = std::max(a.smin, b.smin);
        b.smax = std::min(b.smax, a.smax);
        a.reduce();
        b.reduce();
        break;
      case Rel::LtU:
        if (b.umax == 0 || a.umin == kUMax) {
            a = AbsVal::empty();
            break;
        }
        a.umax = std::min(a.umax, b.umax - 1);
        b.umin = std::max(b.umin, a.umin + 1);
        a.reduce();
        b.reduce();
        break;
      case Rel::GeU:
        a.umin = std::max(a.umin, b.umin);
        b.umax = std::min(b.umax, a.umax);
        a.reduce();
        b.reduce();
        break;
    }
}

/** Index of one distinct AbsVal in a run's ValueTable. */
using ValId = std::uint32_t;

/**
 * The distinct abstract values one run meets, each stored once, so
 * equal values have equal ids and a state compares and copies as ids.
 * Ids 0 and 1 are constant(0) (also AbsVal{}) and top().
 */
class ValueTable
{
  public:
    static constexpr ValId kZero = 0;
    static constexpr ValId kTop = 1;

    ValueTable() : index(1024, kFree)
    {
        intern(AbsVal::constant(0));
        intern(AbsVal::top());
    }

    const AbsVal &operator[](ValId id) const { return vals[id]; }

    /** The id of v, added to the table on first sight. */
    ValId intern(const AbsVal &v)
    {
        ValId &at = indexSlot(v);
        if (at != kFree)
            return at;
        at = ValId(vals.size());
        vals.push_back(v);
        if (2 * vals.size() > index.size()) {
            // Double the index, so its load stays at most 1/2.
            index.assign(2 * index.size(), kFree);
            for (ValId id = 0; id < vals.size(); ++id)
                indexSlot(vals[id]) = id;
        }
        return ValId(vals.size() - 1);
    }

  private:
    static constexpr ValId kFree = ~ValId(0);

    /** v's entry in the index, or the free entry where it belongs. */
    ValId &indexSlot(const AbsVal &v)
    {
        std::uint64_t h = 0;
        for (Word w : {Word(v.smin), Word(v.smax), v.umin, v.umax, v.zeros,
                       v.ones})
            h = std::rotl((h ^ w) * 0x9e3779b97f4a7c15ull, 29);
        for (h ^= h >> 32;; ++h) {
            ValId &at = index[h & (index.size() - 1)];
            if (at == kFree || vals[at] == v)
                return at;
        }
    }

    std::vector<AbsVal> vals;
    std::vector<ValId> index; ///< power-of-two size, linear probing
};

/** The whole engine lives in one run()-scoped context. */
class Engine
{
  public:
    Engine(const isa::Program &program, const AbsintOptions &options)
        : prog(program), opts(options), memo(kJoinMemoEntries)
    {
    }

    AbsintResult run();

  private:
    /** AbsState with every value an id into `vals`. */
    struct State
    {
        bool reachable = false;
        bool memHavoc = false;
        std::array<ValId, isa::kNumArchRegs> regs{}; ///< all kZero
        std::vector<ValId> slots;
    };

    /** join() results by (a, b) id pair, direct-mapped. */
    static constexpr std::size_t kJoinMemoBits = 12;
    static constexpr std::size_t kJoinMemoEntries = 1u << kJoinMemoBits;
    struct MemoEntry
    {
        std::uint64_t key = ~std::uint64_t(0); ///< (a << 32) | b
        ValId id = 0;
    };

    ValId regId(const State &s, ArchReg r) const
    {
        return r == isa::kZeroReg ? ValueTable::kZero : s.regs[r];
    }

    AbsVal val(const State &s, ArchReg r) const
    {
        return vals[regId(s, r)];
    }

    void setRegId(State &s, ArchReg r, ValId id) const
    {
        if (r != isa::kZeroReg)
            s.regs[r] = id;
    }

    void setReg(State &s, ArchReg r, const AbsVal &v)
    {
        setRegId(s, r, vals.intern(v));
    }

    /** The id of join(vals[a], vals[b]), through the memo. */
    ValId joinIds(ValId a, ValId b)
    {
        const std::uint64_t key = std::uint64_t(a) << 32 | b;
        MemoEntry &e =
            memo[(key * 0x9e3779b97f4a7c15ull) >> (64 - kJoinMemoBits)];
        if (e.key != key) {
            e.key = key;
            e.id = vals.intern(AbsVal::join(vals[a], vals[b]));
        }
        return e.id;
    }

    /** The initial data word at addr (0 when none or unaligned): a
     *  binary search for the program's data run holding addr, then an
     *  index into that run. */
    Word imageWord(Word addr) const
    {
        const auto &segs = prog.dataSegments();
        auto it = std::upper_bound(
            segs.begin(), segs.end(), addr,
            [](Word a, const isa::DataSegment &s) { return a < s.base; });
        if (it == segs.begin() || addr % sizeof(Word) != 0)
            return 0;
        const isa::DataSegment &seg = *--it;
        return addr < seg.end() ? seg.words[(addr - seg.base) / sizeof(Word)]
                                : 0;
    }

    std::size_t slotIndex(Word addr) const
    {
        auto it = std::lower_bound(slotAddrs.begin(), slotAddrs.end(),
                                   addr);
        if (it != slotAddrs.end() && *it == addr)
            return std::size_t(it - slotAddrs.begin());
        return slotAddrs.size();
    }

    State initialState();
    /** Clobber everything a callee may write: every register, every
     *  slot and untracked memory. */
    static void havoc(State &s);
    /**
     * Join `src` into `dst` in place, widening each element against its
     * old value when `widen` is set. Returns true when `dst` changed.
     * Outside widening an element equal to the incoming one is left
     * untouched (join(a, a) = a; see DESIGN.md on reduce()).
     */
    bool joinState(State &dst, const State &src, bool widen);
    /** The public form of s, every id looked up. */
    AbsState expand(const State &s) const;

    /** Dataflow effect of a non-control instruction. */
    void applyTransfer(const Inst &inst, State &s);

    /**
     * Enumerate into `out` the concrete in-image targets of an
     * indirect jump whose abstract target is v. False: not enumerable
     * (smear).
     */
    bool enumerateTargets(const AbsVal &v,
                          std::vector<std::uint32_t> &out) const;

    /**
     * Pass every (successor index, out-state) edge of instruction idx
     * to sink(t, out), in a fixed order. `s` holds the in-state of idx
     * on entry and is rewritten into each out-state in turn, so the
     * caller passes a copy it may lose. Returns true, with `s`
     * untouched, when idx is an unresolvable indirect jump: its state
     * must join the smear instead.
     */
    template <typename Sink>
    bool outEdges(std::size_t idx, State &s, Sink &&sink);

    const isa::Program &prog;
    const AbsintOptions &opts;
    ValueTable vals;
    std::vector<MemoEntry> memo;
    std::vector<Word> slotAddrs;
    std::vector<std::uint32_t> targets; ///< outEdges' JR/RET target set
};

Engine::State
Engine::initialState()
{
    State s;
    s.reachable = true;
    // Architectural registers are zero-initialized (ArchState), and
    // memory is the zero-filled image plus the program's initial data.
    // When the initial data may differ at evaluation time (marking
    // synthesis), memory starts unknown instead: memHavoc blocks
    // untracked constant loads and every slot begins at top.
    s.memHavoc = !opts.assumeInitialData;
    s.regs.fill(ValueTable::kZero);
    s.slots.reserve(slotAddrs.size());
    for (Word a : slotAddrs)
        s.slots.push_back(
            opts.assumeInitialData
                ? vals.intern(AbsVal::constant(imageWord(a)))
                : ValueTable::kTop);
    return s;
}

void
Engine::havoc(State &s)
{
    s.memHavoc = true;
    s.regs.fill(ValueTable::kTop);
    std::fill(s.slots.begin(), s.slots.end(), ValueTable::kTop);
}

bool
Engine::joinState(State &dst, const State &src, bool widen)
{
    if (!src.reachable)
        return false;
    if (!dst.reachable) {
        dst = src;
        return true;
    }
    bool changed = src.memHavoc && !dst.memHavoc;
    dst.memHavoc = dst.memHavoc || src.memHavoc;
    // Equal ids are equal values, so only differing elements (or every
    // element, when widening) run join and widen.
    auto joinVal = [&](ValId &d, ValId v) {
        if (!widen && d == v)
            return;
        ValId j = joinIds(d, v);
        if (widen)
            j = vals.intern(AbsVal::widen(vals[d], vals[j]));
        if (j != d) {
            d = j;
            changed = true;
        }
    };
    for (std::size_t i = 0; i < dst.regs.size(); ++i)
        joinVal(dst.regs[i], src.regs[i]);
    for (std::size_t i = 0; i < dst.slots.size(); ++i)
        joinVal(dst.slots[i], src.slots[i]);
    return changed;
}

AbsState
Engine::expand(const State &s) const
{
    AbsState out;
    out.reachable = s.reachable;
    out.memHavoc = s.memHavoc;
    for (std::size_t i = 0; i < s.regs.size(); ++i)
        out.regs[i] = vals[s.regs[i]];
    out.slots.reserve(s.slots.size());
    for (ValId v : s.slots)
        out.slots.push_back(vals[v]);
    return out;
}

void
Engine::applyTransfer(const Inst &inst, State &s)
{
    const AbsVal a = val(s, inst.rs1);
    const AbsVal b = val(s, inst.rs2);
    const AbsVal imm = AbsVal::constant(Word(inst.imm));
    switch (inst.op) {
      case Opcode::NOP:
      case Opcode::HALT:
        break;
      case Opcode::ADD:
      case Opcode::FADD: setReg(s, inst.rd, addVals(a, b)); break;
      case Opcode::SUB:  setReg(s, inst.rd, subVals(a, b)); break;
      case Opcode::MUL:
      case Opcode::FMUL: setReg(s, inst.rd, mulVals(a, b)); break;
      case Opcode::DIVQ:
      case Opcode::FDIV: setReg(s, inst.rd, divVals(a, b)); break;
      case Opcode::AND:  setReg(s, inst.rd, andVals(a, b)); break;
      case Opcode::OR:   setReg(s, inst.rd, orVals(a, b)); break;
      case Opcode::XOR:  setReg(s, inst.rd, xorVals(a, b)); break;
      case Opcode::SHL:
      case Opcode::SHR:
      case Opcode::SRA:
        setReg(s, inst.rd, shiftVar(inst.op, a, b));
        break;
      case Opcode::SLT:
        setReg(s, inst.rd, boolVal(provedLtS(a, b)));
        break;
      case Opcode::SLTU:
        setReg(s, inst.rd, boolVal(provedLtU(a, b)));
        break;
      case Opcode::SEQ:
        setReg(s, inst.rd, boolVal(provedEq(a, b)));
        break;
      case Opcode::ADDI: setReg(s, inst.rd, addVals(a, imm)); break;
      case Opcode::MULI: setReg(s, inst.rd, mulVals(a, imm)); break;
      case Opcode::ANDI: setReg(s, inst.rd, andVals(a, imm)); break;
      case Opcode::ORI:  setReg(s, inst.rd, orVals(a, imm)); break;
      case Opcode::XORI: setReg(s, inst.rd, xorVals(a, imm)); break;
      case Opcode::SHLI:
        setReg(s, inst.rd, shlConst(a, unsigned(inst.imm & 63)));
        break;
      case Opcode::SHRI:
        setReg(s, inst.rd, shrConst(a, unsigned(inst.imm & 63)));
        break;
      case Opcode::SLTI:
        setReg(s, inst.rd, boolVal(provedLtS(a, imm)));
        break;
      case Opcode::SEQI:
        setReg(s, inst.rd, boolVal(provedEq(a, imm)));
        break;
      case Opcode::LI:
        setReg(s, inst.rd, AbsVal::constant(Word(inst.imm)));
        break;
      case Opcode::LD: {
        const AbsVal addr = addVals(a, imm);
        ValId loaded = ValueTable::kTop;
        if (addr.isConstant()) {
            const Word ea = addr.constantValue();
            if (const std::size_t ti = slotIndex(ea);
                ti < slotAddrs.size()) {
                loaded = s.slots[ti];
            } else if (!s.memHavoc && ea % sizeof(Word) == 0) {
                // Untouched memory still holds the initial image; if
                // the access faults instead, nothing retires and the
                // claim is vacuous.
                loaded = vals.intern(AbsVal::constant(imageWord(ea)));
            }
        }
        setRegId(s, inst.rd, loaded);
        break;
      }
      case Opcode::ST: {
        const AbsVal addr = addVals(a, imm);
        if (addr.isConstant()) {
            const Word ea = addr.constantValue();
            if (const std::size_t ti = slotIndex(ea);
                ti < slotAddrs.size()) {
                // Strong update: the address is exact.
                s.slots[ti] = regId(s, inst.rs2);
            } else {
                s.memHavoc = true;
            }
        } else {
            s.memHavoc = true;
            const ValId v = regId(s, inst.rs2);
            for (std::size_t ti = 0; ti < slotAddrs.size(); ++ti)
                if (addr.contains(slotAddrs[ti]))
                    s.slots[ti] = joinIds(s.slots[ti], v);
        }
        break;
      }
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::BLTU:
      case Opcode::BGEU:
      case Opcode::JMP:
      case Opcode::JR:
      case Opcode::CALL:
      case Opcode::RET:
      case Opcode::NUM_OPCODES: // not an instruction
        // Control transfers are handled by the edge generator.
        break;
    }
}

bool
Engine::enumerateTargets(const AbsVal &v,
                         std::vector<std::uint32_t> &out) const
{
    out.clear();
    if (v.isEmpty())
        return true; // infeasible jump: no successors
    const Word cap = Word(kMaxIndirectTargets);
    if (v.count(cap + 1) > cap)
        return false;
    // A jump outside the image faults concretely (nothing retires past
    // it), so only contained candidates become edges. Misaligned
    // candidates floor to an instruction index exactly as fetch() does.
    auto addCandidate = [&](Word w) {
        if (v.contains(w) && prog.contains(w))
            out.push_back(std::uint32_t(prog.indexOf(w)));
    };
    // count() proved the feasible set small; one of the two bounds
    // below is usually tight enough to enumerate directly.
    if (v.umax - v.umin <= 4096) {
        for (Word w = v.umin;; ++w) {
            addCandidate(w);
            if (w == v.umax)
                break;
        }
    } else {
        const Word unknown = ~(v.zeros | v.ones);
        if (std::popcount(unknown) > 12)
            return false;
        // Enumerate the unknown-bit subsets (known bits fixed).
        for (Word sub = 0;; sub = (sub - unknown) & unknown) {
            addCandidate(v.ones | sub);
            if (sub == unknown)
                break;
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return true;
}

template <typename Sink>
bool
Engine::outEdges(std::size_t idx, State &s, Sink &&sink)
{
    if (!s.reachable)
        return false;
    const Inst &inst = prog.instAt(idx);
    const std::size_t n = prog.size();
    const Addr pc = prog.baseAddr() + Addr(idx) * kInstBytes;

    auto targetIdx = [&]() -> std::size_t {
        if (inst.target != kNoAddr && prog.contains(inst.target))
            return prog.indexOf(inst.target);
        return n; // out of image: the concrete run faults, no edge
    };

    switch (inst.op) {
      case Opcode::HALT:
        break;
      case Opcode::JMP:
        if (const std::size_t t = targetIdx(); t < n)
            sink(t, s);
        break;
      case Opcode::CALL: {
        if (const std::size_t t = targetIdx(); t < n) {
            setReg(s, isa::kLinkReg, AbsVal::constant(pc + kInstBytes));
            sink(t, s);
        }
        if (idx + 1 < n) {
            // Summary edge across the call: the callee may clobber any
            // register (including the link) and any memory.
            havoc(s);
            sink(idx + 1, s);
        }
        break;
      }
      case Opcode::JR:
      case Opcode::RET:
        if (!enumerateTargets(val(s, inst.rs1), targets))
            return true;
        for (std::uint32_t t : targets)
            sink(std::size_t(t), s);
        break;
      default:
        if (isa::isCondBranch(inst.op)) {
            // Refine both arms up front: the first edge rewrites s.
            AbsVal a[2], b[2]; // [0] = fall, [1] = taken
            if (inst.rs1 != inst.rs2) {
                for (const bool taken : {false, true}) {
                    a[taken] = val(s, inst.rs1);
                    b[taken] = val(s, inst.rs2);
                    refineBranch(inst.op, taken, a[taken], b[taken]);
                }
            }
            for (const bool taken : {true, false}) {
                const std::size_t succ =
                    taken ? targetIdx() : idx + 1;
                if (succ >= n)
                    continue;
                if (inst.rs1 == inst.rs2) {
                    // Same register on both sides: the comparison is
                    // decided by the opcode alone.
                    const bool always =
                        inst.op == Opcode::BEQ ||
                        inst.op == Opcode::BGE ||
                        inst.op == Opcode::BGEU;
                    if (taken != always)
                        continue;
                } else {
                    if (a[taken].isEmpty() || b[taken].isEmpty())
                        continue; // infeasible arm
                    setReg(s, inst.rs1, a[taken]);
                    setReg(s, inst.rs2, b[taken]);
                }
                sink(succ, s);
            }
        } else if (idx + 1 < n) {
            applyTransfer(inst, s);
            sink(idx + 1, s);
        }
    }
    return false;
}

AbsintResult
Engine::run()
{
    AbsintResult res;
    const std::size_t n = prog.size();
    res.stats.insts = n;
    if (n == 0 || n > kMaxInsts)
        return res;

    // Tracked r0-relative memory slots: every aligned address some
    // load/store names directly against the zero register.
    for (std::size_t i = 0; i < n; ++i) {
        const Inst &inst = prog.instAt(i);
        if ((inst.op == Opcode::LD || inst.op == Opcode::ST) &&
            inst.rs1 == isa::kZeroReg &&
            Word(inst.imm) % sizeof(Word) == 0)
            slotAddrs.push_back(Word(inst.imm));
    }
    std::sort(slotAddrs.begin(), slotAddrs.end());
    slotAddrs.erase(std::unique(slotAddrs.begin(), slotAddrs.end()),
                    slotAddrs.end());
    if (slotAddrs.size() > kMaxSlots)
        slotAddrs.resize(kMaxSlots);

    // Widening points: leaders of back-edge target blocks (the same
    // loop-head view freq.cc derives its loop intervals from), plus a
    // visit-count backstop below for cycles that only appear once
    // indirect edges resolve.
    std::vector<char> widenPoint(n, 0);
    const cfg::Cfg graph = cfg::Cfg::build(prog);
    for (const auto &[u, v] : cfg::backEdges(graph)) {
        (void)u;
        widenPoint[prog.indexOf(graph.block(v).start)] = 1;
    }
    constexpr unsigned kForceWiden = 64;

    std::vector<State> in(n);
    std::vector<unsigned> joins(n, 0);
    std::vector<char> queued(n, 0);
    // Each index is queued at most once, so n slots never grow.
    RingQueue<std::uint32_t> worklist(n);
    State smear; // join of every unresolvable indirect out-state
    State cur;   // the popped in-state, rewritten into its out-states

    in[0] = initialState();
    worklist.push_back(0);
    queued[0] = 1;

    auto joinInto = [&](std::size_t t, const State &ns) {
        const bool widen = in[t].reachable &&
                           joins[t] >= opts.widenDelay &&
                           (widenPoint[t] || joins[t] >= kForceWiden);
        if (!joinState(in[t], ns, widen))
            return;
        ++joins[t];
        if (!queued[t]) {
            queued[t] = 1;
            worklist.push_back(std::uint32_t(t));
        }
    };

    const std::size_t iterationCap = 256 * n + 1024;
    while (!worklist.empty()) {
        if (++res.stats.iterations > iterationCap)
            return res; // give up: no states, trivially sound
        const std::size_t idx = worklist.front();
        worklist.pop_front();
        queued[idx] = 0;

        cur = in[idx];
        if (outEdges(idx, cur, joinInto) && joinState(smear, cur, false)) {
            // The smear flows into every program point.
            for (std::size_t t = 0; t < n; ++t)
                joinInto(t, smear);
        }
    }

    // Narrowing: Jacobi re-evaluation sweeps without widening. Every
    // iterate of the monotone transfer from a post-fixpoint remains
    // above the least fixpoint, so each sweep is sound and can only
    // tighten.
    for (unsigned pass = 0; pass < opts.narrowIters; ++pass) {
        std::vector<State> next(n);
        next[0] = initialState();
        State nextSmear;
        auto joinNext = [&](std::size_t t, const State &s) {
            joinState(next[t], s, false);
        };
        for (std::size_t idx = 0; idx < n; ++idx) {
            if (!in[idx].reachable)
                continue;
            cur = in[idx];
            if (outEdges(idx, cur, joinNext))
                joinState(nextSmear, cur, false);
        }
        if (nextSmear.reachable)
            for (std::size_t t = 0; t < n; ++t)
                joinNext(t, nextSmear);
        smear = std::move(nextSmear);
        in = std::move(next);
    }

    res.ran = true;
    res.smeared = smear.reachable;
    res.slotAddrs = slotAddrs;

    // Derive proofs and precise indirect edges from the final states.
    for (std::size_t idx = 0; idx < n; ++idx) {
        const Inst &inst = prog.instAt(idx);
        const Addr pc = prog.baseAddr() + Addr(idx) * kInstBytes;
        if (!in[idx].reachable)
            ++res.stats.unreachable;

        if (inst.op == Opcode::JR || inst.op == Opcode::RET) {
            // An unreachable jump records no edge set and counts as
            // unresolved, so FlowGraph keeps its conservative view.
            if (in[idx].reachable &&
                enumerateTargets(val(in[idx], inst.rs1), targets)) {
                res.resolvedIndirects[idx] = targets;
                ++res.stats.indirectResolved;
            } else {
                ++res.stats.indirectUnresolved;
            }
            continue;
        }
        if (!isa::isCondBranch(inst.op))
            continue;

        ++res.stats.branches;
        BranchProof proof;
        proof.backward = inst.target != kNoAddr && inst.target <= pc;
        if (in[idx].reachable) {
            const AbsVal a = val(in[idx], inst.rs1);
            const AbsVal b = val(in[idx], inst.rs2);
            if (!a.isTop())
                ++res.stats.nontrivialRegs;
            if (inst.rs2 != inst.rs1 && !b.isTop())
                ++res.stats.nontrivialRegs;
            bool feasible[2]; // [0] = fall, [1] = taken
            for (const bool taken : {false, true}) {
                if (inst.rs1 == inst.rs2) {
                    const bool always = inst.op == Opcode::BEQ ||
                                        inst.op == Opcode::BGE ||
                                        inst.op == Opcode::BGEU;
                    feasible[taken] = taken == always;
                } else {
                    AbsVal ra = a, rb = b;
                    refineBranch(inst.op, taken, ra, rb);
                    feasible[taken] = !ra.isEmpty() && !rb.isEmpty();
                }
            }
            if (feasible[1] && !feasible[0]) {
                proof.status = BranchProof::Status::Taken;
                ++res.stats.provedTaken;
            } else if (feasible[0] && !feasible[1]) {
                proof.status = BranchProof::Status::NotTaken;
                ++res.stats.provedNotTaken;
            }
            if (proof.backward) {
                // A finite feasible-value count of the varying operand
                // bounds how often the loop branch can retest.
                constexpr Word kTripCap = Word(1) << 20;
                Word best = kTripCap;
                for (const AbsVal &v : {a, b})
                    if (!v.isConstant())
                        best = std::min(best, v.count(kTripCap));
                if (best < kTripCap && best > 0) {
                    proof.tripMax = best;
                    ++res.stats.tripBounded;
                }
            }
        }
        res.branchProofs.emplace(pc, proof);
    }

    res.in.reserve(n);
    for (const State &st : in)
        res.in.push_back(expand(st));
    return res;
}

} // namespace

AbsVal
AbsintResult::regBefore(std::size_t idx, ArchReg r) const
{
    if (!ran || idx >= in.size())
        return AbsVal::top();
    if (r == isa::kZeroReg)
        return AbsVal::constant(0);
    if (!in[idx].reachable)
        return AbsVal::empty();
    return in[idx].regs[r];
}

BranchProof
AbsintResult::proofAt(Addr pc) const
{
    auto it = branchProofs.find(pc);
    return it == branchProofs.end() ? BranchProof{} : it->second;
}

AbsintResult
runAbsint(const isa::Program &program, const AbsintOptions &opts)
{
    return Engine(program, opts).run();
}

AbsVal
absintAdd(const AbsVal &a, const AbsVal &b)
{
    return addVals(a, b);
}

} // namespace dmp::analysis
