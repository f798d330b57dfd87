#include "isa/program.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace dmp::isa
{

Program::Program(Addr base_, std::vector<Inst> insts_,
                 std::vector<DataSegment> data_,
                 std::unordered_map<std::string, Addr> labels_)
    : base(base_), insts(std::move(insts_)), data(std::move(data_)),
      labelMap(std::move(labels_))
{
    dmp_assert(base % kInstBytes == 0, "program base must be aligned");
    preDec.reserve(insts.size());
    for (const Inst &i : insts)
        preDec.push_back(preDecode(i));
    markIndex.assign(insts.size(), nullptr);
}

Program::Program(const Program &o)
    : base(o.base), insts(o.insts), preDec(o.preDec), data(o.data),
      labelMap(o.labelMap), marks(o.marks)
{
    rebuildMarkIndex();
}

Program &
Program::operator=(const Program &o)
{
    if (this == &o)
        return *this;
    base = o.base;
    insts = o.insts;
    preDec = o.preDec;
    data = o.data;
    labelMap = o.labelMap;
    marks = o.marks;
    rebuildMarkIndex();
    return *this;
}

void
Program::rebuildMarkIndex()
{
    markIndex.assign(insts.size(), nullptr);
    for (const auto &[pc, m] : marks)
        markIndex[indexOf(pc)] = &m;
}

void
Program::fetchFault(Addr pc) const
{
    dmp_fatal("instruction fetch outside program image: 0x",
              std::hex, pc);
}

Addr
Program::labelAddr(const std::string &name) const
{
    auto it = labelMap.find(name);
    if (it == labelMap.end())
        dmp_fatal("unknown label: ", name);
    return it->second;
}

void
Program::setMark(Addr pc, DivergeMark mark_)
{
    dmp_assert(contains(pc), "marking outside program image");
    dmp_assert(isCondBranch(fetch(pc).op),
               "diverge mark on a non-conditional-branch instruction");
    DivergeMark &node = marks[pc];
    node = std::move(mark_);
    markIndex[indexOf(pc)] = &node;
}

void
Program::setMarks(std::map<Addr, DivergeMark> marks_)
{
    for (const auto &[pc, m] : marks_)
        dmp_assert(contains(pc), "marking outside program image");
    marks = std::move(marks_);
    rebuildMarkIndex();
}

std::string
Program::listing() const
{
    // Invert the label map for annotation.
    std::map<Addr, std::string> by_addr;
    for (const auto &[name, addr] : labelMap)
        by_addr[addr] = name;

    std::ostringstream os;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        Addr pc = base + i * kInstBytes;
        auto lit = by_addr.find(pc);
        if (lit != by_addr.end())
            os << lit->second << ":\n";
        os << "  " << disassemble(insts[i], pc);
        if (const DivergeMark *m = mark(pc)) {
            if (m->isDiverge) {
                os << "   ; diverge";
                if (m->isLoopBranch)
                    os << " loop";
                os << " cfm=[";
                for (std::size_t k = 0; k < m->cfmPoints.size(); ++k) {
                    os << (k ? "," : "") << std::hex << "0x"
                       << m->cfmPoints[k] << std::dec;
                }
                os << "] N=" << m->earlyExitThreshold;
            }
            if (m->isSimpleHammock)
                os << " ; hammock";
        }
        os << '\n';
    }
    return os.str();
}

Label
ProgramBuilder::newLabel()
{
    labelAddrs.push_back(kNoAddr);
    labelNames.emplace_back();
    return Label(labelAddrs.size() - 1);
}

void
ProgramBuilder::bind(Label l)
{
    dmp_assert(l.valid, "binding an invalid label");
    dmp_assert(labelAddrs[l.id] == kNoAddr, "label bound twice");
    labelAddrs[l.id] = here();
}

void
ProgramBuilder::bindNamed(const std::string &name, Label l)
{
    bind(l);
    labelNames[l.id] = name;
}

Addr
ProgramBuilder::emit(Inst inst)
{
    dmp_assert(!built, "emit after build()");
    Addr pc = here();
    insts.push_back(inst);
    return pc;
}

Addr
ProgramBuilder::emitBranch(Opcode op, ArchReg rs1, ArchReg rs2, Label target)
{
    dmp_assert(target.valid, "branch to invalid label");
    Addr pc = emit({op, 0, rs1, rs2, 0, kNoAddr});
    fixups.push_back({insts.size() - 1, target.id});
    return pc;
}

Addr
ProgramBuilder::emitJump(Opcode op, Label target)
{
    dmp_assert(target.valid, "jump to invalid label");
    Addr pc = emit({op, 0, 0, 0, 0, kNoAddr});
    fixups.push_back({insts.size() - 1, target.id});
    return pc;
}

void
ProgramBuilder::dataWord(Addr addr, Word value)
{
    dataBlock(addr, 1)[0] = value;
}

std::span<Word>
ProgramBuilder::dataBlock(Addr addr, std::size_t words)
{
    dmp_assert(addr % sizeof(Word) == 0, "unaligned data word");
    if (words == 0)
        return {};
    // A block that starts where the last run ends extends that run.
    if (data.empty() || addr != data.back().end()) {
        if (!data.empty() && addr < data.back().end())
            dataAscending = false;
        data.push_back({addr, {}});
    }
    std::vector<Word> &run = data.back().words;
    run.resize(run.size() + words);
    return {run.end() - std::ptrdiff_t(words), words};
}

Inst &
ProgramBuilder::instAt(Addr pc)
{
    dmp_assert(pc >= base && (pc - base) / kInstBytes < insts.size(),
               "instAt outside emitted range");
    return insts[(pc - base) / kInstBytes];
}

Program
ProgramBuilder::build()
{
    dmp_assert(!built, "build() called twice");
    built = true;

    for (const Fixup &f : fixups) {
        Addr target = labelAddrs[f.labelId];
        if (target == kNoAddr)
            dmp_fatal("unbound label referenced by instruction ",
                      f.instIndex);
        insts[f.instIndex].target = target;
    }

    // Data written out of order or twice: sort the writes by address,
    // keep the last write to each word, and cut them into runs again so
    // readers can binary-search them. dataBlock() saw whether it ascends.
    if (!dataAscending) {
        std::vector<std::pair<Addr, Word>> writes;
        for (const DataSegment &s : data) {
            for (std::size_t i = 0; i < s.words.size(); ++i)
                writes.emplace_back(s.base + i * sizeof(Word), s.words[i]);
        }
        std::stable_sort(writes.begin(), writes.end(),
                         [](const auto &x, const auto &y) {
                             return x.first < y.first;
                         });
        // Over the reversed range, unique keeps each address's last write.
        const auto kept = std::unique(
            writes.rbegin(), writes.rend(),
            [](const auto &x, const auto &y) { return x.first == y.first; });
        writes.erase(writes.begin(), kept.base());
        data.clear();
        for (const auto &[addr, value] : writes)
            dataWord(addr, value);
    }

    std::unordered_map<std::string, Addr> named;
    for (std::size_t i = 0; i < labelAddrs.size(); ++i) {
        if (!labelNames[i].empty())
            named[labelNames[i]] = labelAddrs[i];
    }

    return Program(base, std::move(insts), std::move(data),
                   std::move(named));
}

} // namespace dmp::isa
