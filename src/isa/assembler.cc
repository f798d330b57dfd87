#include "isa/assembler.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace dmp::isa
{

namespace
{

/** Tokenized view of one source line. */
struct Line
{
    int number = 0;
    std::vector<std::string> tokens;
};

[[noreturn]] void
syntaxError(const Line &line, const std::string &what)
{
    std::ostringstream os;
    for (const auto &t : line.tokens)
        os << t << ' ';
    dmp_fatal("assembler: line ", line.number, ": ", what, " in '",
              os.str(), "'");
}

/** Split a line into tokens; commas, brackets, +, are separators. */
std::vector<std::string>
tokenize(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    auto flush = [&] {
        if (!cur.empty()) {
            out.push_back(cur);
            cur.clear();
        }
    };
    for (char c : text) {
        if (c == ';' || c == '#')
            break;
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
            c == '[' || c == ']' || c == '+') {
            flush();
        } else if (c == ':') {
            flush();
            out.emplace_back(":");
        } else {
            cur += c;
        }
    }
    flush();
    return out;
}

ArchReg
parseReg(const Line &line, const std::string &tok)
{
    if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R'))
        syntaxError(line, "expected register, got '" + tok + "'");
    char *end = nullptr;
    long v = std::strtol(tok.c_str() + 1, &end, 10);
    if (*end != '\0' || v < 0 || v >= long(kNumArchRegs))
        syntaxError(line, "bad register '" + tok + "'");
    return static_cast<ArchReg>(v);
}

/**
 * Parse a 64-bit immediate. A leading '-' is read as signed; anything
 * else as unsigned, so 0xffffffffffffffff is -1 in two's complement.
 * Values that do not fit in 64 bits are rejected, not clamped.
 */
std::int64_t
parseImm(const Line &line, const std::string &tok)
{
    char *end = nullptr;
    errno = 0;
    const std::int64_t v =
        tok[0] == '-'
            ? std::int64_t(std::strtoll(tok.c_str(), &end, 0))
            : std::int64_t(std::strtoull(tok.c_str(), &end, 0));
    if (*end != '\0')
        syntaxError(line, "bad immediate '" + tok + "'");
    if (errno == ERANGE)
        syntaxError(line, "immediate out of 64-bit range '" + tok + "'");
    return v;
}

Opcode
lookupOpcode(const std::string &mnemonic)
{
    static const std::map<std::string, Opcode> table = [] {
        std::map<std::string, Opcode> m;
        for (unsigned i = 0; i < unsigned(Opcode::NUM_OPCODES); ++i)
            m[opcodeName(Opcode(i))] = Opcode(i);
        return m;
    }();
    auto it = table.find(mnemonic);
    return it == table.end() ? Opcode::NUM_OPCODES : it->second;
}

/** Assembler state threaded through the line handlers. */
struct Assembler
{
    ProgramBuilder builder;
    std::map<std::string, Label> labels;

    explicit Assembler(Addr base) : builder(base) {}

    Label
    labelFor(const std::string &name)
    {
        auto it = labels.find(name);
        if (it != labels.end())
            return it->second;
        Label l = builder.newLabel();
        labels.emplace(name, l);
        return l;
    }
};

void
assembleInst(Assembler &as, const Line &line)
{
    const auto &t = line.tokens;
    Opcode op = lookupOpcode(t[0]);
    if (op == Opcode::NUM_OPCODES)
        syntaxError(line, "unknown mnemonic '" + t[0] + "'");

    auto need = [&](std::size_t n) {
        if (t.size() != n + 1)
            syntaxError(line, "wrong operand count");
    };

    ProgramBuilder &b = as.builder;
    switch (op) {
      case Opcode::NOP:
        need(0);
        b.nop();
        break;
      case Opcode::HALT:
        need(0);
        b.halt();
        break;
      case Opcode::LI:
        need(2);
        b.li(parseReg(line, t[1]), parseImm(line, t[2]));
        break;
      case Opcode::LD:
        // ld rd, [rs1 + imm]  -> tokens: ld rd rs1 imm? (imm optional)
        if (t.size() == 3) {
            b.ld(parseReg(line, t[1]), parseReg(line, t[2]), 0);
        } else {
            need(3);
            b.ld(parseReg(line, t[1]), parseReg(line, t[2]),
                 parseImm(line, t[3]));
        }
        break;
      case Opcode::ST:
        // st [rs1 + imm], rs2 -> tokens: st rs1 imm? rs2
        if (t.size() == 3) {
            b.st(parseReg(line, t[1]), 0, parseReg(line, t[2]));
        } else {
            need(3);
            b.st(parseReg(line, t[1]), parseImm(line, t[2]),
                 parseReg(line, t[3]));
        }
        break;
      case Opcode::JMP:
        need(1);
        b.jmp(as.labelFor(t[1]));
        break;
      case Opcode::CALL:
        need(1);
        b.call(as.labelFor(t[1]));
        break;
      case Opcode::RET:
        need(0);
        b.ret();
        break;
      case Opcode::JR:
        need(1);
        b.jr(parseReg(line, t[1]));
        break;
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::BLTU:
      case Opcode::BGEU:
        need(3);
        b.emitBranch(op, parseReg(line, t[1]), parseReg(line, t[2]),
                     as.labelFor(t[3]));
        break;
      default: {
        // Remaining formats: reg-reg-reg or reg-reg-imm.
        need(3);
        ArchReg rd = parseReg(line, t[1]);
        ArchReg rs1 = parseReg(line, t[2]);
        bool imm_form = !t[3].empty() &&
            (t[3][0] != 'r' && t[3][0] != 'R');
        // "r..." could still be a decimal like "-r"? No: immediates are
        // numeric, registers start with r/R.
        if (imm_form) {
            b.emit({op, rd, rs1, 0, parseImm(line, t[3]), kNoAddr});
        } else {
            b.emit({op, rd, rs1, parseReg(line, t[3]), 0, kNoAddr});
        }
        break;
      }
    }
}

} // namespace

Program
assemble(const std::string &source)
{
    // Pre-scan for .base so the builder starts at the right address.
    Addr base = 0x1000;
    {
        std::istringstream is(source);
        std::string text;
        int number = 0;
        while (std::getline(is, text)) {
            ++number;
            Line line{number, tokenize(text)};
            if (!line.tokens.empty() && line.tokens[0] == ".base") {
                if (line.tokens.size() != 2)
                    syntaxError(line, ".base takes one operand");
                base = static_cast<Addr>(parseImm(line, line.tokens[1]));
                break;
            }
            if (!line.tokens.empty() && line.tokens[0] != ".base")
                break; // .base must precede any code
        }
    }

    Assembler as(base);
    std::istringstream is(source);
    std::string text;
    int number = 0;
    while (std::getline(is, text)) {
        ++number;
        Line line{number, tokenize(text)};
        auto &t = line.tokens;
        if (t.empty())
            continue;
        if (t[0] == ".base")
            continue; // handled in the pre-scan
        if (t[0] == ".data") {
            if (t.size() != 3)
                syntaxError(line, ".data takes address and value");
            const auto addr = static_cast<Addr>(parseImm(line, t[1]));
            if (addr % sizeof(Word) != 0)
                syntaxError(line, ".data address is not word-aligned");
            as.builder.dataWord(addr,
                                static_cast<Word>(parseImm(line, t[2])));
            continue;
        }
        // Labels: "name :" possibly followed by an instruction.
        while (t.size() >= 2 && t[1] == ":") {
            as.builder.bindNamed(t[0], as.labelFor(t[0]));
            t.erase(t.begin(), t.begin() + 2);
        }
        if (t.empty())
            continue;
        assembleInst(as, line);
    }
    return as.builder.build();
}

} // namespace dmp::isa
