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

    auto reg = [&](std::size_t i) { return parseReg(line, t[i]); };
    auto imm = [&](std::size_t i) { return parseImm(line, t[i]); };
    auto label = [&](std::size_t i) { return as.labelFor(t[i]); };

    // Operands are read by the opcode's format, so a register where an
    // immediate belongs (or the reverse) is a syntax error.
    ProgramBuilder &b = as.builder;
    switch (opFormat(op)) {
      case OpFormat::None:
        need(0);
        b.emit({op, 0, 0, 0, 0, kNoAddr});
        break;
      case OpFormat::RegReg:
        need(3);
        b.emit({op, reg(1), reg(2), reg(3), 0, kNoAddr});
        break;
      case OpFormat::RegImm:
        need(3);
        b.emit({op, reg(1), reg(2), 0, imm(3), kNoAddr});
        break;
      case OpFormat::Li:
        need(2);
        b.emit({op, reg(1), 0, 0, imm(2), kNoAddr});
        break;
      case OpFormat::Load:
        // ld rd, [rs1 + imm]  -> tokens: ld rd rs1 imm? (imm optional)
        if (t.size() == 3) {
            b.emit({op, reg(1), reg(2), 0, 0, kNoAddr});
        } else {
            need(3);
            b.emit({op, reg(1), reg(2), 0, imm(3), kNoAddr});
        }
        break;
      case OpFormat::Store:
        // st [rs1 + imm], rs2 -> tokens: st rs1 imm? rs2
        if (t.size() == 3) {
            b.emit({op, 0, reg(1), reg(2), 0, kNoAddr});
        } else {
            need(3);
            b.emit({op, 0, reg(1), reg(3), imm(2), kNoAddr});
        }
        break;
      case OpFormat::CondBranch:
        need(3);
        b.emitBranch(op, reg(1), reg(2), label(3));
        break;
      case OpFormat::Jump:
        need(1);
        b.emitJump(op, label(1));
        break;
      case OpFormat::Call:
        need(1);
        b.call(label(1));
        break;
      case OpFormat::Jr:
        need(1);
        b.emit({op, 0, reg(1), 0, 0, kNoAddr});
        break;
      case OpFormat::Ret:
        need(0);
        b.ret();
        break;
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
