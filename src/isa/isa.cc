#include "isa/isa.hh"

#include <sstream>

namespace dmp::isa
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
#define DMP_OPCODE_NAME(name, mnem, fmt, cls, sem)                      \
      case Opcode::name: return mnem;
      DMP_OPCODE_TABLE(DMP_OPCODE_NAME)
#undef DMP_OPCODE_NAME
      default: return "???";
    }
}

std::string
disassemble(const Inst &inst, Addr pc)
{
    std::ostringstream os;
    os << std::hex << "0x" << pc << std::dec << ": "
       << opcodeName(inst.op);
    const unsigned rd = inst.rd, rs1 = inst.rs1, rs2 = inst.rs2;
    switch (opFormat(inst.op)) {
      case OpFormat::None:
      case OpFormat::Ret:
        break;
      case OpFormat::RegReg:
        os << " r" << rd << ", r" << rs1 << ", r" << rs2;
        break;
      case OpFormat::RegImm:
        os << " r" << rd << ", r" << rs1 << ", " << inst.imm;
        break;
      case OpFormat::Li:
        os << " r" << rd << ", " << inst.imm;
        break;
      case OpFormat::Load:
        os << " r" << rd << ", [r" << rs1 << " + " << inst.imm << "]";
        break;
      case OpFormat::Store:
        os << " [r" << rs1 << " + " << inst.imm << "], r" << rs2;
        break;
      case OpFormat::CondBranch:
        os << " r" << rs1 << ", r" << rs2 << ", 0x" << std::hex
           << inst.target << std::dec;
        break;
      case OpFormat::Jump:
      case OpFormat::Call:
        os << " 0x" << std::hex << inst.target << std::dec;
        break;
      case OpFormat::Jr:
        os << " r" << rs1;
        break;
    }
    return os.str();
}

} // namespace dmp::isa
