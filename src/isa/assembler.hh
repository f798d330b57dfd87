/**
 * @file
 * Text assembler for the simulated ISA.
 *
 * Syntax (one instruction per line, ';' or '#' starts a comment):
 *
 *   .base 0x1000          ; program base address (optional, first line)
 *   .data 0x100000 42     ; seed one data word (word-aligned address)
 *   loop:                 ; label
 *     li   r1, 5
 *     add  r2, r1, r1
 *     ld   r3, [r2 + 8]
 *     st   [r2 + 16], r3
 *     beq  r1, r2, loop
 *     jmp  done
 *     call fn
 *     ret
 *   done:
 *     halt
 *
 * Immediates are 64-bit: a leading '-' reads as signed, anything else
 * as unsigned (0xffffffffffffffff is -1); wider values are errors.
 */

#ifndef DMP_ISA_ASSEMBLER_HH
#define DMP_ISA_ASSEMBLER_HH

#include <string>

#include "isa/program.hh"

namespace dmp::isa
{

/**
 * Assemble a source listing into a Program.
 *
 * Syntax errors are reported with line numbers through dmp_fatal (they
 * are user errors, not simulator bugs).
 */
Program assemble(const std::string &source);

} // namespace dmp::isa

#endif // DMP_ISA_ASSEMBLER_HH
