/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef DMP_TESTS_TESTUTIL_HH
#define DMP_TESTS_TESTUTIL_HH

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/core.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"

namespace dmp::test
{

/**
 * A name every JSON exporter must round-trip unchanged: a quote, a
 * backslash, a tab and byte 0x01.
 */
inline const std::string kJsonName =
    std::string("we\"ird\\na\tme") + '\x01';

/**
 * An observer that only turns Core::run's cycle skipping off: attached,
 * the core ticks every cycle (the full-scan schedule the skip tests
 * compare against).
 */
struct NoCycleSkip : core::CoreObserver
{
    bool allowsCycleSkip() const override { return false; }
};

/**
 * The core's derived ratios (ipc, fetch_overhead, ...) by name: the
 * values `dmp run`'s stats dump prints, which no record carries.
 */
inline std::map<std::string, double>
derivedStats(const core::CoreStats &st)
{
    std::map<std::string, double> out;
    st.forEachStat(Overloaded{
        [](std::string_view, const Counter &, std::string_view) {},
        [](std::string_view, const Distribution &, std::string_view) {},
        [&](std::string_view name, double v, std::string_view) {
            out.emplace(name, v);
        }});
    return out;
}

/** Run the functional reference to completion (bounded). */
inline isa::ArchState
runReference(const isa::Program &prog, isa::MemoryImage &mem,
             std::uint64_t max_insts = 200'000'000)
{
    isa::FuncSim sim(prog, mem);
    sim.run(max_insts);
    EXPECT_TRUE(sim.halted()) << "functional reference did not halt";
    return sim.state();
}

/**
 * Run the timing core to completion and assert architectural
 * equivalence (registers + memory + retired instruction count) against
 * the functional reference.
 */
inline void
expectCoreMatchesReference(const isa::Program &prog,
                           const core::CoreParams &params,
                           const std::string &what,
                           std::uint64_t max_cycles = 400'000'000)
{
    isa::MemoryImage ref_mem(params.memoryBytes);
    isa::FuncSim ref(prog, ref_mem);
    ref.run(200'000'000);
    ASSERT_TRUE(ref.halted()) << what << ": reference did not halt";

    core::Core machine(prog, params);
    machine.run(~0ULL, max_cycles);
    ASSERT_TRUE(machine.halted())
        << what << ": timing core did not halt within " << max_cycles
        << " cycles (retired " << machine.stats().retiredInsts.value()
        << "/" << ref.retiredInsts() << ")";

    EXPECT_EQ(machine.stats().retiredInsts.value(), ref.retiredInsts())
        << what << ": retired instruction count mismatch";

    for (unsigned r = 0; r < isa::kNumArchRegs; ++r) {
        EXPECT_EQ(machine.retiredState().read(ArchReg(r)),
                  ref.state().read(ArchReg(r)))
            << what << ": architectural register r" << r << " mismatch";
    }
    EXPECT_TRUE(machine.retiredMemory() == ref_mem)
        << what << ": memory image mismatch";
    EXPECT_EQ(machine.retiredState().pc, ref.state().pc)
        << what << ": final PC mismatch";

    EXPECT_TRUE(machine.resourcesQuiescent())
        << what << ": leaked physical registers / checkpoints / "
        << "store-buffer entries: " << machine.resourceReport();
}

} // namespace dmp::test

#endif // DMP_TESTS_TESTUTIL_HH
