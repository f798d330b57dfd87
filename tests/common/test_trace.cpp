/** @file Unit tests for the text-trace subscriber and the trace writers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/trace.hh"
#include "core/text_trace.hh"
#include "isa/program.hh"

namespace dmp::trace
{
namespace
{

using core::parseTraceFlags;
using core::TextTraceObserver;
using core::TraceFlag;
using core::traceFlagBit;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** A short counted loop: a few dozen retired entries. */
isa::Program
tinyLoop()
{
    isa::ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 4);
    isa::Label loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 3);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    return b.build();
}

/** Owns a core over tinyLoop() and removes the trace file afterwards. */
class TraceTest : public ::testing::Test
{
  protected:
    void TearDown() override { std::remove(tracePath().c_str()); }
    /** Private to the running test: ctest runs tests in parallel. */
    std::string
    tracePath() const
    {
        return testing::TempDir() + "dmp_trace_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    }
    isa::Program prog = tinyLoop();
    core::Core machine{prog, core::CoreParams{}};
};

TEST_F(TraceTest, FlagTableMatchesEnum)
{
    ASSERT_EQ(std::size(core::kTraceFlags),
              std::size_t(TraceFlag::NumFlags));
    EXPECT_STREQ(core::kTraceFlags[unsigned(TraceFlag::Commit)].name,
                 "Commit");
    EXPECT_STREQ(core::kTraceFlags[unsigned(TraceFlag::Flush)].name,
                 "Flush");
    EXPECT_STREQ(core::kTraceFlags[unsigned(TraceFlag::Dpred)].name,
                 "Dpred");
    EXPECT_STREQ(core::kTraceFlags[unsigned(TraceFlag::Dual)].name,
                 "Dual");
}

TEST_F(TraceTest, ParseFlagsSingleAndList)
{
    EXPECT_EQ(parseTraceFlags("Flush"), traceFlagBit(TraceFlag::Flush));
    unsigned m = parseTraceFlags("Dpred,Commit");
    EXPECT_TRUE(m & traceFlagBit(TraceFlag::Dpred));
    EXPECT_TRUE(m & traceFlagBit(TraceFlag::Commit));
    EXPECT_FALSE(m & traceFlagBit(TraceFlag::Flush));
    EXPECT_FALSE(m & traceFlagBit(TraceFlag::Dual));
    EXPECT_EQ(parseTraceFlags(""), 0u);
}

TEST_F(TraceTest, ParseFlagsAll)
{
    unsigned m = parseTraceFlags("all");
    for (unsigned i = 0; i < unsigned(TraceFlag::NumFlags); ++i)
        EXPECT_TRUE(m & (1u << i)) << core::kTraceFlags[i].name;
    EXPECT_EQ(m, traceFlagBit(TraceFlag::NumFlags) - 1);
    EXPECT_EQ(parseTraceFlags("All"), m);
}

TEST_F(TraceTest, ParseFlagsUnknownIsFatal)
{
    EXPECT_EXIT(parseTraceFlags("NoSuchFlag"),
                ::testing::ExitedWithCode(EXIT_FAILURE), "NoSuchFlag");
    // Flags without an event stream are gone, not silently ignored.
    EXPECT_EXIT(parseTraceFlags("Dpred,Cache"),
                ::testing::ExitedWithCode(EXIT_FAILURE), "Cache");
}

TEST_F(TraceTest, EnabledFollowsMask)
{
    TextTraceObserver none(machine, 0, tracePath());
    EXPECT_FALSE(none.enabled(TraceFlag::Dpred));
    TextTraceObserver some(machine, parseTraceFlags("Dpred,Flush"),
                           tracePath());
    EXPECT_TRUE(some.enabled(TraceFlag::Dpred));
    EXPECT_TRUE(some.enabled(TraceFlag::Flush));
    EXPECT_FALSE(some.enabled(TraceFlag::Commit));
    EXPECT_FALSE(some.enabled(TraceFlag::Dual));
}

TEST_F(TraceTest, RecordFormat)
{
    {
        TextTraceObserver t(machine, parseTraceFlags("all"), tracePath());
        t.onEpisodeStart(7, 0x10d8, false, 1234);
        t.onFlush({2000, 0x1300, 12, 42, 0x1310});
        core::AcctEpisodeEnd e;
        e.id = 7;
        e.divergePc = 0x10d8;
        e.exitCase = 2;
        e.converted = 1;
        e.fetchedInsts = 9;
        t.onEpisodeEnd(e, 2001);
    }
    EXPECT_EQ(slurp(tracePath()),
              "      1234: core.fetch: Dpred: sq=0: EP7 enter pc=0x10d8\n"
              "      2000: core.backend: Flush: sq=42: flush pc=0x1300 "
              "squashed=12 redirect=0x1310\n"
              "      2001: core.dpred: Dpred: sq=0: EP7 end pc=0x10d8 "
              "exit=case2 converted=early-exit alive fetched=9\n");
}

TEST_F(TraceTest, CommitRecordsCarryStageCycles)
{
    {
        TextTraceObserver t(machine, parseTraceFlags("Commit"),
                            tracePath());
        machine.addObserver(&t);
        machine.run();
        ASSERT_TRUE(machine.halted());
    }
    std::string out = slurp(tracePath());
    // One line per retired entry (no uops without predication).
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
              std::ptrdiff_t(machine.stats().retiredInsts.value()));
    // The first retired entry is "li r10, 0" at the program base.
    const std::string first = out.substr(0, out.find('\n'));
    EXPECT_NE(first.find(": core.retire: Commit: sq=1: " +
                         hex(prog.baseAddr()) + " "),
              std::string::npos)
        << first;
    for (const char *stage : {" f=", " r=", " i=", " c="})
        EXPECT_NE(first.find(stage), std::string::npos) << first;
    EXPECT_EQ(out.find("Flush:"), std::string::npos);
}

TEST_F(TraceTest, DisabledFlagEmitsNothing)
{
    {
        TextTraceObserver t(machine, parseTraceFlags("Commit"),
                            tracePath());
        t.onEpisodeStart(1, 0x1000, false, 1); // Dpred: off
        t.onEpisodeStart(2, 0x1000, true, 1);  // Dual: off
        t.onFlush({1, 0x1000, 0, 1, 0x1004}); // Flush: off
    }
    EXPECT_EQ(slurp(tracePath()), "");
}

TEST_F(TraceTest, EmptyFlagSetWritesNothing)
{
    {
        TextTraceObserver t(machine, 0, tracePath());
        machine.addObserver(&t);
        machine.run();
        ASSERT_TRUE(machine.halted());
    }
    EXPECT_EQ(slurp(tracePath()), "");
}

TEST_F(TraceTest, HexFormatting)
{
    EXPECT_EQ(hex(0x0), "0x0");
    EXPECT_EQ(hex(0x10d8), "0x10d8");
    EXPECT_EQ(hex(0xdeadbeef), "0xdeadbeef");
}

TEST_F(TraceTest, PipeViewEmitsO3Format)
{
    std::string path = testing::TempDir() + "dmp_pipeview_test.trace";
    {
        PipeView pv(path);
        PipeView::Record r;
        r.seq = 3;
        r.pc = 0x1000;
        r.disasm = "addi";
        r.fetch = 10;
        r.rename = 12;
        r.issue = 14;
        r.complete = 15;
        r.retire = 18;
        pv.emit(r);
        EXPECT_EQ(pv.count(), 1u);
    }
    std::string out = slurp(path);
    EXPECT_NE(out.find("O3PipeView:fetch:10:0x0000000000001000:0:3:addi"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("O3PipeView:decode:12"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:rename:12"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:dispatch:12"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:issue:14"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:complete:15"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:retire:18:store:0"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceTest, PipeViewSquashedRetiresAtTickZero)
{
    std::string path = testing::TempDir() + "dmp_pipeview_squash.trace";
    {
        PipeView pv(path);
        PipeView::Record r;
        r.seq = 9;
        r.pc = 0x2000;
        r.disasm = "beq";
        r.fetch = 5;
        r.rename = 7;
        r.retire = 11; // ignored: squashed wins
        r.squashed = true;
        pv.emit(r);
    }
    std::string out = slurp(path);
    EXPECT_NE(out.find("O3PipeView:retire:0:store:0"), std::string::npos)
        << out;
    std::remove(path.c_str());
}

TEST_F(TraceTest, TraceEventWriterEmitsParsableJson)
{
    std::string path = testing::TempDir() + "dmp_trace_events.json";
    {
        TraceEventWriter w(path);
        w.threadName(1, "topdown");
        w.complete(1, 0, 10, "retire_useful", "topdown");
        w.asyncBegin(2, 2, 7, "EP@0x10d8", "episode", "{\"dual\":0}");
        w.asyncEnd(2, 9, 7, "EP@0x10d8", "episode",
                   "{\"exit_case\":2,\"dead\":0}");
        w.instant(3, 5, "flush@0x1300", "flush", "{\"squashed\":12}");
        EXPECT_EQ(w.count(), 5u);
        w.close();
        w.close(); // idempotent
    }
    std::string out = slurp(path);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(out, doc, err)) << err << "\n" << out;
    const json::Value *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->array.size(), 5u);

    const json::Value &meta = events->array[0];
    EXPECT_EQ(meta.get("ph")->string, "M");
    EXPECT_EQ(meta.get("name")->string, "thread_name");

    const json::Value &slice = events->array[1];
    EXPECT_EQ(slice.get("ph")->string, "X");
    EXPECT_EQ(slice.get("ts")->asU64(), 0u);
    EXPECT_EQ(slice.get("dur")->asU64(), 10u);
    EXPECT_EQ(slice.get("name")->string, "retire_useful");

    const json::Value &b = events->array[2];
    const json::Value &e = events->array[3];
    EXPECT_EQ(b.get("ph")->string, "b");
    EXPECT_EQ(e.get("ph")->string, "e");
    EXPECT_EQ(b.get("id")->asU64(), e.get("id")->asU64());
    EXPECT_EQ(b.get("cat")->string, e.get("cat")->string);
    EXPECT_EQ(b.get("args")->get("dual")->asU64(), 0u);
    EXPECT_EQ(e.get("args")->get("exit_case")->asU64(), 2u);

    const json::Value &inst = events->array[4];
    EXPECT_EQ(inst.get("ph")->string, "i");
    EXPECT_EQ(inst.get("s")->string, "t");
    EXPECT_EQ(inst.get("args")->get("squashed")->asU64(), 12u);
    std::remove(path.c_str());
}

TEST_F(TraceTest, TraceEventWriterEscapesNames)
{
    std::string path = testing::TempDir() + "dmp_trace_escape.json";
    {
        TraceEventWriter w(path);
        w.instant(1, 0, "quote\"back\\slash", "cat");
        w.close();
    }
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(slurp(path), doc, err)) << err;
    EXPECT_EQ(doc.get("traceEvents")->array[0].get("name")->string,
              "quote\"back\\slash");
    std::remove(path.c_str());
}

} // namespace
} // namespace dmp::trace
