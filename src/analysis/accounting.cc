#include "analysis/accounting.hh"

#include <algorithm>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace dmp::analysis
{

namespace
{

// Trace-event track ids (pid is fixed at 1 by TraceEventWriter).
constexpr int kTidTopdown = 1;
constexpr int kTidEpisodes = 2;
constexpr int kTidFlushes = 3;

// Numeric values of core::ExitCase / core::ConversionReason as carried
// by AcctEpisodeEnd (the observer interface is deliberately enum-free
// so dmp_analysis needs no core headers beyond observer.hh; kept in sync
// by tests/analysis/test_accounting.cpp).
constexpr std::uint8_t kCase2 = 2;
constexpr std::uint8_t kCase3 = 3;
constexpr std::uint8_t kCase4 = 4;
constexpr std::uint8_t kNotConverted = 0;
constexpr std::uint8_t kEarlyExit = 1;

} // namespace

const char *
bucketName(CycleBucket b)
{
    switch (b) {
      case CycleBucket::RetireUseful:
        return "retire_useful";
      case CycleBucket::RetireFalsePath:
        return "retire_false_path";
      case CycleBucket::FlushRecovery:
        return "flush_recovery";
      case CycleBucket::BackendStall:
        return "backend_stall";
      case CycleBucket::FetchStall:
        return "fetch_stall";
      case CycleBucket::FrontendStarved:
        return "frontend_starved";
      case CycleBucket::Idle:
        return "idle";
      default:
        return "?";
    }
}

CycleAccounting::CycleAccounting(unsigned frontend_depth,
                                 unsigned retire_width)
    : frontendDepth(frontend_depth), retireWidth(retire_width)
{
    dmp_assert(retireWidth > 0, "accounting needs a non-zero retire width");
}

void
CycleAccounting::closeTopdownSlice(Cycle end)
{
    if (traceW && curBucket >= 0 && end > runStart) {
        traceW->complete(kTidTopdown, runStart, end - runStart,
                         bucketName(CycleBucket(curBucket)), "topdown");
    }
}

void
CycleAccounting::onCycleEnd(const core::AcctCycleSample &s)
{
    CycleBucket b;
    if (s.usefulRetired > 0)
        b = CycleBucket::RetireUseful;
    else if (s.falseRetired + s.uopRetired > 0)
        b = CycleBucket::RetireFalsePath;
    else if (s.cycle < flushShadowEnd)
        b = CycleBucket::FlushRecovery;
    else if (!s.robEmpty)
        b = CycleBucket::BackendStall;
    else if (s.fetchStalled)
        b = CycleBucket::FetchStall;
    else if (s.frontendActive)
        b = CycleBucket::FrontendStarved;
    else
        b = CycleBucket::Idle;

    ++st.buckets[unsigned(b)];
    if (s.renameBlocked)
        ++st.renameBlockedCycles;

    if (traceW && int(b) != curBucket) {
        closeTopdownSlice(s.cycle);
        curBucket = int(b);
        runStart = s.cycle;
    }
    lastCycle = s.cycle;
    sawCycle = true;
}

void
CycleAccounting::chargeRun(CycleBucket b, Cycle start, std::uint64_t len)
{
    st.buckets[unsigned(b)] += len;
    if (traceW && int(b) != curBucket) {
        closeTopdownSlice(start);
        curBucket = int(b);
        runStart = start;
    }
}

void
CycleAccounting::onIdleSpan(const core::AcctCycleSample &first,
                            std::uint64_t span)
{
    // A skipped span retires nothing, so per-cycle classification
    // reduces to: FlushRecovery until flushShadowEnd, then one bucket
    // chosen by the (span-constant) state flags. Charging the two runs
    // in bulk produces byte-identical counters and trace slices to
    // feeding each cycle through onCycleEnd.
    if (span == 0)
        return;
    std::uint64_t recovery = 0;
    if (first.cycle < flushShadowEnd) {
        recovery = std::min<std::uint64_t>(span,
                                           flushShadowEnd - first.cycle);
        chargeRun(CycleBucket::FlushRecovery, first.cycle, recovery);
    }
    if (recovery < span) {
        CycleBucket b;
        if (!first.robEmpty)
            b = CycleBucket::BackendStall;
        else if (first.fetchStalled)
            b = CycleBucket::FetchStall;
        else if (first.frontendActive)
            b = CycleBucket::FrontendStarved;
        else
            b = CycleBucket::Idle;
        chargeRun(b, first.cycle + recovery, span - recovery);
    }
    if (first.renameBlocked)
        st.renameBlockedCycles += span;
    lastCycle = first.cycle + span - 1;
    sawCycle = true;
}

void
CycleAccounting::onEpisodeStart(EpisodeId id, Addr diverge_pc,
                                bool is_dual, Cycle now)
{
    DivergeBranchStats &row = rowFor(diverge_pc);
    if (is_dual)
        ++row.dualEpisodes;
    else
        ++row.episodes;
    ++st.episodesTracked;
    openEpisodes.emplace(id, diverge_pc);
    if (traceW) {
        traceW->asyncBegin(kTidEpisodes, now, id,
                           "EP@" + trace::hex(diverge_pc), "episode",
                           trace::TraceEventWriter::args({{"dual", is_dual}}));
    }
}

void
CycleAccounting::onEpisodeEnd(const core::AcctEpisodeEnd &e, Cycle now)
{
    auto it = openEpisodes.find(e.id);
    if (it == openEpisodes.end())
        return; // already ended (classified, then squashed later)
    openEpisodes.erase(it);

    DivergeBranchStats &row = rowFor(e.divergePc);
    row.fetchedInsts += e.fetchedInsts;
    if (e.dead) {
        ++row.squashed;
    } else if (e.isDualPath) {
        // A dual fork that collapsed to the alternate stream absorbed a
        // misprediction that would have flushed the baseline.
        if (!e.resolvedCorrect) {
            ++row.flushesAvoided;
            ++st.flushesAvoidedTotal;
        }
    } else {
        if (e.converted != kNotConverted) {
            ++row.converted;
            if (e.converted == kEarlyExit)
                ++row.earlyExits;
        }
        switch (e.exitCase) {
          case kCase2:
            ++row.mergedAtCfm;
            ++row.flushesAvoided;
            ++st.flushesAvoidedTotal;
            break;
          case kCase4:
            ++row.flushesAvoided;
            ++st.flushesAvoidedTotal;
            break;
          case kCase3:
            ++row.overshot;
            break;
          default:
            if (e.exitCase == 1)
                ++row.mergedAtCfm;
            break;
        }
    }
    if (traceW) {
        traceW->asyncEnd(kTidEpisodes, now, e.id,
                         "EP@" + trace::hex(e.divergePc), "episode",
                         trace::TraceEventWriter::args(
                             {{"exit_case", e.exitCase}, {"dead", e.dead}}));
    }
}

void
CycleAccounting::onFlush(const core::FlushEvent &e)
{
    ++st.flushesSeen;
    ++rowFor(e.branchPc).flushes;
    // Everything between now and the refilled front end is recovery.
    flushShadowEnd = e.cycle + frontendDepth;
    if (traceW) {
        traceW->instant(kTidFlushes, e.cycle,
                        "flush@" + trace::hex(e.branchPc), "flush",
                        trace::TraceEventWriter::args(
                            {{"squashed", e.squashed}}));
    }
}

void
CycleAccounting::onPredicatedRetire(Addr diverge_pc, bool is_uop)
{
    DivergeBranchStats &row = rowFor(diverge_pc);
    if (is_uop) {
        ++row.extraUops;
        ++st.predUopsRetired;
    } else {
        ++row.falseInsts;
        ++st.predFalseRetired;
    }
}

void
CycleAccounting::attachTrace(trace::TraceEventWriter *w)
{
    dmp_assert(!sawCycle, "trace attached after accounting started");
    traceW = w;
    if (traceW) {
        traceW->threadName(kTidTopdown, "topdown");
        traceW->threadName(kTidEpisodes, "episodes");
        traceW->threadName(kTidFlushes, "flushes");
    }
}

void
CycleAccounting::finish()
{
    if (finished)
        return;
    finished = true;
    if (!traceW)
        return;
    closeTopdownSlice(lastCycle + 1);
    curBucket = -1;
    for (const auto &[id, pc] : openEpisodes) {
        traceW->asyncEnd(kTidEpisodes, lastCycle + 1, id,
                         "EP@" + trace::hex(pc), "episode");
    }
}

DivergeBranchStats &
CycleAccounting::rowFor(Addr pc)
{
    DivergeBranchStats &row = table[pc];
    row.pc = pc;
    return row;
}

std::uint64_t
CycleAccounting::bucketCycles(CycleBucket b) const
{
    return st.buckets[unsigned(b)].value();
}

std::uint64_t
CycleAccounting::totalCycles() const
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < unsigned(CycleBucket::NumBuckets); ++i)
        sum += st.buckets[i].value();
    return sum;
}

double
CycleAccounting::netCycles(const DivergeBranchStats &row) const
{
    double saved = double(row.flushesAvoided) * double(frontendDepth);
    double paid = double(row.falseInsts + row.extraUops) /
                  double(retireWidth);
    return saved - paid;
}

namespace
{

/** Rows sorted by descending net benefit (ties by PC for determinism). */
std::vector<const DivergeBranchStats *>
sortedRows(const std::unordered_map<Addr, DivergeBranchStats> &table,
           const CycleAccounting &acct)
{
    std::vector<const DivergeBranchStats *> rows;
    rows.reserve(table.size());
    for (const auto &[pc, row] : table)
        rows.push_back(&row);
    std::sort(rows.begin(), rows.end(),
              [&](const DivergeBranchStats *a, const DivergeBranchStats *b) {
                  double na = acct.netCycles(*a), nb = acct.netCycles(*b);
                  if (na != nb)
                      return na > nb;
                  return a->pc < b->pc;
              });
    return rows;
}

} // namespace

std::string
CycleAccounting::json() const
{
    json::Writer w;
    w.beginObject().field("frontend_depth", frontendDepth);
    w.field("retire_width", retireWidth).field("total_cycles", totalCycles());
    w.key("buckets").beginObject();
    for (unsigned i = 0; i < unsigned(CycleBucket::NumBuckets); ++i)
        w.field(bucketName(CycleBucket(i)), st.buckets[i].value());
    w.endObject().key("branches").beginArray();
    for (const DivergeBranchStats *r : sortedRows(table, *this)) {
        w.beginObject().field("pc", trace::hex(r->pc));
        w.field("episodes", r->episodes);
        w.field("dual_episodes", r->dualEpisodes);
        w.field("merged_at_cfm", r->mergedAtCfm);
        w.field("overshot", r->overshot).field("early_exits", r->earlyExits);
        w.field("converted", r->converted).field("squashed", r->squashed);
        w.field("fetched_insts", r->fetchedInsts);
        w.field("false_insts", r->falseInsts);
        w.field("extra_uops", r->extraUops);
        w.field("flushes_avoided", r->flushesAvoided);
        w.field("flushes", r->flushes).field("net_cycles", netCycles(*r));
        w.endObject();
    }
    w.endArray().endObject();
    return w.take();
}

} // namespace dmp::analysis
