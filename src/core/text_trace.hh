/**
 * @file
 * Text-trace subscriber: prints the core's event stream as one record
 * per event,
 *
 *     <cycle>: <component>: <Flag>: sq=<seq>: <message>
 *
 * under four flags, one per event class:
 *   - Commit: each retired entry (onRetire) with its fetch, rename,
 *     issue and complete cycles, plus the detail of a mispredicted
 *     conditional branch;
 *   - Flush: each squashed entry (onSquash) and each completed
 *     pipeline flush (onFlush);
 *   - Dpred / Dual: the start and the end of each dynamic-predication
 *     or dual-path episode (onEpisodeStart / onEpisodeEnd).
 *
 * Marker uops (enter.pred, enter.alt, exit.pred, select) appear as
 * retired or squashed entries, so an episode's path switch and normal
 * exit show up as the markers that carry them. Records come out in
 * event order (retire order for Commit), not stage order within a
 * cycle. The per-entry fields come from entryRecord
 * (core/pipeview.hh), the same record the pipeline viewer writes.
 */

#ifndef DMP_CORE_TEXT_TRACE_HH
#define DMP_CORE_TEXT_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"
#include "core/core.hh"
#include "core/observer.hh"
#include "core/pipeview.hh"

namespace dmp::core
{

/** One flag per event class the text trace prints. */
enum class TraceFlag : std::uint8_t
{
    Commit,
    Flush,
    Dpred,
    Dual,
    NumFlags, // sentinel — keep last
};

/** Name and one-line description of a flag (for --list-debug-flags). */
struct TraceFlagInfo
{
    const char *name;
    const char *desc;
};

/** Every flag, indexed by TraceFlag value. */
inline constexpr TraceFlagInfo kTraceFlags[] = {
    {"Commit", "retired entries: stage cycles, mispredict detail"},
    {"Flush", "pipeline flushes and the entries they squash"},
    {"Dpred", "dynamic-predication episode start and end"},
    {"Dual", "dual-path episode fork and end"},
};
static_assert(std::size(kTraceFlags) == std::size_t(TraceFlag::NumFlags));

/** Bit of `f` in a flag mask. */
constexpr unsigned
traceFlagBit(TraceFlag f)
{
    return 1u << unsigned(f);
}

/**
 * Parse a comma-separated flag list ("Dpred,Commit"; names are
 * case-sensitive, "all" or "All" selects every flag) into a mask.
 * Fatal on an unknown name.
 */
inline unsigned
parseTraceFlags(const std::string &csv)
{
    unsigned m = 0;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string name = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (name == "all" || name == "All") {
            m |= traceFlagBit(TraceFlag::NumFlags) - 1;
            continue;
        }
        unsigned i = 0;
        while (i < unsigned(TraceFlag::NumFlags) &&
               name != kTraceFlags[i].name)
            ++i;
        if (i == unsigned(TraceFlag::NumFlags))
            dmp_fatal("unknown debug flag: ", name,
                      " (see --list-debug-flags)");
        m |= 1u << i;
    }
    return m;
}

class TextTraceObserver final : public CoreObserver
{
  public:
    /**
     * Print the events selected by `flags` (a parseTraceFlags mask) to
     * `path`, or to stderr when `path` is empty; fatal if the file
     * cannot be opened. `core_` must outlive the observer.
     */
    TextTraceObserver(const Core &core_, unsigned flags,
                      const std::string &path = "")
        : core(core_), mask(flags)
    {
        if (!path.empty()) {
            out = std::fopen(path.c_str(), "w");
            if (!out)
                dmp_fatal("cannot open trace file: ", path);
        }
    }
    ~TextTraceObserver() override
    {
        if (out != stderr)
            std::fclose(out);
    }

    TextTraceObserver(const TextTraceObserver &) = delete;
    TextTraceObserver &operator=(const TextTraceObserver &) = delete;

    bool enabled(TraceFlag f) const { return mask & traceFlagBit(f); }

    void
    onRetire(const DynInst &di, std::uint64_t seq, PredId pred) override
    {
        if (!enabled(TraceFlag::Commit))
            return;
        std::string msg = entryText(di, seq, false);
        if (pred != kNoPred && di.predResolved && !di.predValue) {
            msg += " predicated-false";
        } else if (di.kind == UopKind::Normal && di.isCondBranch &&
                   di.actualNextPc != di.predNextPc) {
            msg += detail::concat(
                " mispredict starter=", int(di.isDivergeStarter),
                " mark=", int(core.program().mark(di.pc) != nullptr),
                " lowconf=", int(di.lowConfidence));
        }
        record(TraceFlag::Commit, core.cycle(), seq, "core.retire", msg);
    }

    void
    onSquash(const DynInst &di, std::uint64_t seq) override
    {
        if (enabled(TraceFlag::Flush))
            record(TraceFlag::Flush, core.cycle(), seq, "core.squash",
                   entryText(di, seq, true));
    }

    void
    onFlush(const FlushEvent &e) override
    {
        if (enabled(TraceFlag::Flush))
            record(TraceFlag::Flush, e.cycle, e.surviveSeq, "core.backend",
                   detail::concat("flush pc=", trace::hex(e.branchPc),
                                  " squashed=", e.squashed, " redirect=",
                                  trace::hex(e.redirectPc)));
    }

    void
    onEpisodeStart(EpisodeId id, Addr diverge_pc, bool is_dual,
                   Cycle now) override
    {
        const TraceFlag f = is_dual ? TraceFlag::Dual : TraceFlag::Dpred;
        if (enabled(f))
            record(f, now, 0, "core.fetch",
                   detail::concat("EP", id, is_dual ? " fork" : " enter",
                                  " pc=", trace::hex(diverge_pc)));
    }

    void
    onEpisodeEnd(const AcctEpisodeEnd &e, Cycle now) override
    {
        static constexpr const char *kConversion[] = {
            "none", "early-exit", "multi-diverge", "path-overflow"};
        static_assert(std::size(kConversion) ==
                      unsigned(ConversionReason::PathOverflow) + 1);
        const TraceFlag f =
            e.isDualPath ? TraceFlag::Dual : TraceFlag::Dpred;
        if (!enabled(f))
            return;
        std::string exit_case = e.exitCase
            ? "case" + std::to_string(unsigned(e.exitCase))
            : "none";
        record(f, now, 0, "core.dpred",
               detail::concat("EP", e.id, " end pc=",
                              trace::hex(e.divergePc), " exit=", exit_case,
                              " converted=", kConversion[e.converted],
                              e.dead ? " dead" : " alive", " fetched=",
                              e.fetchedInsts));
    }

  private:
    /**
     * "<pc> <name> f=.. r=.. i=.. c=.." (0 = stage not reached), then
     * " ep=<id>" for an entry tagged with an episode.
     */
    std::string
    entryText(const DynInst &di, std::uint64_t seq, bool squashed) const
    {
        const trace::PipeView::Record r =
            entryRecord(di, seq, core.cycle(), squashed);
        std::string s = detail::concat(
            trace::hex(r.pc), " ", r.disasm, " f=", r.fetch, " r=",
            r.rename, " i=", r.issue, " c=", r.complete);
        if (di.episode != kNoEpisode)
            s += detail::concat(" ep=", di.episode);
        return s;
    }

    void
    record(TraceFlag f, Cycle cycle, std::uint64_t seq,
           const char *component, const std::string &msg)
    {
        std::fprintf(out, "%10llu: %s: %s: sq=%llu: %s\n",
                     (unsigned long long)cycle, component,
                     kTraceFlags[unsigned(f)].name,
                     (unsigned long long)seq, msg.c_str());
    }

    const Core &core;
    const unsigned mask;
    std::FILE *out = stderr;
};

} // namespace dmp::core

#endif // DMP_CORE_TEXT_TRACE_HH
