/**
 * @file
 * Trace file writers for the core's observers.
 *
 * The text trace (`<cycle>: <component>: <Flag>: sq=<seq>: ...`
 * records) is not here: it is the fourth CoreObserver subscriber,
 * core/text_trace.hh, beside the pipeline viewer, cycle accounting and
 * the self-checker. It uses hex() below for addresses.
 *
 * PipeView writes per-instruction lifecycle records in the gem5
 * O3PipeView format (one tick per cycle), which the Konata pipeline
 * visualizer loads directly: fetch, decode/rename/dispatch, issue,
 * complete, retire — with retire tick 0 marking a squashed instruction.
 *
 * TraceEventWriter emits Chrome trace-event JSON (the format Perfetto
 * and chrome://tracing load directly): complete slices, async spans,
 * and instant markers on named threads of one synthetic process, with
 * one simulated cycle mapped to one timestamp unit. The cycle
 * accounting subsystem (src/analysis/accounting.hh) uses it to render
 * top-down phases, dpred episodes, and flushes on a timeline.
 */

#ifndef DMP_COMMON_TRACE_HH
#define DMP_COMMON_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

#include "common/json.hh"
#include "common/types.hh"

namespace dmp::trace
{

/** Lowercase-hex rendering of an address ("0x4a8") for trace messages. */
std::string hex(std::uint64_t v);

/**
 * Konata-compatible pipeline trace writer (gem5 O3PipeView format).
 * One Record per renamed instruction, emitted at retire or squash.
 */
class PipeView
{
  public:
    /** Lifecycle timestamps of one instruction (0 = stage not reached). */
    struct Record
    {
        std::uint64_t seq = 0;
        Addr pc = 0;
        std::string disasm;
        Cycle fetch = 0;
        Cycle rename = 0;   ///< also reported as decode and dispatch
        Cycle issue = 0;
        Cycle complete = 0;
        Cycle retire = 0;   ///< 0 == squashed
        bool squashed = false;
    };

    /** Open `path` for writing; fatal on failure. */
    explicit PipeView(const std::string &path);
    ~PipeView();

    PipeView(const PipeView &) = delete;
    PipeView &operator=(const PipeView &) = delete;

    /** Write one instruction's O3PipeView block. */
    void emit(const Record &r);

    /** Records written so far. */
    std::uint64_t count() const { return nRecords; }

  private:
    std::FILE *f = nullptr;
    std::uint64_t nRecords = 0;
};

/**
 * Chrome trace-event JSON writer (Perfetto-loadable).
 *
 * Produces {"displayTimeUnit":"ms","traceEvents":[...]} with one event
 * object per call; timestamps are simulated cycles. Events carry a
 * fixed pid and a caller-chosen tid, so related slices group into named
 * tracks (see threadName). The footer is written by close() or the
 * destructor; a file truncated mid-run is not valid JSON, matching the
 * all-or-nothing contract of the other exporters.
 */
class TraceEventWriter
{
  public:
    /** Open `path` for writing; fatal on failure. */
    explicit TraceEventWriter(const std::string &path);
    ~TraceEventWriter();

    TraceEventWriter(const TraceEventWriter &) = delete;
    TraceEventWriter &operator=(const TraceEventWriter &) = delete;

    /** Name a track (tid) via a metadata event. */
    void threadName(int tid, const std::string &name);

    /**
     * One complete slice ("ph":"X") covering [ts, ts+dur).
     * @param args optional rendered JSON object ("{...}", see args())
     *        attached as the event's args; empty = no args member.
     */
    void complete(int tid, std::uint64_t ts, std::uint64_t dur,
                  const std::string &name, const char *cat,
                  const std::string &args = "");

    /** Async span begin ("ph":"b"); paired by (cat, id, name). */
    void asyncBegin(int tid, std::uint64_t ts, std::uint64_t id,
                    const std::string &name, const char *cat,
                    const std::string &args = "");

    /** Async span end ("ph":"e"); must match an asyncBegin. */
    void asyncEnd(int tid, std::uint64_t ts, std::uint64_t id,
                  const std::string &name, const char *cat,
                  const std::string &args = "");

    /** Thread-scoped instant marker ("ph":"i"). */
    void instant(int tid, std::uint64_t ts, const std::string &name,
                 const char *cat, const std::string &args = "");

    /** An args object of integer members, in order: {"k":v,...}. */
    static std::string
    args(std::initializer_list<std::pair<const char *, std::uint64_t>> kvs);

    /** Write the JSON footer and close the file (idempotent). */
    void close();

    /** Events written so far (metadata included). */
    std::uint64_t count() const { return nEvents; }

  private:
    /** Open one event object and write its common members. */
    json::Writer &begin(const char *ph, int tid, std::uint64_t ts,
                        const std::string &name, const char *cat);
    /** Attach `args`, close the event and stream it to the file. */
    void end(const std::string &args);

    std::FILE *f = nullptr;
    /** Holds the open document; emptied into `f` after every event. */
    json::Writer w;
    std::uint64_t nEvents = 0;
};

} // namespace dmp::trace

#endif // DMP_COMMON_TRACE_HH
