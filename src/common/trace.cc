#include "common/trace.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace dmp::trace
{

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx", (unsigned long long)v);
    return buf;
}

PipeView::PipeView(const std::string &path)
{
    f = std::fopen(path.c_str(), "w");
    if (!f)
        dmp_fatal("cannot open pipeview file: ", path);
}

PipeView::~PipeView()
{
    if (f)
        std::fclose(f);
}

TraceEventWriter::TraceEventWriter(const std::string &path)
{
    f = std::fopen(path.c_str(), "w");
    if (!f)
        dmp_fatal("cannot open trace-event file: ", path);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
}

TraceEventWriter::~TraceEventWriter()
{
    close();
}

void
TraceEventWriter::event(const char *ph, int tid, std::uint64_t ts,
                        const std::string &name, const char *cat,
                        const std::string &extra, const std::string &args)
{
    std::fprintf(f, "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                    "\"ts\":%llu,\"pid\":1,\"tid\":%d%s",
                 nEvents ? ",\n" : "", json::escape(name).c_str(), cat, ph,
                 (unsigned long long)ts, tid, extra.c_str());
    if (!args.empty())
        std::fprintf(f, ",\"args\":%s", args.c_str());
    std::fputs("}", f);
    ++nEvents;
}

void
TraceEventWriter::threadName(int tid, const std::string &name)
{
    // Metadata events name the track; args carry the name itself.
    event("M", tid, 0, "thread_name", "__metadata", "",
          "{\"name\":\"" + json::escape(name) + "\"}");
}

void
TraceEventWriter::complete(int tid, std::uint64_t ts, std::uint64_t dur,
                           const std::string &name, const char *cat,
                           const std::string &args)
{
    std::string extra = ",\"dur\":" + std::to_string(dur);
    event("X", tid, ts, name, cat, extra, args);
}

void
TraceEventWriter::asyncBegin(int tid, std::uint64_t ts, std::uint64_t id,
                             const std::string &name, const char *cat,
                             const std::string &args)
{
    event("b", tid, ts, name, cat, ",\"id\":" + std::to_string(id),
          args);
}

void
TraceEventWriter::asyncEnd(int tid, std::uint64_t ts, std::uint64_t id,
                           const std::string &name, const char *cat,
                           const std::string &args)
{
    event("e", tid, ts, name, cat, ",\"id\":" + std::to_string(id),
          args);
}

void
TraceEventWriter::instant(int tid, std::uint64_t ts,
                          const std::string &name, const char *cat,
                          const std::string &args)
{
    event("i", tid, ts, name, cat, ",\"s\":\"t\"", args);
}

void
TraceEventWriter::close()
{
    if (!f)
        return;
    std::fputs("\n]}\n", f);
    std::fclose(f);
    f = nullptr;
}

void
PipeView::emit(const Record &r)
{
    // gem5 O3PipeView block; Konata infers the tick period (1 cycle).
    // A squashed instruction reports retire tick 0, which Konata
    // renders as a flush.
    std::fprintf(f, "O3PipeView:fetch:%llu:0x%016llx:0:%llu:%s\n",
                 (unsigned long long)r.fetch, (unsigned long long)r.pc,
                 (unsigned long long)r.seq, r.disasm.c_str());
    std::fprintf(f, "O3PipeView:decode:%llu\n",
                 (unsigned long long)r.rename);
    std::fprintf(f, "O3PipeView:rename:%llu\n",
                 (unsigned long long)r.rename);
    std::fprintf(f, "O3PipeView:dispatch:%llu\n",
                 (unsigned long long)r.rename);
    std::fprintf(f, "O3PipeView:issue:%llu\n",
                 (unsigned long long)r.issue);
    std::fprintf(f, "O3PipeView:complete:%llu\n",
                 (unsigned long long)r.complete);
    std::fprintf(f, "O3PipeView:retire:%llu:store:0\n",
                 (unsigned long long)(r.squashed ? 0 : r.retire));
    ++nRecords;
}

} // namespace dmp::trace
