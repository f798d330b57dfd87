#include "common/trace.hh"

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
    w.beginObject().field("displayTimeUnit", "ms").key("traceEvents");
    std::fputs(w.beginArray().take().c_str(), f);
}

TraceEventWriter::~TraceEventWriter()
{
    close();
}

json::Writer &
TraceEventWriter::begin(const char *ph, int tid, std::uint64_t ts,
                        const std::string &name, const char *cat)
{
    // One event per line.
    w.newline().beginObject().field("name", name).field("cat", cat);
    return w.field("ph", ph).field("ts", ts).field("pid", 1).field("tid", tid);
}

void
TraceEventWriter::end(const std::string &args)
{
    if (!args.empty())
        w.key("args").raw(args);
    std::fputs(w.endObject().take().c_str(), f);
    ++nEvents;
}

std::string
TraceEventWriter::args(
    std::initializer_list<std::pair<const char *, std::uint64_t>> kvs)
{
    json::Writer a;
    a.beginObject();
    for (const auto &[k, v] : kvs)
        a.field(k, v);
    return a.endObject().take();
}

void
TraceEventWriter::threadName(int tid, const std::string &name)
{
    // Metadata events name the track; args carry the name itself.
    begin("M", tid, 0, "thread_name", "__metadata").key("args");
    w.beginObject().field("name", name).endObject();
    end("");
}

void
TraceEventWriter::complete(int tid, std::uint64_t ts, std::uint64_t dur,
                           const std::string &name, const char *cat,
                           const std::string &args)
{
    begin("X", tid, ts, name, cat).field("dur", dur);
    end(args);
}

void
TraceEventWriter::asyncBegin(int tid, std::uint64_t ts, std::uint64_t id,
                             const std::string &name, const char *cat,
                             const std::string &args)
{
    begin("b", tid, ts, name, cat).field("id", id);
    end(args);
}

void
TraceEventWriter::asyncEnd(int tid, std::uint64_t ts, std::uint64_t id,
                           const std::string &name, const char *cat,
                           const std::string &args)
{
    begin("e", tid, ts, name, cat).field("id", id);
    end(args);
}

void
TraceEventWriter::instant(int tid, std::uint64_t ts,
                          const std::string &name, const char *cat,
                          const std::string &args)
{
    begin("i", tid, ts, name, cat).field("s", "t");
    end(args);
}

void
TraceEventWriter::close()
{
    if (!f)
        return;
    w.newline().endArray().endObject();
    std::fputs((w.take() + "\n").c_str(), f);
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
