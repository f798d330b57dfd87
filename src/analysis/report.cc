#include "analysis/report.hh"

#include <sstream>

#include "common/json.hh"
#include "common/trace.hh"

namespace dmp::analysis
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info:
        return "info";
      case Severity::Warn:
        return "warn";
      case Severity::Error:
        return "error";
    }
    return "?";
}

void
Report::add(Severity sev, std::string code, Addr pc, std::int32_t block,
            std::string message)
{
    add(sev, std::move(code), pc, block, std::move(message), -1, {});
}

void
Report::add(Severity sev, std::string code, Addr pc, std::int32_t block,
            std::string message, std::int64_t cycle, std::string object)
{
    items.push_back(Finding{sev, std::move(code), pc, block,
                            std::move(message), cycle,
                            std::move(object)});
}

std::size_t
Report::count(Severity s) const
{
    std::size_t n = 0;
    for (const Finding &f : items)
        n += f.severity == s;
    return n;
}

const Finding *
Report::first(const std::string &code) const
{
    for (const Finding &f : items)
        if (f.code == code)
            return &f;
    return nullptr;
}

std::vector<const Finding *>
Report::byCode(const std::string &code) const
{
    std::vector<const Finding *> out;
    for (const Finding &f : items)
        if (f.code == code)
            out.push_back(&f);
    return out;
}

std::string
Report::text() const
{
    std::ostringstream os;
    for (const Finding &f : items) {
        os << severityName(f.severity) << ": [" << f.code << "]";
        if (f.pc != kNoAddr)
            os << " pc=" << trace::hex(f.pc);
        if (f.block >= 0)
            os << " block=" << f.block;
        if (f.cycle >= 0)
            os << " cycle=" << f.cycle;
        if (!f.object.empty())
            os << " obj=" << f.object;
        os << ": " << f.message << '\n';
    }
    return os.str();
}

void
Report::json(json::Writer &w) const
{
    w.beginArray();
    for (const Finding &f : items) {
        w.beginObject().field("severity", severityName(f.severity));
        w.field("code", f.code);
        w.key("pc");
        f.pc != kNoAddr ? w.value(trace::hex(f.pc)) : w.null();
        w.key("block");
        f.block >= 0 ? w.value(f.block) : w.null();
        w.key("cycle");
        f.cycle >= 0 ? w.value(f.cycle) : w.null();
        w.key("object");
        f.object.empty() ? w.null() : w.value(f.object);
        w.field("message", f.message).endObject();
    }
    w.endArray();
}

} // namespace dmp::analysis
