#include "analysis/report.hh"

#include <cstdio>
#include <sstream>

#include "common/json.hh"

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
            os << " pc=0x" << std::hex << f.pc << std::dec;
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

std::string
Report::json() const
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        const Finding &f = items[i];
        if (i)
            os << ',';
        os << "{\"severity\":\"" << severityName(f.severity)
           << "\",\"code\":\"" << json::escape(f.code) << "\",";
        if (f.pc != kNoAddr)
            os << "\"pc\":\"0x" << std::hex << f.pc << std::dec << "\",";
        else
            os << "\"pc\":null,";
        if (f.block >= 0)
            os << "\"block\":" << f.block << ',';
        else
            os << "\"block\":null,";
        if (f.cycle >= 0)
            os << "\"cycle\":" << f.cycle << ',';
        else
            os << "\"cycle\":null,";
        if (!f.object.empty())
            os << "\"object\":\"" << json::escape(f.object) << "\",";
        else
            os << "\"object\":null,";
        os << "\"message\":\"" << json::escape(f.message) << "\"}";
    }
    os << ']';
    return os.str();
}

} // namespace dmp::analysis
