/**
 * @file
 * Finding/report types shared by every static-analysis pass.
 *
 * A Finding is one diagnosed condition at one program location; a
 * Report is the ordered list of findings one analysis run produced.
 * Findings carry a stable kebab-case code (the thing tests and CI
 * grep for), a severity, and block/PC locations, and render to both a
 * human-readable listing and a machine-readable JSON array (the
 * `dmp lint --json` schema documented in EXPERIMENTS.md).
 */

#ifndef DMP_ANALYSIS_REPORT_HH
#define DMP_ANALYSIS_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace dmp::analysis
{

/**
 * Version of the machine-readable report schemas built on Finding
 * (`dmp lint --json`, `dmp run --selfcheck-json`). Bump when a field is
 * renamed or removed; adding fields is backward compatible.
 */
constexpr int kReportSchemaVersion = 1;

/** How bad one finding is. */
enum class Severity : std::uint8_t
{
    /** Worth knowing; expected in idiomatic programs. */
    Info,
    /** Likely a performance or robustness hazard; simulation proceeds. */
    Warn,
    /** A broken invariant the core relies on; simulation must not run. */
    Error,
};

/** "info" / "warn" / "error". */
const char *severityName(Severity s);

/** One diagnosed condition at one program location. */
struct Finding
{
    Severity severity = Severity::Info;
    /** Stable kebab-case id, e.g. "branch-target-oob". */
    std::string code;
    /** Primary instruction address (kNoAddr: program-wide finding). */
    Addr pc = kNoAddr;
    /** Basic-block index of pc within the program Cfg, or -1. */
    std::int32_t block = -1;
    /** Human-readable explanation. */
    std::string message;
    /** Simulated cycle of a dynamic finding (selfcheck), or -1. */
    std::int64_t cycle = -1;
    /**
     * Structure id of a dynamic finding, e.g. "prf:42", "rob:13",
     * "cp:3", "sb:7", "ep:9". Empty for static findings.
     */
    std::string object;
};

/** Ordered list of findings from one analysis run. */
class Report
{
  public:
    void add(Severity sev, std::string code, Addr pc, std::int32_t block,
             std::string message);

    /** Dynamic-finding variant carrying a cycle and a structure id. */
    void add(Severity sev, std::string code, Addr pc, std::int32_t block,
             std::string message, std::int64_t cycle, std::string object);

    const std::vector<Finding> &findings() const { return items; }

    std::size_t count(Severity s) const;
    std::size_t errors() const { return count(Severity::Error); }
    std::size_t warnings() const { return count(Severity::Warn); }
    std::size_t infos() const { return count(Severity::Info); }

    /** True when the report holds no errors (warnings allowed). */
    bool clean() const { return errors() == 0; }

    bool empty() const { return items.empty(); }
    std::size_t size() const { return items.size(); }

    /** First finding with the given code, or nullptr. */
    const Finding *first(const std::string &code) const;

    /** Every finding with the given code. */
    std::vector<const Finding *> byCode(const std::string &code) const;

    /** Human-readable listing, one finding per line. */
    std::string text() const;

    /**
     * Write the findings as the next value of `w`, a JSON array:
     * [{"severity":"error","code":"...","pc":"0x1010","block":3,
     *   "cycle":120,"object":"prf:42","message":"..."}, ...]
     * (pc, block, cycle and object are null when absent).
     */
    void json(json::Writer &w) const;

  private:
    std::vector<Finding> items;
};

} // namespace dmp::analysis

#endif // DMP_ANALYSIS_REPORT_HH
