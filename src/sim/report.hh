/**
 * @file
 * Aggregation of --stats-json JSONL records (dmp run, dmp paper) into
 * figure-ready tables (the `dmp report` subcommand is a thin shell over
 * this).
 *
 * A StatsRecord is one parsed simResultJson line (schema 1, 2 or 3,
 * see EXPERIMENTS.md). The parser is strict: a field of the wrong type or
 * a count that is not a whole number in [0, 2^64) refuses the record,
 * naming the field. The table builders here turn a set of records into
 * per-run summaries, top-down cycle breakdowns, mode-vs-mode diffs and
 * per-branch "who benefits from DMP" rankings; the paper's figures are
 * built from the same records in sim/paper.hh. Every table renders as
 * aligned text, Markdown or JSON.
 */

#ifndef DMP_SIM_REPORT_HH
#define DMP_SIM_REPORT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "profile/profiler.hh"

namespace dmp::sim
{

/** A record's per-branch analytics row: the fields branchTable reads. */
struct ReportBranchRow
{
    std::string pc; ///< "0x..." as emitted
    std::uint64_t episodes = 0;
    std::uint64_t dualEpisodes = 0;
    std::uint64_t mergedAtCfm = 0;
    std::uint64_t overshot = 0;
    std::uint64_t falseInsts = 0;
    std::uint64_t extraUops = 0;
    std::uint64_t flushesAvoided = 0;
    std::uint64_t flushes = 0;
    double netCycles = 0;
};

/** One parsed stats-JSONL record. */
struct StatsRecord
{
    int schema = 0;
    std::string label;
    std::string workload;
    double ipc = 0;
    std::uint64_t cycles = 0;
    std::uint64_t retiredInsts = 0;
    /** dmp paper records only: the configFingerprint and iterations. */
    std::string fingerprint;
    std::uint64_t benchIters = 0;
    std::unordered_map<std::string, std::uint64_t> counters;

    /** The marking block (schema 2 on): counts and classification only. */
    profile::MarkingReport marking;

    bool hasAccounting = false;
    /** Top-down buckets in emission order (name -> cycles). */
    std::vector<std::pair<std::string, std::uint64_t>> buckets;
    std::vector<ReportBranchRow> branches;

    /** Counter lookup tolerating absence (returns 0). */
    std::uint64_t counter(const std::string &name) const;
};

/**
 * Parse one JSONL line into a record. Refused: an unknown or missing
 * schema, a label or workload that is not a string, and a missing
 * counters.cycles or counters.retired_insts (IPC derives from them) or
 * a counter value that is not a whole number in [0, 2^64).
 * @return true on success; on failure `err` names the field.
 */
bool parseStatsRecord(const std::string &line, StatsRecord &out,
                      std::string &err);

/**
 * Load every record of a JSONL file (blank lines skipped).
 * @return true on success; on failure `err` carries the line number.
 */
bool loadStatsJsonl(const std::string &path,
                    std::vector<StatsRecord> &out, std::string &err);

/** First record with the given label and workload, or nullptr. */
const StatsRecord *findRecord(const std::vector<StatsRecord> &records,
                              const std::string &label,
                              const std::string &workload);

/** Output renderings supported by the report tables. */
enum class ReportFormat
{
    Text,
    Json,
    Markdown,
};

/** Parse "text" | "json" | "md" (false on anything else). */
bool parseReportFormat(const std::string &name, ReportFormat &out);

/**
 * One rendered-agnostic table: a title, a header, string cells and an
 * optional note (the paper's value, a caveat) printed below the rows.
 */
struct ReportTable
{
    std::string title;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    std::string note;

    std::string render(ReportFormat f) const;
};

/** Render several tables (JSON: one array; text/md: blank-line join). */
std::string renderTables(const std::vector<ReportTable> &tables,
                         ReportFormat f);

/** Per-run overview: label, workload, IPC, cycles, flushes, MPKI. */
ReportTable summaryTable(const std::vector<StatsRecord> &records);

/**
 * Top-down cycle breakdown (records with accounting only): one row per
 * run, one column per bucket as a percentage of total cycles.
 */
ReportTable topdownTable(const std::vector<StatsRecord> &records);

/**
 * Mode-vs-mode comparison over workloads present under both labels:
 * IPC delta and flush reduction per workload, plus arithmetic means.
 */
ReportTable diffTable(const std::vector<StatsRecord> &records,
                      const std::string &label_a,
                      const std::string &label_b);

/**
 * Per-branch "who benefits" ranking across all records with
 * accounting: branches that entered episodes, best net benefit first,
 * truncated to `top_n` rows (0 = all).
 */
ReportTable branchTable(const std::vector<StatsRecord> &records,
                        std::size_t top_n);

/** 100 * (base - enh) / base; 0 when base is 0 (as Figure 11). */
double flushReductionPct(std::uint64_t base, std::uint64_t enh);

/** `v` printed with the printf conversion `spec`, as a table cell. */
std::string fmtDouble(double v, const char *spec = "%.3f");

/**
 * Static-marking agreement section: parse a dmp mark --json report
 * (markgen schema 1, not a stats JSONL) and build one row per target —
 * mark counts, lint totals, and, for reports produced with the
 * comparison pass on, diverge precision/recall and CFM match rate
 * against the profiled marker, with a closing mean row. Feeds
 * dmp report --markings and the CI release-job step summary.
 * @return true on success; on failure `err` says what was wrong.
 */
bool loadMarkingsTable(const std::string &path, ReportTable &out,
                       std::string &err);

/**
 * Abstract-interpretation proof summary: parse a dmp lint --deep
 * --json report (lint schema 1 with per-target "absint" blocks) and
 * build one row per target — instruction/branch counts, proved
 * one-sided branches, trip-bounded loops, resolved indirects, and
 * whether the engine smeared or declined. Targets linted without
 * --deep get a dashed row. Feeds dmp report --proofs and the CI
 * release-job step summary.
 * @return true on success; on failure `err` says what was wrong.
 */
bool loadProofsTable(const std::string &path, ReportTable &out,
                     std::string &err);

} // namespace dmp::sim

#endif // DMP_SIM_REPORT_HH
