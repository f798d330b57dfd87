#include "sim/report.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "sim/simulator.hh"

namespace dmp::sim
{

namespace
{

std::string
fmtU64(std::uint64_t v)
{
    return std::to_string(v);
}

std::uint64_t
memberU64(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.get(key);
    return v ? v->asU64() : 0;
}

void
tableJson(json::Writer &w, const ReportTable &t)
{
    w.beginObject().field("title", t.title).key("header").beginArray();
    for (const std::string &h : t.header)
        w.value(h);
    w.endArray().key("rows").beginArray();
    for (const auto &row : t.rows) {
        w.beginArray();
        for (const std::string &cell : row)
            w.value(cell);
        w.endArray();
    }
    w.endArray();
    if (!t.note.empty())
        w.field("note", t.note);
    w.endObject();
}

/** A record field that breaks the schema; the message names it. */
struct BadField
{
    std::string what;
};

/** The members of one object of a record, named by `path` in errors. */
struct Fields
{
    const json::Value &obj;
    std::string path;

    [[noreturn]] void
    fail(const std::string &key, const std::string &why) const
    {
        throw BadField{"field \"" + path + key + "\" " + why};
    }

    /**
     * Member `key`, which must be of `kind`; throws when it is not, or
     * is absent unless `optional`.
     */
    const json::Value *
    at(const std::string &key, json::Value::Kind kind,
       bool optional = false) const
    {
        using Kind = json::Value::Kind;
        const json::Value *v = obj.get(key);
        if (!v && !optional)
            fail(key, "is missing");
        if (v && v->kind != kind)
            fail(key, kind == Kind::String   ? "is not a string"
                      : kind == Kind::Object ? "is not an object"
                                             : "is not a number");
        return v;
    }

    /** Member `key` as a whole number in [0, 2^64). */
    std::uint64_t
    whole(const std::string &key, bool optional = false) const
    {
        const json::Value *v = at(key, json::Value::Kind::Number, optional);
        if (v && !v->isU64())
            fail(key, "is not an integer in [0, 2^64)");
        return v ? v->asU64() : 0;
    }
};

} // namespace

std::string
fmtDouble(double v, const char *spec)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

std::uint64_t
StatsRecord::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

bool
parseStatsRecord(const std::string &line, StatsRecord &out, std::string &err)
{
    out = StatsRecord{};
    json::Value doc;
    if (!json::parse(line, doc, err))
        return false;
    if (!doc.isObject()) {
        err = "record is not a JSON object";
        return false;
    }

    try {
        const Fields rec{doc, ""};
        const std::uint64_t schema = rec.whole("schema");
        if (schema < 1 || schema > kStatsSchemaVersion)
            rec.fail("schema", "is not a schema this build reads (1 to " +
                                   std::to_string(kStatsSchemaVersion) + ")");
        out.schema = int(schema);
        using Kind = json::Value::Kind;
        out.label = rec.at("label", Kind::String)->string;
        out.workload = rec.at("workload", Kind::String)->string;
        if (const json::Value *fp = rec.at("fingerprint", Kind::String, true)) {
            out.fingerprint = fp->string;
            out.benchIters = rec.whole("bench_iters");
        }
        const Fields counters{*rec.at("counters", Kind::Object), "counters."};
        for (const auto &[k, v] : counters.obj.object)
            out.counters.emplace(k, counters.whole(k));
        out.cycles = counters.whole("cycles");
        out.retiredInsts = counters.whole("retired_insts");
        out.ipc = out.cycles ? double(out.retiredInsts) / double(out.cycles)
                             : 0.0;
        if (const json::Value *mk = rec.at("marking", Kind::Object, true)) {
            const Fields m{*mk, "marking."};
            out.marking.candidateBranches = m.whole("candidates");
            out.marking.markedDiverge = m.whole("diverge");
            out.marking.markedSimpleHammock = m.whole("hammock");
            out.marking.markedLoop = m.whole("loop");
            const Fields c{*m.at("classification", Kind::Object),
                           "marking.classification."};
            out.marking.classification = {
                c.whole("simple_hammock_diverge"), c.whole("complex_diverge"),
                c.whole("other_complex"), c.whole("total_insts")};
        }
        const json::Value *acct = doc.get("accounting");
        out.hasAccounting = acct && acct->isObject();
        if (const json::Value *b = acct ? acct->get("buckets") : nullptr;
            b && b->isObject()) {
            const Fields buckets{*b, "accounting.buckets."};
            for (const auto &[k, v] : b->object)
                out.buckets.emplace_back(k, buckets.whole(k));
        }
        if (const json::Value *br = acct ? acct->get("branches") : nullptr;
            br && br->isArray()) {
            for (std::size_t i = 0; i < br->array.size(); ++i) {
                const std::string at = "branches[" + std::to_string(i) + "]";
                const Fields row{br->array[i], "accounting." + at + "."};
                if (!row.obj.isObject())
                    Fields{*acct, "accounting."}.fail(at, "is not an object");
                const json::Value *pc = row.obj.get("pc");
                const json::Value *net = row.obj.get("net_cycles");
                out.branches.push_back(
                    {pc && pc->isString() ? pc->string : "",
                     row.whole("episodes", true),
                     row.whole("dual_episodes", true),
                     row.whole("merged_at_cfm", true),
                     row.whole("overshot", true),
                     row.whole("false_insts", true),
                     row.whole("extra_uops", true),
                     row.whole("flushes_avoided", true),
                     row.whole("flushes", true), net ? net->asDouble() : 0});
            }
        }
    } catch (const BadField &bad) {
        err = bad.what;
        return false;
    }
    return true;
}

bool
loadStatsJsonl(const std::string &path, std::vector<StatsRecord> &out,
               std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        StatsRecord rec;
        std::string rec_err;
        if (!parseStatsRecord(line, rec, rec_err)) {
            err = path + ":" + std::to_string(lineno) + ": " + rec_err;
            return false;
        }
        out.push_back(std::move(rec));
    }
    return true;
}

const StatsRecord *
findRecord(const std::vector<StatsRecord> &records,
           const std::string &label, const std::string &workload)
{
    for (const StatsRecord &r : records)
        if (r.label == label && r.workload == workload)
            return &r;
    return nullptr;
}

bool
parseReportFormat(const std::string &name, ReportFormat &out)
{
    if (name == "text")
        out = ReportFormat::Text;
    else if (name == "json")
        out = ReportFormat::Json;
    else if (name == "md" || name == "markdown")
        out = ReportFormat::Markdown;
    else
        return false;
    return true;
}

std::string
ReportTable::render(ReportFormat f) const
{
    if (f == ReportFormat::Json) {
        json::Writer w;
        tableJson(w, *this);
        return w.take();
    }

    std::ostringstream os;
    if (f == ReportFormat::Markdown) {
        os << "### " << title << "\n\n|";
        for (const std::string &h : header)
            os << ' ' << h << " |";
        os << "\n|";
        for (std::size_t i = 0; i < header.size(); ++i)
            os << (i ? " ---: |" : " :--- |");
        os << '\n';
        for (const auto &row : rows) {
            os << '|';
            for (const std::string &cell : row)
                os << ' ' << cell << " |";
            os << '\n';
        }
        if (!note.empty())
            os << '\n' << note << '\n';
        return os.str();
    }

    // Text: first column left-aligned, the rest right-aligned.
    std::vector<std::size_t> width(header.size());
    for (std::size_t i = 0; i < header.size(); ++i)
        width[i] = header[i].size();
    for (const auto &row : rows)
        for (std::size_t i = 0; i < row.size() && i < width.size(); ++i)
            width[i] = std::max(width[i], row[i].size());

    auto emitRow = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            const std::string &cell = row[i];
            std::size_t pad = width[i] > cell.size()
                ? width[i] - cell.size() : 0;
            if (i == 0) {
                os << cell << std::string(pad, ' ');
            } else {
                os << "  " << std::string(pad, ' ') << cell;
            }
        }
        os << '\n';
    };
    os << "=== " << title << " ===\n";
    emitRow(header);
    for (const auto &row : rows)
        emitRow(row);
    if (!note.empty())
        os << note << '\n';
    return os.str();
}

std::string
renderTables(const std::vector<ReportTable> &tables, ReportFormat f)
{
    if (f == ReportFormat::Json) {
        json::Writer w;
        w.beginArray();
        for (const ReportTable &t : tables)
            tableJson(w, t);
        return w.endArray().take() + "\n";
    }
    std::ostringstream os;
    for (std::size_t i = 0; i < tables.size(); ++i) {
        if (i)
            os << '\n';
        os << tables[i].render(f);
    }
    return os.str();
}

ReportTable
summaryTable(const std::vector<StatsRecord> &records)
{
    ReportTable t;
    t.title = "runs";
    t.header = {"label", "workload", "IPC", "cycles",
                "retired", "flushes", "MPKI"};
    for (const StatsRecord &r : records) {
        // The core's mispred_per_kilo_insts, which records leave out.
        double mispred = double(r.counter("retired_mispred_cond_branches"));
        double mpki = 1000.0 * (r.retiredInsts
                                    ? mispred / double(r.retiredInsts)
                                    : 0.0);
        t.rows.push_back(
            {r.label, r.workload, fmtDouble(r.ipc), fmtU64(r.cycles),
             fmtU64(r.retiredInsts),
             fmtU64(r.counter("pipeline_flushes")),
             fmtDouble(mpki, "%.2f")});
    }
    return t;
}

ReportTable
topdownTable(const std::vector<StatsRecord> &records)
{
    ReportTable t;
    t.title = "top-down cycle breakdown (% of cycles)";
    // Column set = bucket order of the first accounting record.
    for (const StatsRecord &r : records) {
        if (!r.hasAccounting)
            continue;
        t.header = {"label", "workload", "cycles"};
        for (const auto &[name, cycles] : r.buckets)
            t.header.push_back(name);
        break;
    }
    if (t.header.empty()) {
        t.header = {"label", "workload", "cycles"};
        return t;
    }
    for (const StatsRecord &r : records) {
        if (!r.hasAccounting)
            continue;
        std::vector<std::string> row = {r.label, r.workload,
                                        fmtU64(r.cycles)};
        std::uint64_t total = 0;
        for (const auto &[name, cycles] : r.buckets)
            total += cycles;
        for (std::size_t i = 3; i < t.header.size(); ++i) {
            std::uint64_t c = 0;
            for (const auto &[name, cycles] : r.buckets)
                if (name == t.header[i])
                    c = cycles;
            double pct = total ? 100.0 * double(c) / double(total) : 0.0;
            row.push_back(fmtDouble(pct, "%.1f"));
        }
        t.rows.push_back(std::move(row));
    }
    return t;
}

ReportTable
diffTable(const std::vector<StatsRecord> &records,
          const std::string &label_a, const std::string &label_b)
{
    ReportTable t;
    t.title = label_b + " vs " + label_a;
    t.header = {"workload",       "IPC " + label_a, "IPC " + label_b,
                "IPC delta %",    "flushes " + label_a,
                "flushes " + label_b, "flush red. %"};
    double ipc_sum = 0, red_sum = 0;
    unsigned n = 0;
    for (const StatsRecord &ra : records) {
        if (ra.label != label_a)
            continue;
        const StatsRecord *rb = findRecord(records, label_b, ra.workload);
        if (!rb)
            continue;
        std::uint64_t fa = ra.counter("pipeline_flushes");
        std::uint64_t fb = rb->counter("pipeline_flushes");
        double ipc_delta =
            ra.ipc ? 100.0 * (rb->ipc - ra.ipc) / ra.ipc : 0.0;
        double red = flushReductionPct(fa, fb);
        t.rows.push_back({ra.workload, fmtDouble(ra.ipc),
                          fmtDouble(rb->ipc), fmtDouble(ipc_delta, "%.1f"),
                          fmtU64(fa), fmtU64(fb),
                          fmtDouble(red, "%.1f")});
        ipc_sum += ipc_delta;
        red_sum += red;
        ++n;
    }
    if (n) {
        t.rows.push_back({"average", "-", "-",
                          fmtDouble(ipc_sum / n, "%.1f"), "-", "-",
                          fmtDouble(red_sum / n, "%.1f")});
    }
    return t;
}

ReportTable
branchTable(const std::vector<StatsRecord> &records, std::size_t top_n)
{
    ReportTable t;
    t.title = "diverge branches by net benefit";
    t.header = {"workload", "label",      "pc",         "episodes",
                "mergedCFM", "overshot",  "flushAvoid", "flushes",
                "falseInsts", "uops",     "netCycles"};
    struct Item
    {
        const StatsRecord *rec;
        const ReportBranchRow *row;
    };
    std::vector<Item> items;
    for (const StatsRecord &r : records) {
        for (const ReportBranchRow &b : r.branches)
            if (b.episodes + b.dualEpisodes > 0)
                items.push_back({&r, &b});
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item &a, const Item &b) {
                         return a.row->netCycles > b.row->netCycles;
                     });
    if (top_n && items.size() > top_n)
        items.resize(top_n);
    for (const Item &it : items) {
        const ReportBranchRow &b = *it.row;
        t.rows.push_back(
            {it.rec->workload, it.rec->label, b.pc,
             fmtU64(b.episodes + b.dualEpisodes), fmtU64(b.mergedAtCfm),
             fmtU64(b.overshot), fmtU64(b.flushesAvoided),
             fmtU64(b.flushes), fmtU64(b.falseInsts), fmtU64(b.extraUops),
             fmtDouble(b.netCycles, "%.1f")});
    }
    return t;
}

double
flushReductionPct(std::uint64_t base, std::uint64_t enh)
{
    return base ? 100.0 * (double(base) - double(enh)) / double(base)
                : 0.0;
}

namespace
{

/**
 * The "targets" array of the dmp `what` JSON report at `path`, parsed
 * into `doc`; null, with `err` set, when it cannot be read.
 */
const json::Value *
loadTargets(const std::string &path, const char *what, json::Value &doc,
            std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open " + path;
        return nullptr;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!json::parse(text.str(), doc, err)) {
        err = path + ": " + err;
        return nullptr;
    }
    const json::Value *targets = doc.get("targets");
    if (!doc.isObject() || !targets || !targets->isArray()) {
        err = path + ": not a dmp " + what +
              " JSON report (missing \"targets\" array)";
        return nullptr;
    }
    return targets;
}

} // namespace

bool
loadMarkingsTable(const std::string &path, ReportTable &out,
                  std::string &err)
{
    json::Value doc;
    const json::Value *targets = loadTargets(path, "mark", doc, err);
    if (!targets)
        return false;

    out = ReportTable{};
    out.title = "static markings (dmp mark vs profiled marker)";
    out.header = {"workload", "diverge", "hammock", "loop",
                  "dropped",  "lint E",  "lint W",  "profiled",
                  "common",   "prec",    "recall",  "cfm match"};
    double prec_sum = 0, recall_sum = 0, cfm_sum = 0;
    unsigned agreed = 0;
    for (const json::Value &t : targets->array) {
        if (!t.isObject())
            continue;
        const json::Value *name = t.get("target");
        std::vector<std::string> row;
        row.push_back(name && name->isString() ? name->string : "?");
        for (const char *k : {"diverge", "hammock", "loop", "dropped"}) {
            const json::Value *v = t.get("marks", k);
            row.push_back(fmtU64(v ? v->asU64() : 0));
        }
        for (const char *k : {"errors", "warnings"}) {
            const json::Value *v = t.get("lint", k);
            row.push_back(fmtU64(v ? v->asU64() : 0));
        }
        if (const json::Value *a = t.get("agreement"); a && a->isObject()) {
            row.push_back(fmtU64(memberU64(*a, "profile_diverge")));
            row.push_back(fmtU64(memberU64(*a, "common_diverge")));
            const json::Value *p = a->get("precision");
            const json::Value *r = a->get("recall");
            const json::Value *c = a->get("cfm_match_rate");
            double prec = p ? p->asDouble() : 0;
            double recall = r ? r->asDouble() : 0;
            double cfm = c ? c->asDouble() : 0;
            row.push_back(fmtDouble(prec, "%.2f"));
            row.push_back(fmtDouble(recall, "%.2f"));
            row.push_back(fmtDouble(cfm, "%.2f"));
            prec_sum += prec;
            recall_sum += recall;
            cfm_sum += cfm;
            ++agreed;
        } else {
            for (int i = 0; i < 5; ++i)
                row.push_back("-");
        }
        out.rows.push_back(std::move(row));
    }
    if (agreed) {
        out.rows.push_back({"mean", "-", "-", "-", "-", "-", "-", "-",
                            "-", fmtDouble(prec_sum / agreed, "%.2f"),
                            fmtDouble(recall_sum / agreed, "%.2f"),
                            fmtDouble(cfm_sum / agreed, "%.2f")});
    }
    return true;
}

bool
loadProofsTable(const std::string &path, ReportTable &out,
                std::string &err)
{
    json::Value doc;
    const json::Value *targets = loadTargets(path, "lint", doc, err);
    if (!targets)
        return false;

    out = ReportTable{};
    out.title = "absint proofs (dmp lint --deep)";
    out.header = {"workload", "insts",   "unreach", "branches",
                  "taken",    "untaken", "trip",    "ind ok",
                  "ind ?",    "iters",   "status"};
    std::uint64_t branch_sum = 0, proved_sum = 0;
    for (const json::Value &t : targets->array) {
        if (!t.isObject())
            continue;
        const json::Value *name = t.get("target");
        std::vector<std::string> row;
        row.push_back(name && name->isString() ? name->string : "?");
        const json::Value *a = t.get("absint");
        if (!a || !a->isObject()) {
            // Linted without --deep: keep the row so the table still
            // covers every target, but show no proof columns.
            for (int i = 0; i < 9; ++i)
                row.push_back("-");
            row.push_back("no absint");
            out.rows.push_back(std::move(row));
            continue;
        }
        const json::Value *ran = a->get("ran");
        const json::Value *smeared = a->get("smeared");
        std::uint64_t branches = memberU64(*a, "branches");
        std::uint64_t proved = memberU64(*a, "proved_taken") +
                               memberU64(*a, "proved_not_taken");
        for (const char *k :
             {"insts", "unreachable", "branches", "proved_taken",
              "proved_not_taken", "trip_bounded", "indirect_resolved",
              "indirect_unresolved", "iterations"})
            row.push_back(fmtU64(memberU64(*a, k)));
        if (ran && ran->kind == json::Value::Kind::Bool && !ran->boolean)
            row.push_back("declined");
        else if (smeared && smeared->kind == json::Value::Kind::Bool &&
                 smeared->boolean)
            row.push_back("smeared");
        else
            row.push_back("exact");
        branch_sum += branches;
        proved_sum += proved;
        out.rows.push_back(std::move(row));
    }
    if (branch_sum) {
        double pct = 100.0 * double(proved_sum) / double(branch_sum);
        out.rows.push_back({"total", "-", "-", fmtU64(branch_sum), "-",
                            "-", "-", "-", "-", "-",
                            fmtDouble(pct, "%.1f") + "% proved"});
    }
    return true;
}

} // namespace dmp::sim
