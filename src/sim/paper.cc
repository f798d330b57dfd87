#include "sim/paper.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace dmp::sim
{

/** The record of each cell of one figure on each workload. */
class CellRecords
{
  public:
    const std::vector<std::string> &workloads; ///< table rows
    std::map<std::pair<std::string, std::string>, const StatsRecord *>
        records;

    /** The record of the cell labelled `label` on `wl`. */
    const StatsRecord &
    get(const std::string &wl, const std::string &label) const
    {
        return *records.at({wl, label});
    }

    /**
     * The sum of the counters `names` ("a+b+...") of that record;
     * throws when the record lacks one.
     */
    double
    count(const std::string &wl, const std::string &label,
          const std::string &names) const
    {
        const StatsRecord &r = get(wl, label);
        double sum = 0;
        std::istringstream in(names);
        for (std::string name; std::getline(in, name, '+');) {
            auto it = r.counters.find(name);
            if (it == r.counters.end())
                throw std::runtime_error("record " + r.label + " on " + wl +
                                         " has no counter \"" + name + "\"");
            sum += double(it->second);
        }
        return sum;
    }
};

namespace
{

/** A signed percentage such as an IPC delta: "+6.8%". */
constexpr const char *kDelta = "%+.1f%%";
/** A share of a whole: "6.8%". */
constexpr const char *kShare = "%.1f%%";
constexpr const char *kCount = "%.0f";
constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

/** One column of a per-workload table; a NaN value prints "-". */
struct Column
{
    std::string header;
    const char *spec;
    std::function<double(const std::string &wl)> value;
};

/** The exit cases of Table 1, whose sum is every ended episode. */
constexpr const char *kExits =
    "exit_case1+exit_case2+exit_case3+exit_case4+exit_case5+exit_case6";

/**
 * One row per workload, then, if any column is a percentage, an
 * average row: each percentage column's mean over the rows where it is
 * defined ("-" over none), and "-" under every other column.
 */
ReportTable
perWorkload(const CellRecords &f, std::string title,
            const std::vector<Column> &cols, std::string note = "")
{
    ReportTable t{std::move(title), {"bench"}, {}, std::move(note)};
    std::vector<double> sums(cols.size(), 0);
    std::vector<unsigned> counts(cols.size(), 0);
    for (const Column &c : cols)
        t.header.push_back(c.header);
    for (const std::string &wl : f.workloads) {
        std::vector<std::string> row = {wl};
        for (std::size_t i = 0; i < cols.size(); ++i) {
            const double v = cols[i].value(wl);
            row.push_back(std::isnan(v) ? "-" : fmtDouble(v, cols[i].spec));
            if (!std::isnan(v)) {
                sums[i] += v;
                ++counts[i];
            }
        }
        t.rows.push_back(std::move(row));
    }
    std::vector<std::string> average = {"average"};
    bool averaged = false;
    for (std::size_t i = 0; i < cols.size(); ++i) {
        const bool pct = std::string_view(cols[i].spec).ends_with("%%");
        averaged = averaged || pct;
        average.push_back(pct && counts[i]
                              ? fmtDouble(sums[i] / counts[i], cols[i].spec)
                              : "-");
    }
    if (averaged)
        t.rows.push_back(std::move(average));
    return t;
}

/** Column `header`: the %IPC of cell `label` over the "base" cell. */
Column
gain(const CellRecords &f, std::string header, std::string label)
{
    return {header, kDelta, [&f, label](const std::string &wl) {
                return pctDelta(f.get(wl, label).ipc, f.get(wl, "base").ipc);
            }};
}

/** Column `header`: the counters `names` of cell `label`. */
Column
counter(const CellRecords &f, std::string header, std::string label,
        std::string names)
{
    return {header, kCount, [&f, label, names](const std::string &wl) {
                return f.count(wl, label, names);
            }};
}

/**
 * Column `header`: `scale` times counters `part` over counters `whole`
 * of cell `label` ("-" where `whole` is 0), printed with `spec`.
 */
Column
ratio(const CellRecords &f, std::string header, const char *spec,
      std::string label, std::string part, std::string whole,
      double scale = 100)
{
    return {header, spec, [=, &f](const std::string &wl) {
                const double w = f.count(wl, label, whole);
                return w ? scale * f.count(wl, label, part) / w : kNone;
            }};
}

/** The %IPC-over-base table of the cells `labels`, one column each. */
ReportTable
gains(const CellRecords &f, std::string title,
      const std::vector<std::pair<const char *, const char *>> &labels,
      std::string note = "")
{
    std::vector<Column> cols;
    for (const auto &[header, label] : labels)
        cols.push_back(gain(f, header, label));
    return perWorkload(f, std::move(title), cols, std::move(note));
}

/**
 * One row per point of a sweep: the workload-average IPC of the cells
 * point + suffix for each of `suffixes`, then each one's % over the
 * first. `header` names the point column and each of those columns.
 */
ReportTable
averages(const CellRecords &f, std::string title,
         std::vector<std::string> header,
         const std::vector<std::string> &points,
         const std::vector<std::string> &suffixes, std::string note)
{
    ReportTable t{std::move(title), std::move(header), {}, std::move(note)};
    for (const std::string &pt : points) {
        std::vector<double> ipcs;
        for (const std::string &suffix : suffixes) {
            double sum = 0;
            for (const std::string &wl : f.workloads)
                sum += f.get(wl, pt + suffix).ipc;
            ipcs.push_back(sum / double(f.workloads.size()));
        }
        std::vector<std::string> row = {pt};
        for (double v : ipcs)
            row.push_back(fmtDouble(v));
        for (std::size_t i = 1; i < ipcs.size(); ++i)
            row.push_back(fmtDouble(pctDelta(ipcs[i], ipcs[0]), kDelta));
        t.rows.push_back(std::move(row));
    }
    return t;
}

Cell
cell(std::string label, const char *machineName,
     const std::function<void(SimConfig &)> &tweak = nullptr)
{
    Cell c{std::move(label), SimConfig{}};
    c.cfg.core = machine(machineName);
    if (tweak)
        tweak(c.cfg);
    return c;
}

std::vector<ReportTable>
table2(const CellRecords &)
{
    const core::CoreParams &p = machine("base");
    const auto n = [](unsigned v) { return std::to_string(v); };
    return {{"Table 2: baseline processor configuration",
             {"parameter", "paper", "this model"},
             {{"fetch width", "8, up to 3 cond. branches",
               n(p.fetchWidth) + ", up to " +
                   n(core::kMaxCondBranchesPerFetch) + " branches"},
              {"fetch policy", "ends at first taken branch",
               "ends at first taken branch"},
              {"min. mispredict penalty", "30 cycles",
               n(p.frontendDepth) + " cycles"},
              {"instruction window", "512-entry ROB",
               n(p.robSize) + "-entry ROB"},
              {"execute/retire width", "8-wide",
               n(p.issueWidth) + "/" + n(p.retireWidth) + "-wide"},
              {"branch predictor", "64KB perceptron, 59-bit hist",
               "perceptron, 1021 entries, 59-bit hist"},
              {"BTB", "4K-entry", n(core::kBtbEntries) + "-entry"},
              {"return address stack", "64-entry",
               n(core::kRasEntries) + "-entry"},
              {"indirect target cache", "64K-entry",
               n(core::kItcEntries) + "-entry"},
              {"L1 I-cache", "64KB 2-way 2-cycle", "64KB 2-way 2-cycle"},
              {"L1 D-cache", "64KB 4-way 2-cycle", "64KB 4-way 2-cycle"},
              {"L2 cache", "1MB 8-way 8-bank 10-cycle",
               "1MB 8-way 8-bank 10-cycle"},
              {"memory", "300-cycle min, 32 banks",
               "300-cycle min, 32 banks"},
              {"confidence estimator", "1KB JRS, 12-bit history",
               "1KB JRS, 4-bit history (short-run adaptation)"}},
             ""}};
}

std::vector<ReportTable>
table3(const CellRecords &f)
{
    return {perWorkload(
        f, "Table 3: baseline characteristics",
        {ratio(f, "IPC", "%.2f", "base", "retired_insts", "cycles", 1),
         counter(f, "insts", "base", "retired_insts"),
         counter(f, "branches", "base", "retired_cond_branches"),
         counter(f, "mispred", "base", "retired_mispred_cond_branches"),
         ratio(f, "misp/KI", "%.2f", "base", "retired_mispred_cond_branches",
               "retired_insts", 1000)},
        "(paper: IPC from 0.81 (mcf) to 4.14 (mesa); from about 0 "
        "(perlbmk) to 9.3 (vpr) mispredictions per 1000 instructions)")};
}

std::vector<ReportTable>
fig01(const CellRecords &f)
{
    return {perWorkload(
        f, "Figure 1: wrong-path fetched instructions",
        {counter(f, "fetched", "base_classified", "fetched_insts"),
         counter(f, "wp_dep", "base_classified", "wp_control_dependent"),
         counter(f, "wp_indep", "base_classified", "wp_control_independent"),
         ratio(f, "%dep", kShare, "base_classified", "wp_control_dependent",
               "fetched_insts"),
         ratio(f, "%indep", kShare, "base_classified",
               "wp_control_independent", "fetched_insts")},
        "(paper: about 19% control-dependent and 33% control-independent "
        "of all fetched instructions)")};
}

std::vector<ReportTable>
fig06(const CellRecords &f)
{
    // The train run's mispredictions of the classes in the bit set `of`
    // (simple hammock, complex diverge, other complex) per 1000
    // instructions, or with `pct` as a share of all three.
    const auto classes = [&f](int of, bool pct) {
        return [&f, of, pct](const std::string &wl) {
            const profile::MispredictClassification &m =
                f.get(wl, "base").marking.classification;
            const double n[3] = {double(m.simpleHammockDiverge),
                                 double(m.complexDiverge),
                                 double(m.otherComplex)};
            double part = 0;
            for (int i = 0; i < 3; ++i)
                part += of & (1 << i) ? n[i] : 0;
            const double all = n[0] + n[1] + n[2];
            return pct ? (all ? 100.0 * part / all : kNone)
                       : part / (double(m.totalInsts) / 1000.0);
        };
    };
    return {perWorkload(
        f,
        "Figure 6: misprediction classes (per 1000 insts, from the profile "
        "run)",
        {{"hammock", "%.2f", classes(1, false)},
         {"complex", "%.2f", classes(2, false)},
         {"other", "%.2f", classes(4, false)},
         {"total", "%.2f", classes(7, false)},
         {"%div", kShare, classes(3, true)},
         {"%hammock", kShare, classes(1, true)}},
        "(paper: diverge share 57%, simple-hammock share about 9%; mcf is "
        "hammock-heavy, gcc dominated by other-complex branches)")};
}

/** The entries and c1%..c6% columns of cell `label`. */
std::vector<Column>
exitCases(const CellRecords &f, const std::string &label)
{
    std::vector<Column> cols = {
        counter(f, "entries", label, "dpred_entries")};
    for (const std::string n : {"1", "2", "3", "4", "5", "6"})
        cols.push_back(
            ratio(f, "c" + n + "%", kShare, label, "exit_case" + n, kExits));
    return cols;
}

std::vector<ReportTable>
fig08(const CellRecords &f)
{
    std::vector<Column> cols = exitCases(f, "diverge_jrs");
    cols.push_back(counter(
        f, "conversions", "diverge_jrs",
        "early_exits+mdb_conversions+overflow_conversions"));
    cols.push_back(
        counter(f, "squashed", "diverge_jrs", "squashed_episodes"));
    return {perWorkload(f, "Figure 8: exit cases, basic DMP", cols,
                        "(paper: cases 1+2 are the common exits, but under "
                        "40% of episodes for bzip2, gap and gzip)")};
}

std::vector<ReportTable>
fig10(const CellRecords &f)
{
    std::vector<Column> cols = exitCases(f, "enhanced");
    cols.push_back(counter(f, "eexit", "enhanced", "early_exits"));
    cols.push_back(counter(f, "mdb", "enhanced", "mdb_conversions"));
    cols.push_back(
        ratio(f, "basic c3%", kShare, "basic", "exit_case3", kExits));
    return {perWorkload(
        f, "Figure 10: exit cases, enhanced DMP", cols,
        "(paper: average case-3 share 10% basic -> 3% enhanced)")};
}

std::vector<ReportTable>
fig11(const CellRecords &f)
{
    return {perWorkload(
        f, "Figure 11: pipeline-flush reduction, enhanced DMP",
        {counter(f, "base", "base", "pipeline_flushes"),
         counter(f, "enhanced", "enhanced", "pipeline_flushes"),
         {"reduction", kShare,
          [&f](const std::string &wl) {
              return flushReductionPct(
                  std::uint64_t(f.count(wl, "base", "pipeline_flushes")),
                  std::uint64_t(f.count(wl, "enhanced", "pipeline_flushes")));
          }}},
        "(paper: 31% on average; over 40% for bzip2, parser, twolf, vpr, "
        "mesa and fma3d)")};
}

std::vector<ReportTable>
fig12(const CellRecords &f)
{
    // The executed side counts program instructions, the enter/exit
    // uops and the select-uops.
    const std::string executed =
        "executed_insts+executed_extra_uops+executed_select_uops";
    const auto change = [&f](const char *header, std::string before,
                             std::string after) -> Column {
        return {header, kDelta, [&f, before, after](const std::string &wl) {
                    return pctDelta(f.count(wl, "enhanced", after),
                                    f.count(wl, "base", before));
                }};
    };
    return {perWorkload(
        f, "Figure 12: fetched / executed instructions",
        {counter(f, "fetchBase", "base", "fetched_insts"),
         counter(f, "fetchEnh", "enhanced", "fetched_insts"),
         change("fetch d%", "fetched_insts", "fetched_insts"),
         counter(f, "execBase", "base", "executed_insts"),
         counter(f, "execEnh", "enhanced", executed),
         change("exec d%", "executed_insts", executed),
         counter(f, "extra", "enhanced", "executed_extra_uops"),
         counter(f, "select", "enhanced", "executed_select_uops")},
        "(paper: fetched -18%, executed +9%)")};
}

/** Figure 13's points: label, window size and pipeline depth. */
constexpr std::tuple<const char *, unsigned, unsigned> kSweep[] = {
    {"w128", 128, 30}, {"w256", 256, 30}, {"w512", 512, 30},
    {"d10", 256, 10},  {"d20", 256, 20},  {"d30", 256, 30}};

std::vector<Cell>
fig13Cells()
{
    std::vector<Cell> cells;
    for (const auto &[label, rob, depth] : kSweep) {
        auto machineAt = [rob = rob, depth = depth](SimConfig &c) {
            c.core.robSize = rob;
            c.core.frontendDepth = depth;
        };
        const std::string l = label;
        cells.push_back(cell(l + "_base", "base", machineAt));
        cells.push_back(cell(l + "_dhp", "dhp", machineAt));
        cells.push_back(cell(l + "_enh", "dmp-enhanced", machineAt));
    }
    return cells;
}

std::vector<ReportTable>
fig13(const CellRecords &f)
{
    const std::vector<std::string> machines = {"_base", "_dhp", "_enh"};
    return {averages(f, "Figure 13a: instruction window size",
                     {"window (30-stage)", "base", "DHP", "enhanced", "DHP%",
                      "enh%"},
                     {"w128", "w256", "w512"}, machines,
                     "(paper: enhanced DMP +6.9/+9.4/+10.8% at 128/256/512 "
                     "entries)"),
            averages(f, "Figure 13b: pipeline depth",
                     {"depth (256-entry)", "base", "DHP", "enhanced", "DHP%",
                      "enh%"},
                     {"d10", "d20", "d30"}, machines,
                     "(paper: enhanced DMP +3.3/+6.8/+9.4% at 10/20/30 "
                     "stages; the gain grows with both window size and "
                     "pipeline depth)")};
}

std::function<void(SimConfig &)>
staticN(unsigned n)
{
    return [n](SimConfig &c) {
        c.core.forceStaticEarlyExit = true;
        c.core.staticEarlyExitThreshold = n;
    };
}

/**
 * Section 3.2's CFM distance bound and reconvergence fraction swept
 * around the paper's 120 instructions and 20% ("chosen after
 * considering different combinations of alternatives").
 */
std::vector<Cell>
markerCells()
{
    const std::pair<const char *, unsigned> dists[] = {
        {"d30", 30}, {"d60", 60}, {"d120", 120}, {"d240", 240}};
    const std::pair<const char *, double> fracs[] = {
        {"f05", 0.05}, {"f20", 0.20}, {"f50", 0.50}};
    std::vector<Cell> cells = {cell("base", "base")};
    for (const auto &[label, dist] : dists)
        cells.push_back(cell(label, "dmp-enhanced", [dist](SimConfig &c) {
            c.marker.maxCfmDistance = dist;
            c.marker.reconvergeFraction = 0.20;
        }));
    for (const auto &[label, frac] : fracs)
        cells.push_back(cell(label, "dmp-enhanced", [frac](SimConfig &c) {
            c.marker.maxCfmDistance = 120;
            c.marker.reconvergeFraction = frac;
        }));
    return cells;
}

/** The paper's perceptron against three weaker predictors. */
constexpr std::pair<const char *, core::PredictorKind> kPredictors[] = {
    {"perceptron", core::PredictorKind::Perceptron},
    {"hybrid", core::PredictorKind::Hybrid},
    {"gshare", core::PredictorKind::Gshare},
    {"bimodal", core::PredictorKind::Bimodal},
};

std::vector<Cell>
predictorCells()
{
    std::vector<Cell> cells;
    for (const auto &[name, kind] : kPredictors) {
        auto withKind = [kind = kind](SimConfig &c) {
            c.core.predictor = kind;
        };
        cells.push_back(cell(std::string(name) + "_base", "base", withKind));
        cells.push_back(
            cell(std::string(name) + "_dmp", "dmp-enhanced", withKind));
    }
    return cells;
}

std::vector<ReportTable>
predictor(const CellRecords &f)
{
    std::vector<std::string> names;
    for (const auto &[name, kind] : kPredictors)
        names.push_back(name);
    return {averages(f, "Ablation: predictor sensitivity (workload average)",
                     {"predictor", "baseIPC", "dmpIPC", "gain"}, names,
                     {"_base", "_dmp"},
                     "(the paper uses a large, aggressive predictor so as "
                     "not to inflate DMP; weaker ones leave more "
                     "mispredictions to cover, so the gain should not "
                     "shrink)")};
}

std::vector<Figure>
buildFigures()
{
    auto perfectConf = [](SimConfig &c) { c.core.perfectConfidence = true; };
    auto staticMarks = [](SimConfig &c) { c.markMode = MarkMode::Static; };
    using Tables = std::vector<ReportTable>;
    const Cell base = cell("base", "base");
    const Cell enhanced = cell("enhanced", "dmp-enhanced");
    return {
        {"table2_config", {}, table2},
        {"table3_baseline", {base}, table3},
        {"fig01_wrongpath",
         {cell("base_classified", "base",
               [](SimConfig &c) { c.core.classifyWrongPath = true; })},
         fig01},
        {"fig06_branch_classes", {base}, fig06},
        {"fig07_basic_dmp",
         {base, cell("dhp_jrs", "dhp"),
          cell("dhp_perf_conf", "dhp", perfectConf),
          cell("diverge_jrs", "dmp"),
          cell("diverge_perf_conf", "dmp", perfectConf),
          cell("perfect_cbp", "base",
               [](SimConfig &c) { c.core.perfectCondPredictor = true; }),
          cell("dmp_static", "dmp-enhanced", staticMarks)},
         [](const CellRecords &f) -> Tables {
             return {gains(
                 f, "Figure 7: %IPC over baseline, basic DMP",
                 {{"DHP-jrs", "dhp_jrs"}, {"DHP-perf", "dhp_perf_conf"},
                  {"div-jrs", "diverge_jrs"},
                  {"div-perf", "diverge_perf_conf"},
                  {"perf-cbp", "perfect_cbp"}, {"static", "dmp_static"}},
                 "(paper averages: +2.8%, +3.4%, +5%, +19%, +48%; static "
                 "= enhanced DMP with profile-free marks, no paper "
                 "analogue)\nnote: the -perf-conf columns are lower bounds "
                 "here: this reproduction's perfect-confidence oracle can "
                 "only certify a misprediction while its correct-path "
                 "tracker is synchronized (see DESIGN.md section 5).")};
         }},
        {"fig08_exit_cases_basic", {cell("diverge_jrs", "dmp")}, fig08},
        {"fig09_enhanced_dmp",
         {base, cell("basic", "dmp"),
          cell("mcfm", "mcfm"), cell("mcfm_eexit", "mcfm-eexit"),
          cell("mcfm_eexit_mdb", "dmp-enhanced"),
          cell("dmp_static", "dmp-enhanced", staticMarks)},
         [](const CellRecords &f) -> Tables {
             return {gains(
                 f,
                 "Figure 9: %IPC over baseline, enhanced DMP (cumulative; "
                 "dmp_static = enhanced machine with profile-free marks)",
                 {{"basic", "basic"}, {"+mcfm", "mcfm"},
                  {"+mcfm+eexit", "mcfm_eexit"},
                  {"+mcfm+eexit+mdb", "mcfm_eexit_mdb"},
                  {"static", "dmp_static"}},
                 "(paper: +10.8% on average for the full enhanced machine; "
                 "+mcfm helps bzip2/twolf/fma3d, +eexit crafty/gap/parser/"
                 "twolf/mesa, +mdb bzip2/parser/twolf/vpr)")};
         }},
        {"fig10_exit_cases_enhanced", {enhanced, cell("basic", "dmp")}, fig10},
        {"fig11_flush_reduction", {base, enhanced}, fig11},
        {"fig12_fetch_exec_overhead", {base, enhanced}, fig12},
        {"fig13_window_pipeline", fig13Cells(), fig13},
        {"sec53_dualpath",
         {base, cell("dual", "dual"), cell("dhp", "dhp"), enhanced},
         [](const CellRecords &f) -> Tables {
             return {perWorkload(
                 f, "Section 5.3: dual-path vs DHP vs enhanced DMP",
                 {ratio(f, "baseIPC", "%.2f", "base", "retired_insts",
                        "cycles", 1),
                  gain(f, "dual%", "dual"),
                  gain(f, "DHP%", "dhp"), gain(f, "DMPenh%", "enhanced"),
                  counter(f, "forks", "dual", "dual_forks")},
                 "(paper: +2.6%, +2.8%, +10.8%: dual-path < DHP << "
                 "enhanced DMP)")};
         }},
        {"abl_confidence",
         {base, cell("jrs", "dmp-enhanced"),
          cell("always", "dmp-enhanced",
               [](SimConfig &c) { c.core.alwaysLowConfidence = true; }),
          cell("perfect", "dmp-enhanced", perfectConf)},
         [](const CellRecords &f) -> Tables {
             return {perWorkload(
                 f,
                 "Ablation: confidence gate (enhanced DMP, %IPC over "
                 "baseline)",
                 {gain(f, "JRS", "jrs"), gain(f, "always", "always"),
                  gain(f, "perfect", "perfect"),
                  counter(f, "entr(JRS)", "jrs", "dpred_entries"),
                  counter(f, "entr(alw)", "always", "dpred_entries")},
                 "(paper: DMP's benefit critically depends on the gate; "
                 "realistic JRS captures roughly half of the "
                 "perfect-confidence potential)")};
         }},
        {"abl_early_exit_threshold",
         {base, cell("no_eexit", "mcfm"),
          cell("compiler_n", "mcfm-eexit"),
          cell("static16", "mcfm-eexit", staticN(16)),
          cell("static48", "mcfm-eexit", staticN(48)),
          cell("static128", "mcfm-eexit", staticN(128))},
         [](const CellRecords &f) -> Tables {
             return {gains(
                 f,
                 "Ablation: early-exit threshold policy (%IPC over "
                 "baseline)",
                 {{"none", "no_eexit"}, {"compilerN", "compiler_n"},
                  {"N=16", "static16"}, {"N=48", "static48"},
                  {"N=128", "static128"}},
                 "(paper section 2.7.2: a compiler-selected N per branch "
                 "slightly beats any static N)")};
         }},
        {"abl_marker_heuristics", markerCells(),
         [](const CellRecords &f) -> Tables {
             return {gains(f,
                           "Ablation: CFM distance bound (reconverge "
                           "fraction 0.20, %IPC over baseline)",
                           {{"d30", "d30"}, {"d60", "d60"},
                            {"d120", "d120"}, {"d240", "d240"}}),
                     gains(f,
                           "Ablation: reconvergence fraction (distance 120, "
                           "%IPC over baseline)",
                           {{"f05", "f05"}, {"f20", "f20"}, {"f50", "f50"}},
                           "(paper: 120 instructions / 20% chosen after "
                           "considering alternatives)")};
         }},
        {"abl_predictor", predictorCells(), predictor},
        // Diverge loop branches (wish-loop-style predication of hard
        // back-edges; the marker marks loop branches too) and the
        // selective predictor-update policy on the enhanced machine.
        {"ext_future_work",
         {base, enhanced,
          cell("loop_ext", "dmp-enhanced",
               [](SimConfig &c) {
                   c.core.extLoopBranches = true;
                   c.marker.markLoopBranches = true;
               }),
          cell("sel_update", "dmp-enhanced",
               [](SimConfig &c) { c.core.extSelectiveUpdate = true; })},
         [](const CellRecords &f) -> Tables {
             return {perWorkload(
                 f, "Section 2.7.4 extensions (%IPC over baseline)",
                 {gain(f, "enhanced", "enhanced"),
                  gain(f, "+loopbr", "loop_ext"),
                  gain(f, "+selupd", "sel_update"),
                  {"loop-marks", kCount, [&f](const std::string &wl) {
                       return double(f.get(wl, "loop_ext").marking.markedLoop);
                   }}})};
         }},
    };
}

} // namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = buildFigures();
    return table;
}

SimConfig
cellConfig(const Cell &cell, const std::string &workload,
           const PaperOptions &opts)
{
    SimConfig cfg = cell.cfg;
    cfg.workload = workload;
    cfg.train.iterations = opts.iters;
    cfg.ref.iterations = opts.iters;
    cfg.accounting = opts.accounting;
    return cfg;
}

std::vector<std::string>
runPaper(const std::vector<const Figure *> &figs, const PaperOptions &opts,
         BatchRunner &runner)
{
    // Every cell is submitted, so the runner's memo counts the repeats;
    // a distinct configuration is recorded once, where it first
    // appears, under that cell's label.
    struct Run
    {
        std::string fingerprint, label, workload;
        std::shared_future<std::shared_ptr<const SimResult>> result;
    };
    std::vector<Run> runs;
    std::unordered_set<std::string> seen;
    for (const Figure *fig : figs)
        for (const std::string &wl : opts.workloads)
            for (const Cell &c : fig->cells) {
                const SimConfig cfg = cellConfig(c, wl, opts);
                auto result = runner.submit(cfg);
                if (std::string fp = configFingerprint(cfg);
                    seen.insert(fp).second)
                    runs.push_back({std::move(fp), c.label, wl, result});
            }
    std::vector<std::string> records;
    for (const Run &r : runs)
        records.push_back(simResultJson(*r.result.get(), r.label, r.workload,
                                        r.fingerprint, opts.iters));
    return records;
}

bool
figureTables(const std::vector<const Figure *> &figs,
             const std::vector<StatsRecord> &records,
             std::vector<ReportTable> &out, std::string &err)
{
    PaperOptions opts;
    std::unordered_map<std::string_view, const StatsRecord *> byFingerprint;
    err.clear();
    for (const StatsRecord &r : records) {
        const std::string what = "record " + r.label + " on " + r.workload;
        if (&r == &records.front()) {
            opts.iters = r.benchIters;
            opts.accounting = r.hasAccounting;
        }
        if (r.fingerprint.empty())
            err = what + " has no fingerprint: only dmp paper --stats-json "
                         "records name the cell they ran";
        else if (r.schema != kStatsSchemaVersion)
            err = what + " is schema " + std::to_string(r.schema) +
                  ": its fingerprint names no cell of this build";
        else if (r.benchIters != opts.iters)
            err = "the records mix bench_iters " +
                  std::to_string(opts.iters) + " and " +
                  std::to_string(r.benchIters) + " (" + what + ")";
        else if (r.hasAccounting != opts.accounting)
            err = "the records mix runs with and without accounting (" +
                  what + ")";
        if (!err.empty())
            return false;
        if (std::find(opts.workloads.begin(), opts.workloads.end(),
                      r.workload) == opts.workloads.end())
            opts.workloads.push_back(r.workload);
        byFingerprint.emplace(r.fingerprint, &r);
    }
    for (const Figure *fig : figs) {
        CellRecords cells{opts.workloads, {}};
        for (const std::string &wl : opts.workloads)
            for (const Cell &c : fig->cells) {
                auto it = byFingerprint.find(
                    configFingerprint(cellConfig(c, wl, opts)));
                if (it == byFingerprint.end()) {
                    err = std::string(fig->name) + ": workload " + wl +
                          ": no record of cell " + c.label;
                    return false;
                }
                cells.records.emplace(std::pair{wl, c.label}, it->second);
            }
        try {
            for (ReportTable &t : fig->tables(cells))
                out.push_back(std::move(t));
        } catch (const std::runtime_error &e) {
            err = std::string(fig->name) + ": " + e.what();
            return false;
        }
    }
    return true;
}

} // namespace dmp::sim
