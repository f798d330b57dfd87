#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "analysis/accounting.hh"
#include "analysis/analysis.hh"
#include "analysis/markgen.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "isa/assembler.hh"

namespace dmp::sim
{

const std::vector<Machine> &
machines()
{
    static const std::vector<Machine> table = [] {
        core::CoreParams p; // Table 2
        std::vector<Machine> t;
        t.push_back({"base", p});
        p.predication = core::PredicationScope::SimpleHammock;
        t.push_back({"dhp", p});
        p.predication = core::PredicationScope::Diverge;
        t.push_back({"dmp", p});
        p.enhMultiCfm = true;
        t.push_back({"mcfm", p});
        p.enhEarlyExit = true;
        t.push_back({"mcfm-eexit", p});
        p.enhMultiDiverge = true;
        t.push_back({"dmp-enhanced", p});
        core::CoreParams dual;
        dual.mode = core::CoreMode::DualPath;
        t.push_back({"dual", dual});
        return t;
    }();
    return table;
}

const core::CoreParams &
machine(const std::string &name)
{
    for (const Machine &m : machines())
        if (name == m.name)
            return m.params;
    dmp_fatal("unknown machine mode: ", name);
}

const char *
markModeName(MarkMode m)
{
    switch (m) {
    case MarkMode::Profile: return "profile";
    case MarkMode::Static:  return "static";
    case MarkMode::None:    return "none";
    }
    return "profile";
}

bool
parseMarkMode(const std::string &name, MarkMode &out)
{
    if (name == "profile") {
        out = MarkMode::Profile;
    } else if (name == "static") {
        out = MarkMode::Static;
    } else if (name == "none") {
        out = MarkMode::None;
    } else {
        return false;
    }
    return true;
}

std::uint64_t
SimResult::get(const std::string &name) const
{
    auto it = counters.find(name);
    if (it == counters.end()) {
        dmp_warn_once("SimResult::get: unknown counter \"", name,
                      "\" (returning 0; use require() to make this fatal)");
        return 0;
    }
    return it->second;
}

std::uint64_t
SimResult::require(const std::string &name) const
{
    auto it = counters.find(name);
    if (it == counters.end())
        dmp_fatal("SimResult::require: unknown counter \"", name, "\"");
    return it->second;
}

const DistSnapshot *
SimResult::dist(const std::string &name) const
{
    auto it = distributions.find(name);
    return it == distributions.end() ? nullptr : &it->second;
}

std::string
simResultJson(const SimResult &r, const std::string &label,
              const std::string &workload, const std::string &fingerprint,
              std::uint64_t bench_iters)
{
    json::Writer w(12);
    w.beginObject().field("schema", kStatsSchemaVersion);
    w.field("label", label).field("workload", workload);
    w.field("host_seconds", r.hostSeconds);
    if (!fingerprint.empty())
        w.field("fingerprint", fingerprint).field("bench_iters", bench_iters);

    // Name order (std::map), so records diff cleanly across runs.
    w.key("counters").beginObject();
    for (const auto &[k, v] : std::map(r.counters.begin(), r.counters.end()))
        w.field(k, v);
    w.endObject().key("distributions").beginObject();
    for (const auto &[k, v] :
         std::map(r.distributions.begin(), r.distributions.end()))
        distSnapshotJson(w.key(k), v);
    const profile::MarkingReport &m = r.marking;
    const profile::MispredictClassification &c = m.classification;
    w.endObject().key("marking").beginObject();
    w.field("candidates", m.candidateBranches);
    w.field("diverge", m.markedDiverge).field("hammock", m.markedSimpleHammock);
    w.field("loop", m.markedLoop).key("classification").beginObject();
    w.field("simple_hammock_diverge", c.simpleHammockDiverge);
    w.field("complex_diverge", c.complexDiverge);
    w.field("other_complex", c.otherComplex);
    w.field("total_insts", c.totalInsts).endObject().endObject();
    if (r.hasAccounting)
        w.key("accounting").raw(r.accountingJson);
    w.endObject();
    return w.take();
}

analysis::AnalysisOptions
analysisOptions(const SimConfig &cfg)
{
    analysis::AnalysisOptions ao;
    ao.marker = cfg.marker;
    ao.maxPredicateDepth = cfg.core.predRegisters;
    ao.memoryBytes = cfg.core.memoryBytes;
    return ao;
}

isa::Program
loadTarget(const SimConfig &cfg, const workloads::WorkloadParams &input)
{
    if (workloads::findWorkload(cfg.workload))
        return workloads::buildWorkload(cfg.workload, input);
    std::ifstream in(cfg.workload);
    if (!in)
        dmp_fatal("cannot open ", cfg.workload);
    std::ostringstream text;
    text << in.rdbuf();
    isa::Program program = isa::assemble(text.str());
    analysis::AnalysisOptions ao = analysisOptions(cfg);
    ao.absint = true;
    analysis::preflightOrThrow(program, ao, cfg.workload);
    return program;
}

profile::MarkingReport
markProgram(isa::Program &program, const SimConfig &cfg)
{
    analysis::AnalysisOptions ao = analysisOptions(cfg);

    // The verifier reads no marks, so it runs once, on the unmarked
    // program: a Profile train run executes it, and one that falls off
    // its end is refused with that finding instead of dying inside the
    // run.
    program.clearMarks();
    analysis::preflightOrThrow(program, ao, cfg.workload);

    profile::MarkingReport report;
    switch (cfg.markMode) {
    case MarkMode::Profile:
        report = profile::profileAndMark(program, cfg.core.memoryBytes,
                                         cfg.marker);
        break;
    case MarkMode::Static: {
        // No training run: synthesize from the program text. The cost
        // model deliberately uses fixed Table 2 constants rather than
        // cfg.core — the marking must not vary across core sweeps
        // (profileFingerprint excludes core knobs).
        analysis::MarkGenConfig mg;
        mg.marker = cfg.marker;
        analysis::MarkGenReport mr = analysis::synthesizeMarks(program, mg);
        report.candidateBranches = mr.candidates.size();
        report.markedDiverge = mr.markedDiverge;
        report.markedSimpleHammock = mr.markedSimpleHammock;
        report.markedLoop = mr.markedLoop;
        break;
    }
    case MarkMode::None:
        break;
    }

    // Pre-flight the marking with the linter alone: an illegal marking
    // throws here, before any simulation consumes it.
    ao.verify = false;
    analysis::preflightOrThrow(program, ao, cfg.workload);
    return report;
}

std::shared_ptr<const MarkedProgram>
markTrainBuild(const SimConfig &cfg)
{
    if (cfg.markMode == MarkMode::Static)
        return nullptr;
    auto train = std::make_shared<MarkedProgram>();
    train->program = loadTarget(cfg, cfg.train);
    train->report = markProgram(train->program, cfg);
    return train;
}

MarkedProgram
markRefBuild(const SimConfig &cfg, const MarkedProgram *train)
{
    MarkedProgram ref;
    ref.program = loadTarget(cfg, cfg.ref);
    if (!train) {
        ref.report = markProgram(ref.program, cfg);
        return ref;
    }
    profile::transferMarks(train->program, ref.program);
    analysis::preflightOrThrow(ref.program, analysisOptions(cfg),
                               cfg.workload);
    ref.report = train->report;
    return ref;
}

MarkedProgram
prepareMarkedProgram(const SimConfig &cfg)
{
    return markRefBuild(cfg, markTrainBuild(cfg).get());
}

SimResult
resultOfRun(const core::Core &machine,
            const analysis::CycleAccounting *acct, double hostSeconds)
{
    SimResult r;
    const core::CoreStats &st = machine.stats();
    r.cycles = st.cycles.value();
    r.retiredInsts = st.retiredInsts.value();
    r.ipc = r.cycles ? double(r.retiredInsts) / double(r.cycles) : 0.0;
    r.hostSeconds = hostSeconds;
    st.forEachStat(Overloaded{
        [&](std::string_view name, const Counter &c, std::string_view) {
            r.counters.emplace(name, c.value());
        },
        [&](std::string_view name, const Distribution &d,
            std::string_view) {
            r.distributions.emplace(name, d.snapshot());
        },
        [](std::string_view, double, std::string_view) {}});
    if (acct) {
        acct->counters().forEachStat(
            [&](std::string_view name, const Counter &c, std::string_view) {
                r.counters.emplace("acct_" + std::string(name), c.value());
            });
        r.hasAccounting = true;
        r.accountingJson = acct->json();
    }
    return r;
}

SimResult
runSimOnProgram(const isa::Program &ref,
                const profile::MarkingReport &report, const SimConfig &cfg)
{
    core::Core machine(ref, cfg.core);

    std::unique_ptr<check::CoreChecker> checker;
    if (cfg.selfcheck != check::Mode::Off) {
        check::CheckerOptions copt;
        copt.mode = cfg.selfcheck;
        checker = std::make_unique<check::CoreChecker>(ref, machine, copt);
        if (cfg.faultPlan)
            checker->injectFault(*cfg.faultPlan);
        machine.addObserver(checker.get());
    }

    std::unique_ptr<analysis::CycleAccounting> acct;
    if (cfg.accounting) {
        acct = std::make_unique<analysis::CycleAccounting>(
            cfg.core.frontendDepth, cfg.core.retireWidth);
        machine.addObserver(acct.get());
    }

    auto host_start = std::chrono::steady_clock::now();
    machine.run(cfg.maxInsts ? cfg.maxInsts : ~0ULL,
                cfg.maxCycles ? cfg.maxCycles : ~0ULL);
    auto host_end = std::chrono::steady_clock::now();

    if (acct)
        acct->finish();
    SimResult r = resultOfRun(
        machine, acct.get(),
        std::chrono::duration<double>(host_end - host_start).count());
    r.marking = report;
    return r;
}

SimResult
runSim(const SimConfig &cfg)
{
    auto [ref, report] = prepareMarkedProgram(cfg);
    return runSimOnProgram(ref, report, cfg);
}

double
pctDelta(double a, double b)
{
    return b == 0 ? 0 : 100.0 * (a - b) / b;
}

} // namespace dmp::sim
