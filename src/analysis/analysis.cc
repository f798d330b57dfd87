#include "analysis/analysis.hh"

#include "analysis/flowgraph.hh"
#include "analysis/lint.hh"
#include "analysis/verifier.hh"
#include "cfg/cfg.hh"
#include "cfg/dominators.hh"

namespace dmp::analysis
{

Report
analyzeProgram(const isa::Program &program, const AnalysisOptions &opts,
               AnalysisSummary *summary)
{
    Report report;
    if (program.size() == 0) {
        report.add(Severity::Error, "empty-program", kNoAddr, -1,
                   "program has no instructions");
        return report;
    }

    AbsintResult absint;
    if (opts.absint) {
        AbsintOptions ao;
        ao.narrowIters = opts.absintIterations;
        absint = runAbsint(program, ao);
        if (summary) {
            summary->absintRan = absint.ran;
            summary->absintSmeared = absint.smeared;
            summary->absintStats = absint.stats;
            summary->branchProofs = absint.branchProofs;
        }
    }

    const cfg::Cfg graph = cfg::Cfg::build(program);
    // Proven JR/RET target sets sharpen the flow graph: reach() sweeps
    // through resolved indirects stay exact, so the linter can verify
    // CFM reachability across them instead of reporting
    // `cfm-unverifiable`, and a semantically impossible jump no longer
    // taints the unreachable-code verdicts.
    const FlowGraph flow(program, absint.ran ? &absint.resolvedIndirects
                                             : nullptr);

    if (opts.verify) {
        VerifyOptions vo;
        vo.memoryBytes = opts.memoryBytes;
        verifyProgram(program, graph, flow, vo, report,
                      opts.absint ? &absint : nullptr);
    }
    if (!program.allMarks().empty()) {
        const cfg::PostDomTree pdom(graph);
        LintOptions lo;
        lo.marker = opts.marker;
        lo.maxPredicateDepth = opts.maxPredicateDepth;
        lintMarkings(program, graph, pdom, flow, lo, report);
    }
    return report;
}

LintError::LintError(std::string what_, Report report_)
    : std::runtime_error(std::move(what_)), rep(std::move(report_))
{
}

void
preflightOrThrow(const isa::Program &program, const AnalysisOptions &opts,
                 const std::string &subject)
{
    Report report = analyzeProgram(program, opts);
    if (report.errors() == 0)
        return; // warnings/infos alone never block a run
    // The message is built before the report moves into the exception.
    std::string what = "static analysis of '" + subject + "' found " +
                       std::to_string(report.errors()) + " error(s):\n" +
                       report.text();
    throw LintError(std::move(what), std::move(report));
}

} // namespace dmp::analysis
