/**
 * @file
 * The paper's evaluation as data: Table 2, Table 3, Figures 1 and
 * 6-13, the section 5.3 dual-path comparison and the ablations, each a
 * named list of cells plus the function that prints its table. `dmp
 * paper` runs the cells of every selected figure through one
 * BatchRunner, so a configuration two figures share simulates once.
 */

#ifndef DMP_SIM_PAPER_HH
#define DMP_SIM_PAPER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/batch.hh"
#include "sim/simulator.hh"

namespace dmp::sim
{

/** One configuration of a figure, run on every workload. */
struct Cell
{
    std::string label;
    /** A table machine plus the figure's overrides; the workload, the
     *  iteration counts and accounting are set per run (cellConfig). */
    SimConfig cfg;
};

class FigureResults;

/** One table or figure of the evaluation. */
struct Figure
{
    const char *name; ///< e.g. "fig09_enhanced_dmp"
    std::vector<Cell> cells;
    /** Print the table to stdout from the figure's results. */
    void (*print)(const FigureResults &);
};

/** Every figure, in the order `dmp paper all` prints them. */
const std::vector<Figure> &figures();

/** What one `dmp paper` invocation simulates and exports. */
struct PaperOptions
{
    /** Table rows, in order: distinct names from workloadList(). */
    std::vector<std::string> workloads;
    std::uint64_t iters = 2000;
    /** Attach cycle accounting to every run (changes fingerprints). */
    bool accounting = false;
    /** When set, receives one JSONL record per distinct run. */
    std::ostream *records = nullptr;
};

/** The simulation of `cell` on `workload` under `opts`. */
SimConfig cellConfig(const Cell &cell, const std::string &workload,
                     const PaperOptions &opts);

/**
 * Submit every cell of every figure in `figs` on every workload to
 * `runner`, then print the tables in the order of `figs`. Records go
 * out in figure, workload, cell order, one per distinct
 * configFingerprint, each with its `fingerprint` and `bench_iters`.
 */
void runPaper(const std::vector<const Figure *> &figs,
              const PaperOptions &opts, BatchRunner &runner);

} // namespace dmp::sim

#endif // DMP_SIM_PAPER_HH
