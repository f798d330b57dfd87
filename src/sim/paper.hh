/**
 * @file
 * The paper's evaluation as data: Table 2, Table 3, Figures 1 and
 * 6-13, the section 5.3 dual-path comparison and the ablations, each a
 * named list of cells plus the function that builds its tables. `dmp
 * paper` runs the cells of every selected figure through one
 * BatchRunner, so a configuration two figures share simulates once,
 * and renders the tables from the stats records of those runs; `dmp
 * report --figure` renders the same tables from a records file.
 */

#ifndef DMP_SIM_PAPER_HH
#define DMP_SIM_PAPER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/batch.hh"
#include "sim/report.hh"
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

class CellRecords;

/** One table or figure of the evaluation. */
struct Figure
{
    const char *name; ///< e.g. "fig09_enhanced_dmp"
    std::vector<Cell> cells;
    /** The figure's tables, from the record of each cell. */
    std::vector<ReportTable> (*tables)(const CellRecords &);
};

/** Every figure, in the order `dmp paper all` prints them. */
const std::vector<Figure> &figures();

/** What one `dmp paper` invocation simulates. */
struct PaperOptions
{
    /** Table rows, in order: distinct names from workloadList(). */
    std::vector<std::string> workloads;
    std::uint64_t iters = 2000;
    /** Attach cycle accounting to every run (changes fingerprints). */
    bool accounting = false;
};

/** The simulation of `cell` on `workload` under `opts`. */
SimConfig cellConfig(const Cell &cell, const std::string &workload,
                     const PaperOptions &opts);

/**
 * Submit every cell of every figure in `figs` on every workload to
 * `runner` and wait for them. Returns one stats record (simResultJson)
 * per distinct configFingerprint, in figure, workload, cell order,
 * each with its `fingerprint` and `bench_iters`.
 */
std::vector<std::string> runPaper(const std::vector<const Figure *> &figs,
                                  const PaperOptions &opts,
                                  BatchRunner &runner);

/**
 * Append the tables of `figs` to `out`, built from `records` as `dmp
 * paper --stats-json` wrote them: the iterations come from
 * `bench_iters`, accounting from the accounting block, and the rows are
 * the workloads in order of first appearance. Each cell's record is
 * the one whose fingerprint is configFingerprint(cellConfig(...)).
 * @return false, with `err` saying why, when a record is not a schema
 *         2 dmp paper record, the records mix iteration counts or
 *         accounting, or a cell lacks a record or a counter it reads
 *         (naming the figure, workload and cell).
 */
bool figureTables(const std::vector<const Figure *> &figs,
                  const std::vector<StatsRecord> &records,
                  std::vector<ReportTable> &out, std::string &err);

} // namespace dmp::sim

#endif // DMP_SIM_PAPER_HH
