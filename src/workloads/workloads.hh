/**
 * @file
 * The synthetic SPEC CPU2000 stand-ins.
 *
 * The paper evaluates 12 SPEC INT 2000 benchmarks plus mesa, ammp and
 * fma3d. We cannot ship SPEC, so each workload here is engineered to
 * match the *control-flow character* that drives the paper's results
 * for the corresponding benchmark: branch misprediction rate, the
 * simple-hammock / complex-diverge / other-complex mix of Figure 6,
 * memory behaviour, and base IPC band. EXPERIMENTS.md records how the
 * reproduction tracks the paper per benchmark.
 */

#ifndef DMP_WORKLOADS_WORKLOADS_HH
#define DMP_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "isa/program.hh"
#include "workloads/wl_common.hh"

namespace dmp::workloads
{

/** Descriptor of one workload. */
struct WorkloadInfo
{
    std::string name;     ///< paper benchmark name (e.g. "bzip2")
    std::string summary;  ///< what character it reproduces
    bool floatingPoint = false;
};

/** The 15 paper benchmarks, in the paper's presentation order. */
const std::vector<WorkloadInfo> &workloadList();

/** The descriptor of workload `name`, or null when none has that name. */
const WorkloadInfo *findWorkload(const std::string &name);

/** Build the named workload. Fatal on unknown names. */
isa::Program buildWorkload(const std::string &name,
                           const WorkloadParams &params = WorkloadParams{});

/**
 * Build a pseudo-random yet structurally valid program for property
 * tests: random CFGs of hammocks, diverge shapes, loops, calls, and
 * memory traffic. Same structural seed => same code; `data_seed` varies
 * the data. Programs always terminate within a bounded instruction
 * count.
 */
isa::Program buildRandomProgram(std::uint64_t structure_seed,
                                std::uint64_t data_seed,
                                unsigned size_class = 1);

} // namespace dmp::workloads

#endif // DMP_WORKLOADS_WORKLOADS_HH
