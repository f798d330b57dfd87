#include "workloads/workloads.hh"

#include "common/logging.hh"

namespace dmp::workloads
{

// Implemented in wl_int.cc / wl_fp.cc.
isa::Program buildIntWorkload(const std::string &name,
                              const WorkloadParams &wp, bool &found);
isa::Program buildFpWorkload(const std::string &name,
                             const WorkloadParams &wp, bool &found);

const std::vector<WorkloadInfo> &
workloadList()
{
    static const std::vector<WorkloadInfo> list = {
        {"bzip2", "complex-diverge heavy, high misprediction rate",
         false},
        {"crafty", "predictable search with some complex diverge",
         false},
        {"eon", "predictable C++ ray tracer, high IPC", false},
        {"gap", "diverge branches with poor reconvergence (case 3)",
         false},
        {"gcc", "other-complex control flow; DMP cannot help", false},
        {"gzip", "diverge branches with moderate reconvergence", false},
        {"mcf", "memory-bound pointer chase; simple hammocks dominate",
         false},
        {"parser", "well-merging complex diverge; biggest DMP win",
         false},
        {"perlbmk", "near-perfectly predictable (reduced input)", false},
        {"twolf", "diverge-heavy place-and-route", false},
        {"vortex", "predictable OO database, high IPC", false},
        {"vpr", "simple hammocks + dominant complex diverge", false},
        {"mesa", "FP rasterizer; flushes removed but little CI work",
         true},
        {"ammp", "regular FP, low misprediction rate", true},
        {"fma3d", "FP kernels guarded by diverge structures", true},
    };
    return list;
}

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &info : workloadList())
        if (info.name == name)
            return &info;
    return nullptr;
}

isa::Program
buildWorkload(const std::string &name, const WorkloadParams &params)
{
    bool found = false;
    isa::Program prog = buildIntWorkload(name, params, found);
    if (found)
        return prog;
    prog = buildFpWorkload(name, params, found);
    if (found)
        return prog;
    dmp_fatal("unknown workload: ", name);
}

} // namespace dmp::workloads
