/**
 * @file
 * Rodinia kernel family (paper Table III): BFS graph traversal, KMN
 * (k-means) clustering and NN (nearest neighbour) — computation-heavy
 * workloads with low store ratios. One logical op corresponds to a unit
 * of kernel work (node visit, point assignment); Fig. 16a reports them
 * in pages/s alongside the microbenchmarks.
 */

#include "workload/workload.hh"

#include "sim/logging.hh"

namespace hams {

const std::vector<std::string>&
rodiniaWorkloadNames()
{
    static const std::vector<std::string> names = {"BFS", "KMN", "NN"};
    return names;
}

WorkloadSpec
rodiniaSpec(const std::string& name, std::uint64_t dataset_bytes)
{
    WorkloadSpec s;
    s.name = name;
    s.family = "rodinia";
    s.datasetBytes = dataset_bytes;
    s.btreeTouches = 0;
    s.walBytesPerOp = 0;
    s.flushEveryOps = 0;

    if (name == "BFS") {
        // Table III: load ratio 21%, store ratio 4%.
        // Frontier expansion: pointer-chasing neighbour loads.
        s.pattern = AccessPattern::Random;
        s.readFraction = 0.95;
        s.accessesPerOp = 8;
        s.computePerAccess = 15;
        s.hotFraction = 0.3; // frontier locality
        s.hotProbability = 0.75;
    } else if (name == "KMN") {
        // Table III: load ratio 27%, store ratio 3%.
        // Streaming point reads; centroids stay cache resident.
        s.pattern = AccessPattern::Sequential;
        s.readFraction = 0.95;
        s.accessesPerOp = 16;
        s.computePerAccess = 25;
    } else if (name == "NN") {
        // Table III: load ratio 16%, store ratio 5%.
        // Distance computation dominates; low memory intensity.
        s.pattern = AccessPattern::Sequential;
        s.readFraction = 0.97;
        s.accessesPerOp = 16;
        s.computePerAccess = 40;
    } else {
        fatal("unknown rodinia workload '", name, "'");
    }
    return s;
}

} // namespace hams
