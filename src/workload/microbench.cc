/**
 * @file
 * The MMF microbenchmark family (paper SSIII-B, Table III): page-granular
 * sequential/random reads and writes, memory intensive. One logical op
 * is one 4 KiB page consumed, which matches the paper's "K pages/s"
 * metric for Fig. 16a.
 */

#include "workload/workload.hh"

#include "sim/logging.hh"

namespace hams {

const std::vector<std::string>&
microWorkloadNames()
{
    static const std::vector<std::string> names = {"seqRd", "rndRd",
                                                   "seqWr", "rndWr"};
    return names;
}

WorkloadSpec
microSpec(const std::string& name, std::uint64_t dataset_bytes)
{
    WorkloadSpec s;
    s.name = name;
    s.family = "micro";
    s.datasetBytes = dataset_bytes;
    s.accessesPerOp = 64; // one 4 KiB page of 64 B lines per op
    s.computePerAccess = 1;
    s.btreeTouches = 0;
    s.walBytesPerOp = 0;
    s.flushEveryOps = 0;

    if (name == "seqRd") {
        // Table III: load ratio 28%, store ratio 43%.
        s.pattern = AccessPattern::Sequential;
        s.readFraction = 1.0;
    } else if (name == "rndRd") {
        // Table III: load ratio 27%, store ratio 37%.
        s.pattern = AccessPattern::Random;
        s.readFraction = 1.0;
        s.hotFraction = 0.25;
        s.hotProbability = 0.85;
    } else if (name == "seqWr") {
        // Table III: load ratio 28%, store ratio 43%.
        s.pattern = AccessPattern::Sequential;
        s.readFraction = 0.0;
    } else if (name == "rndWr") {
        // Table III: load ratio 27%, store ratio 37%.
        s.pattern = AccessPattern::Random;
        s.readFraction = 0.0;
        s.hotFraction = 0.25;
        s.hotProbability = 0.85;
    } else {
        fatal("unknown micro workload '", name, "'");
    }
    return s;
}

} // namespace hams
