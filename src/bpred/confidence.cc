#include "bpred/confidence.hh"

#include "common/logging.hh"

namespace dmp::bpred
{

JrsConfidenceEstimator::JrsConfidenceEstimator()
    : JrsConfidenceEstimator(Params{})
{
}

JrsConfidenceEstimator::JrsConfidenceEstimator(const Params &params)
    : p(params),
      mask((1u << p.log2Entries) - 1),
      table(1u << p.log2Entries,
            SatCounter(p.counterBits, p.initialValue))
{
    dmp_assert(p.threshold <= ((1u << p.counterBits) - 1),
               "JRS threshold exceeds counter range");
}

} // namespace dmp::bpred
