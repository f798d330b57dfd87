#include "bpred/perceptron.hh"

#include "common/logging.hh"

namespace dmp::bpred
{

PerceptronPredictor::PerceptronPredictor()
    : PerceptronPredictor(Params{})
{
}

PerceptronPredictor::PerceptronPredictor(const Params &params)
    : p(params),
      trainTheta(int(1.93 * p.history + 14)),
      live{},
      rows(p.numEntries, Lanes{}),
      bias(p.numEntries, 0)
{
    dmp_assert(p.history >= 1 && p.history <= lanes,
               "perceptron history out of range");
    dmp_assert(p.numEntries >= 1, "perceptron needs entries");
    for (unsigned i = 0; i < p.history; ++i)
        live.v[i] = -1;
}

} // namespace dmp::bpred
