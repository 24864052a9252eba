#pragma once

#include <map>
#include <vector>

#include "model/walk.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ezflow::model {

/// Numerical companion to the paper's Theorem 1 (Foster–Lyapunov
/// stability of the 4-hop walk under EZ-Flow).
///
/// For each region outside the finite set S, the theorem exhibits a
/// look-ahead horizon k(region) such that
///   E[h(b(n+k)) | b(n)] - h(b(n)) <= -eps,  h(b) = sum_i b_i.
/// This estimator measures that conditional drift by Monte-Carlo: it
/// prepares states inside a region (far enough from the axes that the
/// walk cannot change region within k slots), runs k slots many times and
/// averages the change of h.
class LyapunovEstimator {
public:
    struct Drift {
        int region = 0;
        int horizon = 0;  ///< k(region) used
        double mean_drift = 0.0;
        double stderr_drift = 0.0;
        int samples = 0;
    };

    /// `config` describes the walk (EZ-Flow on/off, K, caa params);
    /// windows are re-initialized to `cw` before every sample.
    LyapunovEstimator(RandomWalkModel::Config config, std::vector<long long> cw, util::Rng rng);

    /// Estimate the k-slot drift of h starting from `relays` (the walk's
    /// region is derived from it).
    Drift estimate(const BufferVector& relays, int horizon, int samples);

    /// The paper's horizons for the 4-hop proof: k=1 for F,H; k=2 for D,E;
    /// k=3 for G; k=4 for C; k=25 for B. Region A belongs to S.
    static int paper_horizon(int region);

private:
    RandomWalkModel::Config config_;
    std::vector<long long> cw_;
    util::Rng rng_;
};

}  // namespace ezflow::model
