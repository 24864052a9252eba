#include "model/table4.h"

#include <stdexcept>

#include "model/region.h"

namespace ezflow::model {

namespace {

Pattern make(std::vector<int> z, double p) { return Pattern{std::move(z), p}; }

/// P(node i wins a rate-1/cw race among `contenders`):
///   (1/cw_i) / sum_j (1/cw_j)  ==  prod_{j != i} cw_j / sum_k prod_{j != k} cw_j.
double win_probability(int winner, const std::vector<int>& contenders,
                       const std::vector<double>& cw)
{
    double numerator = 0.0;
    double denominator = 0.0;
    for (int k : contenders) {
        double prod = 1.0;
        for (int j : contenders)
            if (j != k) prod *= cw[static_cast<std::size_t>(j)];
        denominator += prod;
        if (k == winner) numerator = prod;
    }
    if (denominator <= 0.0) throw std::invalid_argument("win_probability: bad windows");
    return numerator / denominator;
}

}  // namespace

std::vector<Pattern> table4_distribution(int region, const std::vector<double>& cw)
{
    if (cw.size() != 4) throw std::invalid_argument("table4_distribution: need cw0..cw3");
    for (double w : cw)
        if (w <= 0.0) throw std::invalid_argument("table4_distribution: cw must be positive");

    const double cw0 = cw[0];
    const double cw1 = cw[1];
    const double cw2 = cw[2];
    const double cw3 = cw[3];

    switch (region) {
        case kRegionA:
            // Only the saturated source holds packets.
            return {make({1, 0, 0, 0}, 1.0)};
        case kRegionB: {
            // Nodes 0 and 1 contend; they sense each other, winner's link
            // succeeds.
            const double p0 = cw1 / (cw0 + cw1);
            return {make({1, 0, 0, 0}, p0), make({0, 1, 0, 0}, 1.0 - p0)};
        }
        case kRegionC:
            // Nodes 0 and 2 are hidden from each other: both transmit;
            // node 2 corrupts link 0 at receiver 1, link 2 succeeds.
            return {make({0, 0, 1, 0}, 1.0)};
        case kRegionD:
            // Nodes 0 and 3 are three hops apart: both transmissions
            // succeed concurrently (spatial reuse).
            return {make({1, 0, 0, 1}, 1.0)};
        case kRegionE: {
            // Contenders 0, 1, 2. If node 1 wins the race, its neighbours
            // 0 and 2 freeze and link 1 succeeds; otherwise nodes 0 and 2
            // (hidden from each other) both transmit and only link 2's
            // receiver is clear.
            const double p1 = win_probability(1, {0, 1, 2}, cw);
            return {make({0, 1, 0, 0}, p1), make({0, 0, 1, 0}, 1.0 - p1)};
        }
        case kRegionF: {
            // Contenders 0, 1, 3. Node 3 is hidden from both 0 and 1, so
            // it always transmits and link 3 always succeeds; the 0 vs 1
            // race decides whether link 0 also succeeds (node 1 transmitting
            // corrupts nothing of link 3 but its own receiver is jammed by
            // node 3).
            const double p0_first = win_probability(0, {0, 1, 3}, cw);
            const double p1_first = win_probability(1, {0, 1, 3}, cw);
            const double p3_first = win_probability(3, {0, 1, 3}, cw);
            const double p0_sub = cw1 / (cw0 + cw1);  // 0 beats 1 in the sub-race
            const double p_0and3 = p0_first + p3_first * p0_sub;
            const double p_only3 = p1_first + p3_first * (1.0 - p0_sub);
            return {make({1, 0, 0, 1}, p_0and3), make({0, 0, 0, 1}, p_only3)};
        }
        case kRegionG: {
            // Contenders 0, 2, 3. Nodes 2 and 3 sense each other; node 0 is
            // hidden from both. Node 2 transmitting kills link 0; node 3
            // transmitting leaves links 0 and 3 compatible.
            const double p2_first = win_probability(2, {0, 2, 3}, cw);
            const double p3_first = win_probability(3, {0, 2, 3}, cw);
            const double p0_first = win_probability(0, {0, 2, 3}, cw);
            const double p2_sub = cw3 / (cw2 + cw3);  // 2 beats 3 in the sub-race
            const double p_link2 = p2_first + p0_first * p2_sub;
            const double p_0and3 = p3_first + p0_first * (1.0 - p2_sub);
            return {make({0, 0, 1, 0}, p_link2), make({1, 0, 0, 1}, p_0and3)};
        }
        case kRegionH: {
            // All four contend. First winner w freezes its carrier-sense
            // neighbours; remaining hidden contenders run a sub-race.
            const double p0 = win_probability(0, {0, 1, 2, 3}, cw);
            const double p1 = win_probability(1, {0, 1, 2, 3}, cw);
            const double p2 = win_probability(2, {0, 1, 2, 3}, cw);
            const double p3 = win_probability(3, {0, 1, 2, 3}, cw);
            const double p2_beats3 = cw3 / (cw2 + cw3);
            const double p0_beats1 = cw1 / (cw0 + cw1);
            // w=2: node 1,3 freeze; node 0 transmits too -> link 2 only.
            // w=1: node 0,2 freeze; node 3 transmits too -> link 3 only.
            // w=0: node 1 freezes; nodes 2,3 sub-race:
            //        2 wins -> {0,2} transmit -> link 2 only;
            //        3 wins -> {0,3} transmit -> links 0 and 3.
            // w=3: node 2 freezes; nodes 0,1 sub-race:
            //        0 wins -> {0,3} -> links 0 and 3;
            //        1 wins -> {1,3} -> link 3 only.
            const double p_link2 = p2 + p0 * p2_beats3;
            const double p_link3 = p1 + p3 * (1.0 - p0_beats1);
            const double p_0and3 = p0 * (1.0 - p2_beats3) + p3 * p0_beats1;
            return {make({0, 0, 1, 0}, p_link2), make({0, 0, 0, 1}, p_link3),
                    make({1, 0, 0, 1}, p_0and3)};
        }
        default:
            throw std::invalid_argument("table4_distribution: bad region index");
    }
}

}  // namespace ezflow::model
