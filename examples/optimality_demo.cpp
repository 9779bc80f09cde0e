/**
 * @file
 * Optimality-check walkthrough: one extension, step by step.
 *
 * Plants a configurable deletion inside a read, runs the narrow-band
 * kernel, and prints every quantity in the Fig. 6 workflow: S1/S2
 * thresholds, the narrow-band score, scoreMaxE from the band-edge E
 * values, the edit machine's optimistic bound, the verdict, and the
 * full-band truth it guards.
 *
 * Usage: optimality_demo [band] [deletion_len] [seed]
 */
#include <cstdlib>
#include <iostream>

#include "genome/reference.h"
#include "seedex/filter.h"
#include "util/rng.h"
#include "util/table.h"

using namespace seedex;

int
main(int argc, char **argv)
{
    const int band = argc > 1 ? std::atoi(argv[1]) : 10;
    const int deletion = argc > 2 ? std::atoi(argv[2]) : 6;
    const uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                   : 3;

    Rng rng(seed);
    ReferenceParams params;
    params.length = 4000;
    const Sequence ref = generateReference(params, rng);

    // Query = 101 bp of reference with `deletion` bases removed from the
    // middle; target = the original window plus slack.
    const size_t pos = 1000;
    Sequence query = ref.slice(pos, 50);
    query.append(ref.slice(pos + 50 + static_cast<size_t>(deletion), 51));
    const Sequence target = ref.slice(pos, 101 + deletion + 40);
    const int h0 = 25;

    std::cout << strprintf(
        "extension: qlen=%zu, tlen=%zu, h0=%d, planted deletion=%d, "
        "band w=%d\n\n",
        query.size(), target.size(), h0, deletion, band);

    SeedExConfig cfg;
    cfg.band = band;
    const SeedExFilter filter(cfg);
    const FilterOutcome out = filter.run(query, target, h0);

    const ExtendResult truth = kswExtend(query, target, h0, {});
    std::cout << strprintf("narrow-band score  : %d (qle=%d tle=%d)\n",
                           out.narrow.score, out.narrow.qle,
                           out.narrow.tle);
    std::cout << strprintf("full-band truth    : %d (qle=%d tle=%d)\n\n",
                           truth.score, truth.qle, truth.tle);
    std::cout << strprintf("threshold S1       : %d   (rerun if <= S1)\n",
                           out.thresholds.s1);
    std::cout << strprintf("threshold S2       : %d   (accept if  > S2)\n",
                           out.thresholds.s2);
    std::cout << strprintf("scoreMaxE          : %d   (E-score check)\n",
                           out.score_max_e);
    std::cout << strprintf(
        "edit-machine bound : %d   (region %d, exit %d, gscore %d)\n",
        out.edit.scoreEd(), out.edit.region_max, out.edit.exit_bound,
        out.edit.gscore_bound);

    const char *verdict = nullptr;
    switch (out.verdict) {
      case Verdict::PassS2: verdict = "ACCEPT (score > S2)"; break;
      case Verdict::PassChecks:
        verdict = "ACCEPT (E-score + edit checks passed)";
        break;
      case Verdict::FailS1: verdict = "RERUN (score <= S1)"; break;
      case Verdict::FailEScore: verdict = "RERUN (E-score check)"; break;
      case Verdict::FailEditCheck:
        verdict = "RERUN (edit-distance check)";
        break;
      case Verdict::FailGscoreGuard:
        verdict = "RERUN (strict gscore guard)";
        break;
    }
    std::cout << "\nverdict            : " << verdict << '\n';

    if (out.isAccepted()) {
        std::cout << (out.narrow.score == truth.score
                          ? "guarantee holds: accepted == full band\n"
                          : "BUG: accepted result differs!\n");
    } else {
        const ExtendResult rerun = filter.speculate(query, target, h0).result;
        std::cout << strprintf(
            "after host rerun   : %d (matches truth: %s)\n", rerun.score,
            rerun.score == truth.score ? "yes" : "NO");
    }
    return 0;
}
