/**
 * @file
 * Measurement-driven autotuner for the CPU serving stack: search the
 * knob space (workers/shards/coalescing on both serving planes plus
 * the warm-context cache capacity) with short measured trials, then
 * persist the winning configuration as a per-host profile that
 * ServiceConfig::fromProfile() consumes as the recommended
 * construction path.
 *
 *   $ ./autotune_explorer --budget 60s --set 128f --out profile.json
 *
 * Flags:
 *   --budget D     wall-time budget, e.g. 60s / 500ms / 30 (seconds)
 *   --set NAME     parameter set (default 128f)
 *   --mini         tiny non-standard set for smoke tests (seconds)
 *   --tenants T    distinct keys driving the fabric (default 4)
 *   --trials N     measured candidates; overrides the budget sizing
 *   --trial-ms M   milliseconds per trial (default 250)
 *   --median K     probes per candidate, median scored (default 3)
 *   --seed S       search seed (same seed => same trajectory)
 *   --out PATH     write the winning profile as JSON
 *   --check PATH   load+validate a profile against this host and exit
 *   --csv / --json from the shared bench options
 *
 * The run prints the search trajectory, the tuned-vs-default
 * comparison (interleaved default/tuned trials, median of 3) and the
 * persisted profile path. The comparison table's ops/s row pair is
 * what the BENCH_autotune snapshot gates on.
 */

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "tune/knob_space.hh"
#include "tune/prior.hh"
#include "tune/profile.hh"
#include "tune/search.hh"
#include "tune/trial_runner.hh"

using namespace herosign;
using namespace herosign::bench;
using sphincs::Params;

namespace
{

/** Parse "60s" / "500ms" / "30" (seconds) into seconds. */
double
parseBudget(const std::string &s)
{
    size_t end = 0;
    const double v = std::stod(s, &end);
    const std::string unit = s.substr(end);
    if (unit == "ms")
        return v / 1000.0;
    if (unit.empty() || unit == "s")
        return v;
    throw std::invalid_argument("unknown budget unit '" + unit + "'");
}

/**
 * A deliberately tiny parameter set for smoke testing the whole
 * search loop in seconds (same shape the tier-1 batch tests use);
 * not a standard SPHINCS+ set.
 */
Params
miniParams()
{
    Params p;
    p.name = "mini";
    p.n = 16;
    p.fullHeight = 6;
    p.layers = 3;
    p.forsHeight = 4;
    p.forsTrees = 8;
    p.wotsW = 16;
    p.validate();
    return p;
}

/** The median-by-ops/s measurement of @p probes. */
tune::TrialMeasurement
medianTrial(std::vector<tune::TrialMeasurement> &probes)
{
    std::sort(probes.begin(), probes.end(),
              [](const tune::TrialMeasurement &a,
                 const tune::TrialMeasurement &b) {
                  return a.opsPerSec < b.opsPerSec;
              });
    return probes[probes.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv);
    double budget_s = 30.0;
    std::string set_name = "128f";
    bool mini = false;
    unsigned tenants = 4;
    unsigned trials = 0;
    unsigned trial_ms = 250;
    unsigned median_of = 3;
    uint64_t seed = 1;
    std::string out_path;
    std::string check_path;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            const bool has_val = i + 1 < argc;
            if (a == "--budget" && has_val)
                budget_s = parseBudget(argv[++i]);
            else if (a == "--set" && has_val)
                set_name = argv[++i];
            else if (a == "--mini")
                mini = true;
            else if (a == "--tenants" && has_val)
                tenants = std::max(1, std::stoi(argv[++i]));
            else if (a == "--trials" && has_val)
                trials = std::stoul(argv[++i]);
            else if (a == "--trial-ms" && has_val)
                trial_ms = std::max(10, std::stoi(argv[++i]));
            else if (a == "--median" && has_val)
                median_of = std::max(1, std::stoi(argv[++i]));
            else if (a == "--seed" && has_val)
                seed = std::stoull(argv[++i]);
            else if (a == "--out" && has_val)
                out_path = argv[++i];
            else if (a == "--check" && has_val)
                check_path = argv[++i];
            else if (a == "--help" || a == "-h") {
                std::cout
                    << "usage: autotune_explorer [options]\n"
                       "  --budget <N[s|ms]>  search budget "
                       "(default 30s)\n"
                       "  --set <name>        parameter set "
                       "(default 128f)\n"
                       "  --mini              tiny test parameters\n"
                       "  --tenants <N>       workload tenants "
                       "(default 4)\n"
                       "  --trials <N>        fixed trial count "
                       "(overrides budget)\n"
                       "  --trial-ms <N>      per-probe duration "
                       "(default 250)\n"
                       "  --median <K>        probes per config "
                       "(default 3)\n"
                       "  --seed <N>          search seed "
                       "(default 1)\n"
                       "  --out <path>        persist the tuned "
                       "profile as JSON\n"
                       "  --check <path>      validate an existing "
                       "profile, no search\n"
                       "  --csv / --json <p>  table emission "
                       "(shared bench flags)\n";
                return 0;
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "bad flag value: " << e.what() << "\n";
        return 2;
    }

    const Params p = mini ? miniParams() : Params::byName(set_name);
    const auto fp = tune::HostFingerprint::current(p.name);

    // --check: validate an existing profile against this host.
    if (!check_path.empty()) {
        try {
            const tune::Profile prof =
                tune::loadProfileMatching(check_path, fp);
            std::cout << "profile " << check_path << " (hash "
                      << prof.hash() << ") matches this host:\n"
                      << "  host    " << prof.fingerprint.cpuModel
                      << ", " << prof.fingerprint.cores << " cores, "
                      << prof.fingerprint.dispatch << ", "
                      << prof.fingerprint.paramSet << "\n"
                      << "  config  " << prof.config.label() << "\n"
                      << "  tuned   " << fmtF(prof.tunedOpsPerSec, 1)
                      << " ops/s vs baseline "
                      << fmtF(prof.baselineOpsPerSec, 1) << " ("
                      << prof.trials << " trials, seed " << prof.seed
                      << ")\n";
            return 0;
        } catch (const tune::ProfileError &e) {
            std::cerr << "profile rejected: " << e.what() << "\n";
            return 1;
        }
    }

    const tune::KnobSpace space = tune::KnobSpace::standard();
    std::cout << "== autotune: " << p.name << " on " << fp.cpuModel
              << " (" << fp.cores << " cores, " << fp.dispatch
              << ") ==\n"
              << "knob space: " << space.dims() << " knobs, "
              << space.size() << " configurations; budget "
              << fmtF(budget_s, 1) << "s\n";

    tune::FabricWorkload wl;
    wl.tenants = tenants;
    wl.trialSeconds = trial_ms / 1000.0;
    wl.seed = seed;
    tune::FabricTrialRunner runner(p, wl);

    tune::SearchOptions sopts;
    sopts.seed = seed;
    sopts.maxTrials = trials;
    // Reserve ~30% of the budget for the tuned-vs-default comparison
    // pass below; the search plan is sized from the rest.
    sopts.budgetSeconds = budget_s * 0.7;
    sopts.medianOf = median_of;
    sopts.trialSecondsHint = wl.trialSeconds;
    sopts.prior.tenants = tenants;

    const tune::SearchResult res = tune::search(space, runner, sopts);

    // Trajectory headers deliberately avoid the bench_trend gated
    // patterns (ops/s, p99 ms): trajectory rows vary run to run and
    // must stay informational in snapshot diffs.
    TextTable tt({"trial", "config", "probes", "throughput (1/s)",
                  "p99(ms)", "note"});
    for (const auto &r : res.trajectory) {
        std::string note = r.pruned ? "pruned" : "";
        if (r.accepted)
            note += note.empty() ? "accepted" : ", accepted";
        if (r.improvedBest)
            note += note.empty() ? "best" : ", best";
        tt.addRow({std::to_string(r.index), r.config.label(),
                   std::to_string(r.probes), fmtF(r.score, 1),
                   fmtF(r.measurement.p99Ms), note});
    }

    // Tuned vs default: interleaved D/T/D/T probes at a longer trial
    // length, median of 3 each, so drift hits both sides equally.
    // This table's headers ARE the gated ones — the snapshot row pair
    // bench_trend protects.
    tune::FabricWorkload cwl = wl;
    cwl.trialSeconds = std::max(wl.trialSeconds * 2, 0.4);
    tune::FabricTrialRunner cmp(p, cwl);
    const tune::KnobConfig defaults;
    std::vector<tune::TrialMeasurement> dmeas, tmeas;
    for (unsigned k = 0; k < 3; ++k) {
        dmeas.push_back(cmp.measure(defaults));
        tmeas.push_back(cmp.measure(res.bestConfig));
    }
    const auto dmed = medianTrial(dmeas);
    const auto tmed = medianTrial(tmeas);

    TextTable ct({"config", "knobs", "requests", "ops/s", "p50 ms",
                  "p99 ms", "vs default"});
    ct.addRow({"default", defaults.label(),
               std::to_string(dmed.ops), fmtF(dmed.opsPerSec, 1),
               fmtF(dmed.p50Ms), fmtF(dmed.p99Ms), fmtX(1.0)});
    ct.addRow({"tuned", res.bestConfig.label(),
               std::to_string(tmed.ops), fmtF(tmed.opsPerSec, 1),
               fmtF(tmed.p50Ms), fmtF(tmed.p99Ms),
               fmtX(dmed.opsPerSec > 0
                        ? tmed.opsPerSec / dmed.opsPerSec
                        : 1.0)});

    tune::Profile prof;
    prof.fingerprint = fp;
    prof.config = res.bestConfig;
    prof.tunedOpsPerSec = tmed.opsPerSec;
    prof.baselineOpsPerSec = dmed.opsPerSec;
    prof.tunedP99Ms = tmed.p99Ms;
    prof.seed = seed;
    prof.trials = res.measurements;

    // Stamp the snapshot meta with the profile this run produced
    // before any table is emitted to --json.
    tune::setActiveProfileHash(prof.hash());

    emit(opt, "Autotune search trajectory (" + p.name + ")", tt,
         "simulated annealing from the analytic-prior warm start; " +
             std::to_string(res.measurements) + " measured trials of " +
             std::to_string(res.trialsPlanned) + " planned, " +
             std::to_string(sopts.medianOf) + "-probe median, seed " +
             std::to_string(seed));
    emit(opt, "Tuned vs default (mixed sign+verify fabric)", ct,
         "interleaved default/tuned closed-loop trials (" +
             fmtF(cwl.trialSeconds, 2) + "s each, median of 3), " +
             std::to_string(tenants) +
             " tenants; tuned knobs from the search above");

    if (!out_path.empty()) {
        try {
            tune::saveProfile(out_path, prof);
        } catch (const tune::ProfileError &e) {
            std::cerr << "cannot save profile: " << e.what() << "\n";
            return 1;
        }
        std::cout << "profile written to " << out_path << " (hash "
                  << prof.hash()
                  << "); load with ServiceConfig::fromProfile()\n";
    }
    return 0;
}
