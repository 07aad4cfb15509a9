/**
 * @file
 * Real batch-signing throughput: scalar loop vs a single-key
 * SignService with 1/2/4/8 workers across the Table I parameter
 * sets. This is the executed counterpart of the Fig. 13 batch-size
 * sweep — wall-clock signatures per second instead of simulated
 * makespan — with the engine's predicted makespan printed alongside
 * the measured one.
 *
 * A second table sweeps workers (1/2/4/8/16) x lane width
 * (scalar/x8/x16) x batching mode: "within" sets signCoalesce 1 (each
 * signature signs as a LaneScheduler group of one and batches only
 * its own hash work: its k FORS trees fill the lanes, its narrow
 * hypertree layers do not) while "cross" keeps signCoalesce 0, so
 * workers coalesce queued signatures into lockstep lane groups. The
 * cross rows are the sign-side counterpart of the verifier's
 * across-signature lane fill.
 *
 *   $ ./batch_throughput [--csv] [--json F] [--msgs N] [--set NAME]
 *
 * Worker scaling only shows above one hardware thread; on a 1-core
 * host the multi-worker rows degenerate to the scalar rate minus
 * queue overhead — the within-vs-cross delta, however, is a SIMD
 * lane-fill effect and survives at any core count.
 */

#include <chrono>
#include <cstdlib>
#include <thread>

#include "bench_util.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "service/sign_service.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::bench;
using service::ServiceConfig;
using service::ServiceStats;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<ByteVec>
makeBatch(Rng &rng, unsigned count)
{
    std::vector<ByteVec> msgs;
    msgs.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        msgs.push_back(rng.bytes(32));
    return msgs;
}

/**
 * Sequential scalar reference: one thread, no queue, duration-bounded
 * through the shared bench measurement helper (bench::measureFor) but
 * never fewer signatures than the batch the worker rows sign.
 */
MeasureResult
scalarSignRun(const SphincsPlus &scheme, const sphincs::SecretKey &sk,
              const std::vector<ByteVec> &msgs)
{
    size_t i = 0;
    const auto sign_one = [&] {
        ByteVec sig = scheme.sign(msgs[i++ % msgs.size()], sk);
        if (sig.size() != scheme.params().sigBytes())
            std::abort(); // keep the signing work observable
    };
    MeasureResult r = measureFor(0.20, /*warmup_iters=*/0, sign_one);
    while (r.iters < msgs.size()) {
        const double t0 = nowUs();
        sign_one();
        r.wallUs += nowUs() - t0;
        ++r.iters;
    }
    return r;
}

/**
 * Sign @p msgs once through a fresh SignService over @p store's one
 * key ("k"). The stats' wall clock runs from the first submit to the
 * last completion.
 */
ServiceStats
serviceRun(service::KeyStore &store, const std::vector<ByteVec> &msgs,
           const ServiceConfig &cfg)
{
    service::SignService svc(store, cfg);
    std::vector<batch::SignRequest> reqs;
    reqs.reserve(msgs.size());
    for (const ByteVec &m : msgs)
        reqs.push_back({m, {}, {}, {}});
    for (auto &f : svc.submitMany("k", reqs))
        f.get();
    svc.drain();
    return svc.stats();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv);
    unsigned msgs_per_set = 24;
    std::string only_set;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--msgs" && i + 1 < argc)
            msgs_per_set = std::max(
                1u, static_cast<unsigned>(std::stoul(argv[++i])));
        else if (a == "--set" && i + 1 < argc)
            only_set = argv[++i];
    }

    TextTable table({"set", "mode", "msgs", "wall ms", "sigs/s",
                     "vs scalar", "predicted ms"});
    const auto dev = gpu::DeviceProps::rtx4090();
    EngineCache engines;

    bool first_set = true;
    for (const Params &p : Params::all()) {
        if (!only_set.empty() && p.name.find(only_set) ==
                                     std::string::npos)
            continue;
        if (!first_set)
            table.addSeparator();
        first_set = false;
        SphincsPlus scheme(p);
        Rng rng(0xb5ac + p.n);
        auto kp = scheme.keygenFromSeed(rng.bytes(3 * p.n));
        auto msgs = makeBatch(rng, msgs_per_set);
        service::KeyStore store;
        store.addKey("k", kp);

        core::SignEngine &engine =
            engines.get(p, dev, core::EngineConfig::hero());
        const double predicted_ms =
            engine.signBatchTiming(msgs_per_set).makespanUs / 1000.0;

        // Reference: one thread with the lane engine forced onto
        // the portable scalar backend (same batched code, scalar
        // lanes — compression counts match the pre-batching path
        // exactly). Everything below is "vs" this row, so the
        // single-thread xN row isolates the SIMD backend speedup and
        // the worker rows show threading on top.
        sha256LanesForceScalar(true);
        const MeasureResult ref = scalarSignRun(scheme, kp.sk, msgs);
        sha256LanesForceScalar(false);
        const double ref_rate = ref.opsPerSec();
        table.addRow({p.name, "scalar lanes (SIMD off)",
                      std::to_string(ref.iters),
                      fmtF(ref.wallUs / 1000.0), fmtF(ref_rate, 1),
                      fmtX(1.0), fmtF(predicted_ms)});

        // Honest labeling: without an active SIMD backend this row
        // measures the same portable lanes as the reference.
        const MeasureResult xn = scalarSignRun(scheme, kp.sk, msgs);
        const double xn_rate = xn.opsPerSec();
        const char *xn_label =
            sha256LanesAvx512Active()  ? "single thread, x16 AVX-512"
            : sha256LanesAvx2Active() ? "single thread, x8 AVX2"
                                      : "single thread (no SIMD)";
        table.addRow({p.name, xn_label, std::to_string(xn.iters),
                      fmtF(xn.wallUs / 1000.0), fmtF(xn_rate, 1),
                      fmtX(xn_rate / ref_rate), fmtF(predicted_ms)});

        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            ServiceConfig cfg;
            cfg.workers = workers;
            cfg.shards = engine.config().streams;
            const ServiceStats st = serviceRun(store, msgs, cfg);
            table.addRow(
                {p.name,
                 std::to_string(workers) +
                     (workers == 1 ? " worker" : " workers"),
                 std::to_string(st.signsCompleted),
                 fmtF(st.wallUs / 1000.0), fmtF(st.sigsPerSec, 1),
                 fmtX(st.sigsPerSec / ref_rate), fmtF(predicted_ms)});
        }
    }

    emit(opt, "Batch signing throughput (real threads)", table,
         "hardware threads: " +
             std::to_string(std::thread::hardware_concurrency()) +
             "; predicted = simulated GPU makespan "
             "(signBatchTiming) at the same batch size");

    // --- Worker x lane-width x batching-mode scaling --------------
    struct Width
    {
        const char *name;
        bool forceScalar, noAvx512;
    };
    std::vector<Width> widths = {{"scalar", true, false}};
    if (sha256LanesAvx2Active())
        widths.push_back({"x8", false, true});
    if (sha256LanesAvx512Active())
        widths.push_back({"x16", false, false});

    TextTable scaling({"config", "set", "width", "workers", "mode",
                       "wall ms", "sigs/s", "vs within", "groups",
                       "cross jobs"});
    bool first_scaling_set = true;
    for (const Params &p : Params::all()) {
        if (!only_set.empty() && p.name.find(only_set) ==
                                     std::string::npos)
            continue;
        if (!first_scaling_set)
            scaling.addSeparator();
        first_scaling_set = false;
        SphincsPlus scheme(p);
        Rng rng(0x5ca1 + p.n);
        auto kp = scheme.keygenFromSeed(rng.bytes(3 * p.n));
        auto msgs = makeBatch(rng, msgs_per_set);
        service::KeyStore store;
        store.addKey("k", kp);

        for (const Width &w : widths) {
            sha256LanesForceScalar(w.forceScalar);
            sha256LanesDisableAvx512(w.noAvx512);
            for (unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
                double within_rate = 0;
                for (bool cross : {false, true}) {
                    ServiceConfig cfg;
                    cfg.workers = workers;
                    cfg.shards = 4;
                    // signCoalesce 1 pins the within-signature path;
                    // 0 coalesces up to the dispatched lane width.
                    cfg.signCoalesce = cross ? 0 : 1;
                    const ServiceStats st =
                        serviceRun(store, msgs, cfg);
                    if (!cross)
                        within_rate = st.sigsPerSec;
                    const std::string label =
                        p.name + "/" + w.name + "/w" +
                        std::to_string(workers) + "/" +
                        (cross ? "cross" : "within");
                    scaling.addRow(
                        {label, p.name, w.name,
                         std::to_string(workers),
                         cross ? "cross" : "within",
                         fmtF(st.wallUs / 1000.0),
                         fmtF(st.sigsPerSec, 1),
                         cross ? fmtX(st.sigsPerSec /
                                      std::max(1.0, within_rate))
                               : fmtX(1.0),
                         std::to_string(st.signLaneGroups),
                         std::to_string(st.signCrossSignJobs)});
                }
            }
            sha256LanesForceScalar(false);
            sha256LanesDisableAvx512(false);
        }
    }
    emit(opt,
         "Cross-signature lane fill (workers x width x mode)", scaling,
         "within = coalescing disabled (signCoalesce 1, each signature "
         "batches only its own hash work); cross = workers coalesce "
         "queued signatures into lockstep lane groups (signCoalesce "
         "0, LaneScheduler). Byte-identical output in every cell.");
    return 0;
}
