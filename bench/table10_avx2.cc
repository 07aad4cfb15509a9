/**
 * @file
 * Table X: CPU SIMD-lane comparison. The paper rows are literature
 * constants; the measured rows run this repository's own signer on
 * the host machine three times — with the lane engine forced onto the
 * portable scalar backend (the pre-batching reference), pinned to the
 * 8-lane AVX2 path (AVX-512 disabled), and on the full dispatch
 * (16-lane AVX-512 where the host supports it) — plus the resulting
 * single-thread speedups. Signatures are byte-identical across all
 * three backends.
 *
 * A second table scales worker threads (1/2/4/8/16) at each lane
 * width through a single-key SignService, whose workers coalesce
 * queued signatures into cross-signature lane groups —
 * the row to hold against the paper's 16-thread AVX2 line
 * (0.828/0.560/0.356 KOPS). Each row signs hashLaneWidth() x threads
 * x 2 messages, two full lane groups per worker. On a host with fewer
 * cores the thread rows flatten; the lane-width split remains.
 *
 * Flags: --iters N (signatures per single-thread measurement,
 * default 3), --csv,
 * --json <path> (the machine-readable record the BENCH_*.json trend
 * snapshots and scripts/bench_trend.py consume).
 */

#include <chrono>
#include <thread>

#include "bench_util.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "service/sign_service.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thashx.hh"

using namespace herosign;
using namespace herosign::bench;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

/**
 * KOPS of a threaded cross-signature SignService run. The batch holds
 * two full coalescing groups per worker, so every worker gets work;
 * a single group would land on one worker and leave the rest idle.
 * The clock starts after one warm-up signature, which also builds
 * the key's warm context.
 */
double
measureThreadedKops(const Params &p, bool force_scalar, bool no_avx512,
                    unsigned workers)
{
    sha256LanesForceScalar(force_scalar);
    sha256LanesDisableAvx512(no_avx512);
    const unsigned msgs = sphincs::hashLaneWidth() * workers * 2;

    sphincs::SphincsPlus scheme(p);
    Rng rng(1);
    service::KeyStore store;
    store.addKey("k", scheme.keygen(rng));
    std::vector<batch::SignRequest> reqs;
    reqs.reserve(msgs);
    for (unsigned i = 0; i < msgs; ++i)
        reqs.push_back({rng.bytes(64), {}, {}, {}});

    service::ServiceConfig cfg;
    cfg.workers = workers;
    service::SignService svc(store, cfg);
    svc.submit("k", {rng.bytes(64), {}, {}, {}}).get();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto &f : svc.submitMany("k", reqs))
        f.get();
    const auto t1 = std::chrono::steady_clock::now();
    sha256LanesForceScalar(false);
    sha256LanesDisableAvx512(false);
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    return msgs * 1000.0 / us; // KOPS
}

double
measureKops(const Params &p, bool force_scalar, bool no_avx512,
            unsigned iters)
{
    SphincsPlus scheme(p);
    Rng rng(1);
    auto kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(64);

    sha256LanesForceScalar(force_scalar);
    sha256LanesDisableAvx512(no_avx512);
    scheme.sign(msg, kp.sk); // warm-up
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i)
        scheme.sign(msg, kp.sk);
    auto t1 = std::chrono::steady_clock::now();
    sha256LanesForceScalar(false);
    sha256LanesDisableAvx512(false);

    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        iters;
    return 1000.0 / us; // KOPS
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = Options::parse(argc, argv);
    const unsigned iters = o.iters ? o.iters : 3;

    struct Literature
    {
        const char *set;
        double single, threads16;
    };
    const Literature lit[] = {
        {"SPHINCS+-128f", 0.143, 0.828},
        {"SPHINCS+-192f", 0.087, 0.560},
        {"SPHINCS+-256f", 0.044, 0.356},
    };
    const Params *sets[] = {&Params::sphincs128f(),
                            &Params::sphincs192f(),
                            &Params::sphincs256f()};

    // Active (not merely supported): the HEROSIGN_DISABLE_* knobs
    // must not mislabel narrower-path numbers as a SIMD row.
    const bool have_avx2 = sha256LanesAvx2Active();
    const bool have_avx512 = sha256LanesAvx512Active();
    double scalar[3], x8[3], x16[3];
    for (int i = 0; i < 3; ++i) {
        scalar[i] = measureKops(*sets[i], true, false, iters);
        x8[i] = have_avx2 ? measureKops(*sets[i], false, true, iters)
                          : 0.0;
        x16[i] = have_avx512
                     ? measureKops(*sets[i], false, false, iters)
                     : 0.0;
    }

    TextTable t({"Implementation", "128f KOPS", "192f KOPS",
                 "256f KOPS"});
    t.addRow({"AVX2 single thread (paper)", fmtF(lit[0].single, 3),
              fmtF(lit[1].single, 3), fmtF(lit[2].single, 3)});
    t.addRow({"AVX2 16 threads (paper)", fmtF(lit[0].threads16, 3),
              fmtF(lit[1].threads16, 3), fmtF(lit[2].threads16, 3)});
    t.addRow({"this repo, scalar lanes (measured)", fmtF(scalar[0], 3),
              fmtF(scalar[1], 3), fmtF(scalar[2], 3)});
    if (have_avx2) {
        t.addRow({"this repo, x8 AVX2 (measured)", fmtF(x8[0], 3),
                  fmtF(x8[1], 3), fmtF(x8[2], 3)});
        t.addRow({"x8 AVX2 speedup vs scalar",
                  fmtF(x8[0] / scalar[0], 2), fmtF(x8[1] / scalar[1], 2),
                  fmtF(x8[2] / scalar[2], 2)});
    } else {
        t.addRow({"this repo, x8 AVX2 (measured)", "n/a", "n/a",
                  "n/a"});
    }
    if (have_avx512) {
        t.addRow({"this repo, x16 AVX-512 (measured)", fmtF(x16[0], 3),
                  fmtF(x16[1], 3), fmtF(x16[2], 3)});
        t.addRow({"x16 AVX-512 speedup vs scalar",
                  fmtF(x16[0] / scalar[0], 2),
                  fmtF(x16[1] / scalar[1], 2),
                  fmtF(x16[2] / scalar[2], 2)});
        if (have_avx2) {
            t.addRow({"x16 speedup vs x8", fmtF(x16[0] / x8[0], 2),
                      fmtF(x16[1] / x8[1], 2), fmtF(x16[2] / x8[2], 2)});
        }
    } else {
        t.addRow({"this repo, x16 AVX-512 (measured)", "n/a", "n/a",
                  "n/a"});
    }
    emit(o, "Table X: CPU comparison (KOPS)", t,
         "The paper's point: even multi-threaded AVX2 trails the GPU "
         "by two orders of magnitude. The measured rows compare this "
         "repo's batched signer on scalar vs 8-lane AVX2 vs 16-lane "
         "AVX-512 hash lanes.");

    // --- Thread scaling through the cross-signature scheduler -----
    struct Backend
    {
        const char *name;
        bool forceScalar, noAvx512;
    };
    std::vector<Backend> backends = {{"scalar", true, false}};
    if (have_avx2)
        backends.push_back({"x8 AVX2", false, true});
    if (have_avx512)
        backends.push_back({"x16 AVX-512", false, false});

    TextTable ts({"Configuration", "128f KOPS", "192f KOPS",
                  "256f KOPS"});
    ts.addRow({"AVX2 16 threads (paper)", fmtF(lit[0].threads16, 3),
               fmtF(lit[1].threads16, 3), fmtF(lit[2].threads16, 3)});
    for (const Backend &b : backends) {
        for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
            double kops[3];
            for (int i = 0; i < 3; ++i)
                kops[i] = measureThreadedKops(*sets[i], b.forceScalar,
                                              b.noAvx512, threads);
            ts.addRow({std::string(b.name) + ", " +
                           std::to_string(threads) +
                           (threads == 1 ? " thread" : " threads"),
                       fmtF(kops[0], 3), fmtF(kops[1], 3),
                       fmtF(kops[2], 3)});
        }
    }
    emit(o, "Table X+: thread scaling (KOPS, cross-signature batching)",
         ts,
         "SignService workers coalescing queued signatures into "
         "lockstep lane groups; hardware threads on this host: " +
             std::to_string(std::thread::hardware_concurrency()) +
             ". Hold the 16-thread rows against the paper's AVX2 "
             "16-thread line.");
    return 0;
}
