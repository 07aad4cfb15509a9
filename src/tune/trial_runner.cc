#include "tune/trial_runner.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "common/random.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "telemetry/histogram.hh"
#include "tune/measure.hh"

namespace herosign::tune
{

namespace
{

std::string tenantId(unsigned t)
{
    return std::string("tenant-").append(std::to_string(t));
}

uint64_t nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

FabricTrialRunner::FabricTrialRunner(const sphincs::Params &params,
                                     const FabricWorkload &workload)
    : params_(params), workload_(workload), scheme_(params)
{
    workload_.tenants = std::max(1u, workload_.tenants);
    workload_.producers = std::max(1u, workload_.producers);
    workload_.trialSeconds = std::max(0.01, workload_.trialSeconds);

    Rng rng(workload_.seed);
    vpool_.reserve(workload_.tenants);
    for (unsigned t = 0; t < workload_.tenants; ++t) {
        auto kp = scheme_.keygenFromSeed(rng.bytes(3 * params_.n));
        store_.addKey(tenantId(t), kp);
        ByteVec m = rng.bytes(32);
        ByteVec s = scheme_.sign(m, kp.sk);
        vpool_.emplace_back(std::move(m), std::move(s));
    }
}

FabricTrialRunner::~FabricTrialRunner() = default;

TrialMeasurement FabricTrialRunner::measure(const KnobConfig &cfg)
{
    const service::ServiceConfig scfg = cfg.toServiceConfig();
    service::SignService ssvc(store_, scfg);
    service::VerifyService vsvc(store_, scfg, ssvc.contextCache(),
                                ssvc.statsRegistry(),
                                ssvc.admission());

    // Untimed warmup: touch every tenant on both planes so the trial
    // never charges the candidate the one-time context builds — the
    // cache-capacity knob is measured on steady-state evictions, not
    // cold fills.
    Rng wrng(workload_.seed ^ 0x9e3779b97f4a7c15ull);
    for (unsigned t = 0; t < workload_.tenants; ++t) {
        ssvc.submit(tenantId(t), {wrng.bytes(32), {}, {}, {}}).get();
        vsvc.submit(tenantId(t),
                    {vpool_[t].first, vpool_[t].second, {}})
            .get();
    }

    // Timed closed loop: each producer keeps one request in flight,
    // alternating sign and verify across rotating tenants (the shape
    // the service_throughput mixed-fabric section reports).
    telemetry::LatencyHistogram lat(workload_.producers);
    std::vector<MeasureResult> per(workload_.producers);
    std::vector<std::thread> threads;
    threads.reserve(workload_.producers);
    for (unsigned t = 0; t < workload_.producers; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(workload_.seed + 0xfab0 + t);
            uint64_t i = 0;
            per[t] = measureFor(
                workload_.trialSeconds, /*warmup_iters=*/0, [&] {
                    const unsigned tenant =
                        static_cast<unsigned>((t + i) %
                                              workload_.tenants);
                    const std::string id = tenantId(tenant);
                    const uint64_t s0 = nowNs();
                    if (i % 2 == 0)
                        ssvc.submit(id, {rng.bytes(32), {}, {}, {}})
                            .get();
                    else
                        vsvc.submit(id, {vpool_[tenant].first,
                                         vpool_[tenant].second, {}})
                            .get();
                    lat.record(nowNs() - s0);
                    ++i;
                });
        });
    }
    for (auto &th : threads)
        th.join();
    ssvc.drain();
    vsvc.drain();

    TrialMeasurement m;
    double max_wall_us = 0;
    for (const auto &r : per) {
        m.ops += r.iters;
        max_wall_us = std::max(max_wall_us, r.wallUs);
    }
    m.wallMs = max_wall_us / 1000.0;
    m.opsPerSec =
        max_wall_us > 0 ? m.ops * 1e6 / max_wall_us : 0.0;
    const auto snap = lat.snapshot();
    m.p50Ms = snap.percentile(0.50) / 1e6;
    m.p99Ms = snap.percentile(0.99) / 1e6;
    return m;
}

} // namespace herosign::tune
