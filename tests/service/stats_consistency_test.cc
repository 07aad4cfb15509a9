/**
 * @file
 * Snapshot-consistency suite for the stats plane. A stats() snapshot
 * is taken under the same lock that serializes admission sequencing
 * and completion accounting, so its gauges must satisfy exact ledger
 * identities even while producer threads are mid-burst:
 *
 *   inFlight   == signsSubmitted - signsCompleted   (exactly)
 *   queueDepth <= inFlight                           (always)
 *
 * and the same pair on the verify plane. This suite hammers those
 * identities from a concurrent sampler (a TSan target), then checks
 * the mergedWith() algebra on the new histogram-carrying fields:
 * merged stage and per-tenant latency histograms equal the pairwise
 * merge (buckets summed, min/max folded).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "../batch/batch_test_util.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"

using namespace herosign;
using batchtest::miniParams;
using batchtest::patternMsg;
using batchtest::signReq;
using batchtest::verifyReq;
using service::KeyStore;
using service::ServiceConfig;
using service::ServiceStats;
using service::SignService;
using service::StatsRegistry;
using service::TenantStats;
using service::VerifyService;

namespace
{

struct Fixture
{
    sphincs::Params p = miniParams();
    sphincs::SphincsPlus scheme{p};
    KeyStore store;
    ByteVec msg = patternMsg(24, 0x33);
    ByteVec sig;

    Fixture()
    {
        auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p, 3));
        store.addKey("t0", kp);
        sig = scheme.sign(msg, kp.sk);
    }
};

telemetry::HistogramSnapshot
histOf(std::initializer_list<uint64_t> values)
{
    telemetry::LatencyHistogram h(1);
    for (uint64_t v : values)
        h.record(v);
    return h.snapshot();
}

} // namespace

TEST(StatsConsistency, SignGaugesHoldExactIdentitiesUnderLoad)
{
    Fixture fx;
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    SignService svc(fx.store, cfg);

    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const ServiceStats st = svc.stats();
            // Exact, not approximate: the snapshot freezes the
            // submitted/completed pair and the queue under one lock.
            ASSERT_EQ(st.inFlight,
                      st.signsSubmitted - st.signsCompleted);
            ASSERT_LE(st.queueDepth, st.inFlight);
            ASSERT_LE(st.signsCompleted, st.signsSubmitted);
        }
    });

    std::vector<std::thread> producers;
    for (unsigned t = 0; t < 3; ++t) {
        producers.emplace_back([&, t] {
            std::vector<std::future<ByteVec>> futs;
            for (unsigned i = 0; i < 16; ++i)
                futs.push_back(svc.submit(
                    "t0", signReq(patternMsg(
                              16, static_cast<uint8_t>(t * 16 + i)))));
            for (auto &f : futs)
                f.get();
        });
    }
    for (auto &p : producers)
        p.join();
    svc.drain();
    stop.store(true, std::memory_order_relaxed);
    sampler.join();

    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.signsSubmitted, 48u);
    EXPECT_EQ(st.signsCompleted, 48u);
    EXPECT_EQ(st.inFlight, 0u);
    EXPECT_EQ(st.queueDepth, 0u);
}

TEST(StatsConsistency, VerifyGaugesHoldExactIdentitiesUnderLoad)
{
    Fixture fx;
    ServiceConfig cfg;
    cfg.verifyWorkers = 2;
    cfg.verifyShards = 2;
    VerifyService svc(fx.store, cfg);

    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const ServiceStats st = svc.stats();
            // The submitted/completed pair and the queue length are
            // frozen under one lock, so the gauge identities are
            // exact; verdict counters (sampled relaxed, outside the
            // lock) can only be bounded by the later submitted read.
            ASSERT_LE(st.verifyQueueDepth, st.verifyInFlight);
            ASSERT_LE(st.verifyInFlight, st.verifiesSubmitted);
            ASSERT_GE(st.verifiesSubmitted,
                      st.verifies + st.verifyFailures);
        }
    });

    std::vector<std::thread> producers;
    for (unsigned t = 0; t < 3; ++t) {
        producers.emplace_back([&] {
            std::vector<std::future<bool>> futs;
            for (unsigned i = 0; i < 16; ++i)
                futs.push_back(
                    svc.submit("t0", verifyReq(fx.msg, fx.sig)));
            for (auto &f : futs)
                EXPECT_TRUE(f.get());
        });
    }
    for (auto &p : producers)
        p.join();
    svc.drain();
    stop.store(true, std::memory_order_relaxed);
    sampler.join();

    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.verifiesSubmitted, 48u);
    EXPECT_EQ(st.verifies, 48u);
    EXPECT_EQ(st.verifyInFlight, 0u);
    EXPECT_EQ(st.verifyQueueDepth, 0u);
}

TEST(StatsConsistency, MergedWithSumsStageHistograms)
{
    ServiceStats a;
    a.stages["sign_crypto"] = histOf({100, 200, 300});
    a.stages["sign_end_to_end"] = histOf({1000});

    ServiceStats b;
    b.stages["verify_crypto"] = histOf({50, 60});
    b.stages["sign_crypto"] = histOf({400, 50});

    const ServiceStats m = a.mergedWith(b);

    // Disjoint keys pass through untouched.
    ASSERT_TRUE(m.stages.count("sign_end_to_end"));
    EXPECT_EQ(m.stages.at("sign_end_to_end").count, 1u);
    ASSERT_TRUE(m.stages.count("verify_crypto"));
    EXPECT_EQ(m.stages.at("verify_crypto").count, 2u);
    EXPECT_EQ(m.stages.at("verify_crypto").min, 50u);
    EXPECT_EQ(m.stages.at("verify_crypto").max, 60u);

    // Overlapping key: buckets summed, extremes folded.
    const auto &crypto = m.stages.at("sign_crypto");
    const auto expect = histOf({100, 200, 300, 400, 50});
    EXPECT_EQ(crypto.count, expect.count);
    EXPECT_EQ(crypto.min, expect.min);
    EXPECT_EQ(crypto.max, expect.max);
    EXPECT_EQ(crypto.sum, expect.sum);
    EXPECT_EQ(crypto.counts, expect.counts);

    // Merge is symmetric on the histogram fields.
    const ServiceStats m2 = b.mergedWith(a);
    EXPECT_EQ(m2.stages.at("sign_crypto").counts, crypto.counts);
    EXPECT_EQ(m2.stages.at("sign_crypto").min, crypto.min);
    EXPECT_EQ(m2.stages.at("sign_crypto").max, crypto.max);
}

TEST(StatsConsistency, MergedWithFoldsPerTenantLatency)
{
    // The sign-plane snapshot carries signLatency only, the verify-
    // plane snapshot verifyLatency only (plane masks keep them
    // disjoint); the merge must keep both without double counting.
    ServiceStats signSide;
    TenantStats &ts = signSide.tenants["t0"];
    ts.signsCompleted = 3;
    ts.signLatency = histOf({1000, 2000, 3000});

    ServiceStats verifySide;
    TenantStats &tv = verifySide.tenants["t0"];
    tv.verifies = 2;
    tv.verifyLatency = histOf({500, 700});
    verifySide.tenants["t1"].verifyLatency = histOf({900});

    const ServiceStats m = signSide.mergedWith(verifySide);
    ASSERT_TRUE(m.tenants.count("t0"));
    const TenantStats &t0 = m.tenants.at("t0");
    EXPECT_EQ(t0.signLatency.count, 3u);
    EXPECT_EQ(t0.signLatency.min, 1000u);
    EXPECT_EQ(t0.signLatency.max, 3000u);
    EXPECT_EQ(t0.verifyLatency.count, 2u);
    EXPECT_EQ(t0.verifyLatency.min, 500u);
    EXPECT_EQ(t0.verifyLatency.max, 700u);
    // Tenant present on one side only still carries its histogram.
    ASSERT_TRUE(m.tenants.count("t1"));
    EXPECT_EQ(m.tenants.at("t1").verifyLatency.count, 1u);
    EXPECT_EQ(m.tenants.at("t1").signLatency.count, 0u);
}

TEST(StatsConsistency, SharedRegistryFabricMergeMatchesPlaneSums)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    Fixture fx;
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.shards = 2;
    cfg.verifyWorkers = 2;
    cfg.verifyShards = 2;
    SignService sign_svc(fx.store, cfg);
    VerifyService verify_svc(fx.store, cfg, sign_svc.contextCache(),
                             sign_svc.statsRegistry(),
                             sign_svc.admission());

    std::vector<std::future<ByteVec>> sfuts;
    std::vector<std::future<bool>> vfuts;
    for (unsigned i = 0; i < 8; ++i) {
        sfuts.push_back(sign_svc.submit(
            "t0", signReq(patternMsg(16, static_cast<uint8_t>(i)))));
        vfuts.push_back(
            verify_svc.submit("t0", verifyReq(fx.msg, fx.sig)));
    }
    for (auto &f : sfuts)
        f.get();
    for (auto &f : vfuts)
        EXPECT_TRUE(f.get());
    sign_svc.drain();
    verify_svc.drain();

    const ServiceStats ss = sign_svc.stats();
    const ServiceStats vs = verify_svc.stats();
    // Plane masks keep each side's histograms on its own keys, so the
    // merged snapshot's counts are exactly the per-plane counts (no
    // double counting through the shared registry).
    EXPECT_EQ(ss.tenants.at("t0").verifyLatency.count, 0u);
    EXPECT_EQ(vs.tenants.at("t0").signLatency.count, 0u);
    EXPECT_EQ(ss.stages.count("verify_end_to_end"), 0u);
    EXPECT_EQ(vs.stages.count("sign_end_to_end"), 0u);

    const ServiceStats m = ss.mergedWith(vs);
    EXPECT_EQ(m.tenants.at("t0").signLatency.count,
              ss.tenants.at("t0").signLatency.count);
    EXPECT_EQ(m.tenants.at("t0").verifyLatency.count,
              vs.tenants.at("t0").verifyLatency.count);
    EXPECT_EQ(m.stages.at("sign_end_to_end").count, 8u);
    EXPECT_EQ(m.stages.at("verify_end_to_end").count, 8u);
}
