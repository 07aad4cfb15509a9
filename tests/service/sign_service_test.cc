/**
 * @file
 * SignService: multi-tenant routing correctness (byte-identical to
 * the spec oracle on every Table I set and at any worker count), the
 * no-per-sign-Context-construction guarantee, config clamping and the
 * default coalescing windows, admission control, graceful teardown,
 * multi-producer stress and the unified stats surface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "../batch/batch_test_util.hh"
#include "../sphincs/oracle_ref.hh"
#include "common/hex.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thashx.hh"

using namespace herosign;
using batchtest::miniParams;
using batchtest::patternBatch;
using batchtest::patternMsg;
using batchtest::signReq;
using batchtest::verifyReq;
using service::KeyStore;
using service::ServiceConfig;
using service::ServiceOverload;
using service::SignService;
using service::VerifyService;
using sphincs::Context;
using sphincs::SphincsPlus;

namespace
{

struct Tenancy
{
    KeyStore store;
    std::map<std::string, sphincs::KeyPair> keys;
};

void
addTenants(Tenancy &t, const sphincs::Params &p, unsigned count)
{
    SphincsPlus scheme(p);
    for (unsigned i = 0; i < count; ++i) {
        const std::string id = std::string("tenant-").append(std::to_string(i));
        auto kp = scheme.keygenFromSeed(
            batchtest::fixedSeed(p, static_cast<uint8_t>(3 * i + 1)));
        t.keys.emplace(id, kp);
        t.store.addKey(id, kp);
    }
}

} // namespace

TEST(SignService, RoutesTenantsByteIdentically)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 3);

    ServiceConfig cfg;
    cfg.workers = 3;
    SignService svc(t.store, cfg);

    // Interleave tenants so routing actually multiplexes.
    std::vector<std::pair<std::string, ByteVec>> jobs;
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 12; ++i) {
        const std::string id = std::string("tenant-").append(std::to_string(i % 3));
        ByteVec msg = patternMsg(40, static_cast<uint8_t>(i));
        futs.push_back(svc.submit(id, signReq(msg)));
        jobs.emplace_back(id, std::move(msg));
    }

    for (size_t i = 0; i < jobs.size(); ++i) {
        ByteVec got = futs[i].get();
        ByteVec ref = oracle::oracleSign(t.keys.at(jobs[i].first).sk,
                                         jobs[i].second);
        EXPECT_EQ(hexEncode(got), hexEncode(ref)) << "job " << i;
    }
    svc.drain();

    auto st = svc.stats();
    EXPECT_EQ(st.signsSubmitted, 12u);
    EXPECT_EQ(st.signsCompleted, 12u);
    EXPECT_EQ(st.signFailures, 0u);
    EXPECT_EQ(st.inFlight, 0u);
    EXPECT_EQ(st.queueDepth, 0u);
    EXPECT_GT(st.sigsPerSec, 0.0);
    ASSERT_EQ(st.tenants.size(), 3u);
    for (const auto &[id, ts] : st.tenants) {
        EXPECT_EQ(ts.signsSubmitted, 4u) << id;
        EXPECT_EQ(ts.signsCompleted, 4u) << id;
        EXPECT_GT(ts.sigsPerSec, 0.0) << id;
    }
}

// The unified request-struct surface: per-request optRand and
// callbacks must survive the queue and the coalesced lane groups,
// with output bytes identical to the scalar per-key path.
TEST(SignService, RequestStructsCarryOptRandAndCallbacks)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 2);

    ServiceConfig cfg;
    cfg.workers = 2;
    SignService svc(t.store, cfg);

    std::mutex m;
    std::map<uint64_t, std::string> cb_sigs;

    std::vector<std::string> ids;
    std::vector<ByteVec> msgs, rands;
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 10; ++i) {
        const std::string id =
            std::string("tenant-").append(std::to_string(i % 2));
        batch::SignRequest req;
        req.message = patternMsg(33, static_cast<uint8_t>(0x40 + i));
        if (i % 2)
            req.optRand = ByteVec(p.n, static_cast<uint8_t>(0x21 * i));
        req.callback = [&](uint64_t seq, const ByteVec &sig) {
            std::lock_guard<std::mutex> lk(m);
            cb_sigs[seq] = hexEncode(sig);
        };
        ids.push_back(id);
        msgs.push_back(req.message);
        rands.push_back(req.optRand);
        futs.push_back(svc.submit(id, std::move(req)));
    }

    std::vector<std::string> got;
    for (size_t i = 0; i < futs.size(); ++i) {
        ByteVec sig = futs[i].get();
        ByteVec ref = oracle::oracleSign(t.keys.at(ids[i]).sk, msgs[i],
                                         rands[i]);
        EXPECT_EQ(hexEncode(sig), hexEncode(ref)) << "req " << i;
        got.push_back(hexEncode(sig));
    }
    svc.drain();

    // Every callback fired, each with its own request's bytes.
    ASSERT_EQ(cb_sigs.size(), futs.size());
    std::lock_guard<std::mutex> lk(m);
    for (const auto &[seq, hex] : cb_sigs) {
        EXPECT_NE(std::find(got.begin(), got.end(), hex), got.end())
            << "seq " << seq;
    }

    auto st = svc.stats();
    EXPECT_EQ(st.signsCompleted, 10u);
    EXPECT_EQ(st.signFailures, 0u);
    // Coalescing accounting stays consistent: every cross-signed job
    // belongs to some group of >= 2, and no more jobs than submitted.
    EXPECT_LE(st.signCrossSignJobs, 10u);
    EXPECT_LE(2 * st.signLaneGroups, st.signCrossSignJobs);
}

// submitMany(span) routes a whole burst for one tenant, each future
// carrying its own request's signature.
TEST(SignService, SubmitManySpanMatchesOracle)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);

    ServiceConfig cfg;
    cfg.workers = 4;
    SignService svc(t.store, cfg);

    std::vector<ByteVec> msgs;
    std::vector<batch::SignRequest> reqs;
    for (unsigned i = 0; i < 8; ++i) {
        msgs.push_back(patternMsg(24, static_cast<uint8_t>(i)));
        reqs.push_back({msgs.back(), {}, {}, {}});
    }
    // submitMany moves from the span; msgs keeps the reference copy.
    auto futs = svc.submitMany("tenant-0", reqs);
    ASSERT_EQ(futs.size(), msgs.size());

    for (size_t i = 0; i < futs.size(); ++i) {
        ByteVec ref =
            oracle::oracleSign(t.keys.at("tenant-0").sk, msgs[i]);
        EXPECT_EQ(hexEncode(futs[i].get()), hexEncode(ref));
    }
    svc.drain();

    EXPECT_EQ(svc.stats().signsCompleted, 8u);
}

TEST(SignService, HotPathConstructsNoContexts)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 2);

    ServiceConfig cfg;
    cfg.workers = 2;
    SignService svc(t.store, cfg);

    // Warm-up wave: one context build per tenant, nothing else.
    const uint64_t ctx0 = Context::constructionCount();
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 8; ++i)
        futs.push_back(svc.submit(
            std::string("tenant-").append(std::to_string(i % 2)),
            signReq(patternMsg(32, i))));
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(Context::constructionCount() - ctx0, 2u);

    // Steady state: zero constructions, pure cache hits.
    const uint64_t ctx1 = Context::constructionCount();
    futs.clear();
    for (unsigned i = 0; i < 8; ++i)
        futs.push_back(svc.submit(
            std::string("tenant-").append(std::to_string(i % 2)),
            signReq(patternMsg(32, 100 + i))));
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(Context::constructionCount() - ctx1, 0u);

    auto st = svc.stats();
    EXPECT_EQ(st.cache.misses, 2u);
    EXPECT_EQ(st.cache.hits, 14u);
}

TEST(SignService, RejectsUnknownAndVerifyOnlyKeys)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    SphincsPlus scheme(p);
    auto vkp = scheme.keygenFromSeed(batchtest::fixedSeed(p, 99));
    t.store.addVerifyKey("verify-only", vkp.pk);

    SignService svc(t.store);
    EXPECT_THROW(svc.submit("nope", signReq(patternMsg(8))),
                 std::invalid_argument);
    EXPECT_THROW(svc.submit("verify-only", signReq(patternMsg(8))),
                 std::invalid_argument);

    // Well-formed opt_rand still works.
    auto f = svc.submit("tenant-0",
                        signReq(patternMsg(8), ByteVec(p.n, 0xa5)));
    EXPECT_EQ(f.get(),
              oracle::oracleSign(t.keys.at("tenant-0").sk, patternMsg(8),
                                 ByteVec(p.n, 0xa5)));
}

TEST(SignService, AdmissionControlBoundsPending)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);

    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.maxPending = 4;
    SignService svc(t.store, cfg);

    unsigned accepted = 0, rejected = 0;
    std::vector<std::future<ByteVec>> futs;
    for (unsigned i = 0; i < 64; ++i) {
        try {
            futs.push_back(
                svc.submit("tenant-0", signReq(patternMsg(16, i))));
            ++accepted;
        } catch (const ServiceOverload &) {
            ++rejected;
        }
    }
    // One worker cannot keep up with a 64-submit burst at cap 4.
    EXPECT_GT(rejected, 0u);
    EXPECT_GE(accepted, 4u);
    for (auto &f : futs)
        EXPECT_EQ(f.get().size(), p.sigBytes());
    svc.drain();

    auto st = svc.stats();
    EXPECT_EQ(st.signsSubmitted, accepted);
    EXPECT_EQ(st.signsCompleted, accepted);
    EXPECT_EQ(st.signsRejected, rejected);
    EXPECT_EQ(st.inFlight, 0u);
}

TEST(SignService, SharedCacheAcrossServices)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 2);

    auto cache = std::make_shared<service::ContextCache>(8);
    ServiceConfig cfg;
    cfg.workers = 2;
    SignService a(t.store, cfg, cache);
    SignService b(t.store, cfg, cache);

    a.submit("tenant-0", signReq(patternMsg(8))).get();
    b.submit("tenant-0", signReq(patternMsg(9))).get();

    auto st = cache->stats();
    EXPECT_EQ(st.misses, 1u); // b reused a's warm context
    EXPECT_EQ(st.hits, 1u);
}

// ServiceConfig::variant stays, accepting Native only: the PTX
// flavour exists in the GPU simulator's cost model alone. Both
// services refuse a Ptx config before the plane that launches their
// workers is built, with a private cache or a shared one. The default
// config still signs like the oracle.
TEST(SignService, PtxVariantConfigThrowsAndDefaultSigns)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    const auto &kp = t.keys.at("tenant-0");

    ServiceConfig ptx;
    ptx.variant = Sha256Variant::Ptx;
    EXPECT_THROW(SignService(t.store, ptx), std::invalid_argument);
    EXPECT_THROW(VerifyService(t.store, ptx), std::invalid_argument);

    auto cache = std::make_shared<service::ContextCache>(8);
    auto admission = std::make_shared<service::AdmissionController>();
    EXPECT_THROW(SignService(t.store, ptx, cache, nullptr, admission),
                 std::invalid_argument);
    EXPECT_THROW(VerifyService(t.store, ptx, cache, nullptr, admission),
                 std::invalid_argument);
    EXPECT_EQ(cache->size(), 0u);
    EXPECT_EQ(admission->pendingTotal(), 0u);

    SignService svc(t.store, ServiceConfig{});
    const ByteVec msg = patternMsg(24, 5);
    EXPECT_EQ(hexEncode(svc.submit("tenant-0", signReq(msg)).get()),
              hexEncode(oracle::oracleSign(kp.sk, msg)));
}

// Every pool knob at 0 clamps to one worker and a one-entry cache on
// both planes, and the pair still signs and verifies exactly like the
// spec oracle. The default config's coalescing windows are
// pinned too: one lane group per sign pass, 4 lane widths per verify
// pass.
TEST(SignService, AllZeroPoolKnobsClampAndDefaultWindowsHold)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    const auto &kp = t.keys.at("tenant-0");

    ServiceConfig zero;
    zero.workers = 0;
    zero.verifyWorkers = 0;
    zero.contextCacheCapacity = 0;
    SignService sign(t.store, zero);
    VerifyService verify(t.store, zero);
    EXPECT_EQ(sign.workers(), 1u);
    EXPECT_EQ(verify.workers(), 1u);
    EXPECT_EQ(sign.contextCache()->capacity(), 1u);
    EXPECT_EQ(verify.contextCache()->capacity(), 1u);

    SphincsPlus scheme(p);
    const ByteVec msg = patternMsg(40, 7);
    const ByteVec sig = sign.submit("tenant-0", signReq(msg)).get();
    EXPECT_EQ(hexEncode(sig), hexEncode(oracle::oracleSign(kp.sk, msg)));
    EXPECT_EQ(verify.submit("tenant-0", verifyReq(msg, sig)).get(),
              scheme.verify(msg, sig, kp.pk));
    EXPECT_TRUE(scheme.verify(msg, sig, kp.pk));

    SignService dsign(t.store, ServiceConfig{});
    VerifyService dverify(t.store, ServiceConfig{});
    EXPECT_EQ(dsign.coalesceWindow(), sphincs::hashLaneWidth());
    EXPECT_EQ(dverify.coalesceWindow(), 4 * sphincs::hashLaneWidth());
}

TEST(SignService, ByteMatchesOracleForEveryTableISet)
{
    for (const sphincs::Params &p : sphincs::Params::all()) {
        SphincsPlus scheme(p);
        auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p));
        KeyStore store;
        store.addKey("k", kp);

        ServiceConfig cfg;
        cfg.workers = 3;
        SignService svc(store, cfg);

        auto msgs = patternBatch(3);
        std::vector<batch::SignRequest> reqs;
        for (const ByteVec &m : msgs)
            reqs.push_back(signReq(m));
        auto futures = svc.submitMany("k", reqs);
        ASSERT_EQ(futures.size(), msgs.size());
        for (size_t i = 0; i < msgs.size(); ++i) {
            ByteVec got = futures[i].get();
            EXPECT_EQ(hexEncode(got),
                      hexEncode(oracle::oracleSign(kp.sk, msgs[i])))
                << p.name << " msg " << i;
            EXPECT_TRUE(scheme.verify(msgs[i], got, kp.pk));
        }
        svc.drain();
        auto st = svc.stats();
        EXPECT_EQ(st.signsCompleted, msgs.size());
        EXPECT_EQ(st.signFailures, 0u);
        EXPECT_GT(st.wallUs, 0.0);
        EXPECT_GT(st.sigsPerSec, 0.0);
    }
}

// Lone requests on an idle 4-worker service sign as bands on the
// idle workers (when the host has a core to spare), byte-identical to
// the oracle on every Table I set and the mini set.
TEST(SignService, LoneSignaturesOnIdleWorkersSignInBands)
{
    std::vector<sphincs::Params> sets = sphincs::Params::all();
    sets.push_back(miniParams());
    for (const sphincs::Params &p : sets) {
        SphincsPlus scheme(p);
        auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p, 5));
        KeyStore store;
        store.addKey("k", kp);
        ServiceConfig cfg;
        cfg.workers = 4;
        SignService svc(store, cfg);

        constexpr unsigned kSigns = 3;
        for (unsigned i = 0; i < kSigns; ++i) {
            const ByteVec msg = patternMsg(32, static_cast<uint8_t>(i));
            const ByteVec rand =
                i % 2 ? ByteVec(p.n, static_cast<uint8_t>(0x5c + i))
                      : ByteVec{};
            EXPECT_EQ(svc.submit("k", signReq(msg, rand)).get(),
                      oracle::oracleSign(kp.sk, msg, rand))
                << p.name << " msg " << i;
        }
        svc.drain();
        const auto st = svc.stats();
        EXPECT_EQ(st.signFailures, 0u);
        EXPECT_EQ(st.signLaneGroups, 0u);
        EXPECT_LE(st.signBanded, kSigns);
        // At most the three other workers help one signature.
        EXPECT_LE(st.signBandsHelped, 3 * st.signBanded);
        if (std::thread::hardware_concurrency() >= 2) {
            EXPECT_GT(st.signBanded, 0u) << p.name;
        }
    }
}

// Whatever group shapes the queue races produce, output bytes match
// the oracle per message — 1 worker and 8 workers alike.
TEST(SignService, WorkerCountInvariance1v8)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    auto msgs = patternBatch(12, 24);

    const sphincs::SecretKey &sk = t.keys.at("tenant-0").sk;
    std::vector<std::string> ref;
    for (const ByteVec &m : msgs)
        ref.push_back(hexEncode(oracle::oracleSign(sk, m)));

    for (unsigned workers : {1u, 8u}) {
        ServiceConfig cfg;
        cfg.workers = workers;
        SignService svc(t.store, cfg);
        std::vector<batch::SignRequest> reqs;
        for (const ByteVec &m : msgs)
            reqs.push_back(signReq(m));
        auto futures = svc.submitMany("tenant-0", reqs);
        for (size_t i = 0; i < msgs.size(); ++i)
            EXPECT_EQ(hexEncode(futures[i].get()), ref[i])
                << "workers=" << workers << " msg=" << i;
        svc.drain();
        auto st = svc.stats();
        EXPECT_EQ(st.signFailures, 0u);
        EXPECT_LE(st.signCrossSignJobs, st.signsCompleted);
    }
}

// A malformed request is refused before it claims anything: no
// admission slot, no sequence number, no tenant counters.
TEST(SignService, WrongLengthOptRandThrowsOnSubmit)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    SignService svc(t.store);
    for (size_t len : {p.n + 1, p.n - 1}) {
        EXPECT_THROW(svc.submit("tenant-0",
                                signReq(patternMsg(8), ByteVec(len))),
                     std::invalid_argument)
            << len;
    }
    EXPECT_EQ(svc.pending(), 0u);
    EXPECT_EQ(svc.admission()->pendingTotal(), 0u);
    auto st = svc.stats();
    EXPECT_EQ(st.signsSubmitted, 0u);
    EXPECT_EQ(st.signFailures, 0u);
}

TEST(SignService, EmptySubmitMany)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    SignService svc(t.store);

    std::vector<batch::SignRequest> none;
    auto futures = svc.submitMany("tenant-0", none);
    EXPECT_TRUE(futures.empty());
    svc.drain(); // returns at once: nothing is pending
    auto st = svc.stats();
    EXPECT_EQ(st.signsSubmitted, 0u);
    EXPECT_EQ(st.signsCompleted, 0u);
    EXPECT_EQ(st.wallUs, 0.0);
    EXPECT_EQ(st.sigsPerSec, 0.0);
}

TEST(SignService, DestructorCompletesQueuedFutures)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    auto msgs = patternBatch(6, 16);

    std::vector<std::future<ByteVec>> futures;
    {
        ServiceConfig cfg;
        cfg.workers = 2;
        SignService svc(t.store, cfg);
        std::vector<batch::SignRequest> reqs;
        for (const ByteVec &m : msgs)
            reqs.push_back(signReq(m));
        futures = svc.submitMany("tenant-0", reqs);
        // No drain: the destructor must sign the queue, not fail it.
    }
    for (size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].get(),
                  oracle::oracleSign(t.keys.at("tenant-0").sk, msgs[i]))
            << i;
}

TEST(SignService, MultiProducerStressWithRepeatedDrain)
{
    const auto p = miniParams();
    Tenancy t;
    addTenants(t, p, 1);
    SphincsPlus scheme(p);
    const sphincs::SecretKey &sk = t.keys.at("tenant-0").sk;

    ServiceConfig cfg;
    cfg.workers = 4;
    SignService svc(t.store, cfg);

    // Many small submits from several producers, each with a
    // completion callback.
    constexpr unsigned producers = 4;
    constexpr unsigned per_producer = 32;
    std::atomic<unsigned> callbacks{0};
    std::mutex fm;
    std::vector<std::pair<ByteVec, std::future<ByteVec>>> results;
    std::vector<std::thread> ps;
    for (unsigned tid = 0; tid < producers; ++tid) {
        ps.emplace_back([&, tid] {
            for (unsigned i = 0; i < per_producer; ++i) {
                ByteVec msg{static_cast<uint8_t>(tid),
                            static_cast<uint8_t>(i)};
                batch::SignRequest req = signReq(msg);
                req.callback = [&](uint64_t, const ByteVec &) {
                    callbacks.fetch_add(1);
                };
                auto fut = svc.submit("tenant-0", std::move(req));
                std::lock_guard<std::mutex> lk(fm);
                results.emplace_back(std::move(msg), std::move(fut));
            }
        });
    }
    for (auto &th : ps)
        th.join();
    svc.drain();

    const unsigned total = producers * per_producer;
    EXPECT_EQ(callbacks.load(), total);
    ASSERT_EQ(results.size(), total);
    for (size_t i = 0; i < results.size(); ++i) {
        ByteVec sig = results[i].second.get();
        EXPECT_EQ(hexEncode(sig),
                  hexEncode(oracle::oracleSign(sk, results[i].first)))
            << i;
        if (i % 16 == 0) {
            EXPECT_TRUE(scheme.verify(results[i].first, sig,
                                      t.keys.at("tenant-0").pk));
        }
    }
    auto st = svc.stats();
    EXPECT_EQ(st.signsCompleted, total);
    EXPECT_EQ(st.signFailures, 0u);

    // Repeated drain cycles under load: each drain waits for exactly
    // what was submitted before it.
    uint64_t expected = total;
    for (unsigned round = 0; round < 5; ++round) {
        std::vector<batch::SignRequest> reqs;
        for (unsigned i = 0; i <= round; ++i)
            reqs.push_back(signReq({static_cast<uint8_t>(round),
                                    static_cast<uint8_t>(i), 0x5a}));
        auto futures = svc.submitMany("tenant-0", reqs);
        svc.drain();
        expected += futures.size();
        EXPECT_EQ(svc.pending(), 0u) << "round " << round;
        EXPECT_EQ(svc.stats().signsCompleted, expected)
            << "round " << round;
        for (auto &f : futures)
            EXPECT_EQ(f.get().size(), p.sigBytes());
    }
    EXPECT_EQ(expected, total + 15u);
    EXPECT_EQ(svc.admission()->pendingTotal(), 0u);
}
