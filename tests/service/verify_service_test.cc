/**
 * @file
 * VerifyService: coalesced multi-tenant verification agrees with the
 * scalar verifier on valid, corrupted and unknown-tenant traffic, and
 * the shared stats registry unifies sign + verify counters.
 */

#include <gtest/gtest.h>

#include "../batch/batch_test_util.hh"
#include "common/fault.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thashx.hh"

using namespace herosign;
using batchtest::miniParams;
using batchtest::patternMsg;
using batchtest::signReq;
using batchtest::verifyReq;
using service::KeyStore;
using service::ServiceConfig;
using service::VerifyService;
using sphincs::SphincsPlus;

namespace
{

struct Fixture
{
    sphincs::Params p = miniParams();
    SphincsPlus scheme{p};
    KeyStore store;
    std::map<std::string, sphincs::KeyPair> keys;

    explicit Fixture(unsigned tenants)
    {
        for (unsigned i = 0; i < tenants; ++i) {
            const std::string id = std::string("t").append(std::to_string(i));
            auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(
                p, static_cast<uint8_t>(7 * i + 2)));
            keys.emplace(id, kp);
            store.addKey(id, kp);
        }
    }
};

} // namespace

TEST(VerifyService, MixedTenantBatchMatchesScalar)
{
    Fixture fx(3);
    VerifyService svc(fx.store);

    // Valid signatures from all tenants, plus corruption: a bit flip,
    // a cross-tenant swap, a truncated signature, a wrong message.
    std::vector<ByteVec> msgs;
    std::vector<ByteVec> sigs;
    std::vector<std::string> ids;
    for (unsigned i = 0; i < 9; ++i) {
        const std::string id = std::string("t").append(std::to_string(i % 3));
        ids.push_back(id);
        msgs.push_back(patternMsg(32, static_cast<uint8_t>(i)));
        sigs.push_back(fx.scheme.sign(msgs.back(),
                                      fx.keys.at(id).sk));
    }
    sigs[1][17] ^= 0x40;                   // bit flip -> reject
    ids[4] = "t0";                          // signed by t1 -> reject
    // pop_back rather than resize(size()-1): GCC's -O2+ASan
    // stringop-overflow analysis flags the (dead) grow path of a
    // shrinking resize it cannot prove shrinks.
    sigs[5].pop_back();                     // truncated -> reject
    msgs[7][0] ^= 0x01;                     // message mismatch -> reject

    // Interleaved tenants: the coalesced pass groups them per key.
    std::vector<std::future<bool>> got;
    for (size_t i = 0; i < msgs.size(); ++i)
        got.push_back(svc.submit(ids[i], verifyReq(msgs[i], sigs[i])));

    unsigned rejects = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        const bool ref = fx.scheme.verify(msgs[i], sigs[i],
                                          fx.keys.at(ids[i]).pk);
        EXPECT_EQ(got[i].get(), ref) << "request " << i;
        if (!ref)
            ++rejects;
    }
    EXPECT_EQ(rejects, 4u);
    svc.drain();

    auto st = svc.stats();
    EXPECT_EQ(st.verifies, 9u);
    EXPECT_EQ(st.verifyRejects, 4u);
}

TEST(VerifyService, UnknownTenantRejectsWithoutThrowing)
{
    Fixture fx(1);
    VerifyService svc(fx.store);

    ByteVec msg = patternMsg(16);
    ByteVec sig = fx.scheme.sign(msg, fx.keys.at("t0").sk);
    EXPECT_TRUE(svc.submit("t0", verifyReq(msg, sig)).get());
    std::future<bool> ghost;
    EXPECT_NO_THROW(ghost = svc.submit("ghost", verifyReq(msg, sig)));
    EXPECT_FALSE(ghost.get());
    svc.drain();

    auto st = svc.stats();
    EXPECT_EQ(st.verifies, 2u);
    EXPECT_EQ(st.verifyRejects, 1u);
    EXPECT_EQ(st.unknownTenantRejects, 1u);
    // Unknown ids only hit the global counters: per-tenant registry
    // entries for attacker-supplied ids would grow without bound.
    EXPECT_EQ(st.tenants.count("ghost"), 0u);
    EXPECT_EQ(st.tenants.at("t0").verifies, 1u);

    // Reconciliation identities: the per-tenant ledgers plus the
    // unknown-tenant bucket account for every global count exactly.
    uint64_t tenant_verifies = 0, tenant_rejects = 0;
    for (const auto &[id, ts] : st.tenants) {
        tenant_verifies += ts.verifies;
        tenant_rejects += ts.verifyRejects;
    }
    EXPECT_EQ(tenant_verifies + st.unknownTenantRejects, st.verifies);
    EXPECT_EQ(tenant_rejects + st.unknownTenantRejects,
              st.verifyRejects);
}

TEST(VerifyService, SubmitManyKeepsRequestOrder)
{
    Fixture fx(1);
    VerifyService svc(fx.store);

    std::vector<batch::VerifyRequest> reqs;
    for (unsigned i = 0; i < 5; ++i) {
        ByteVec msg = patternMsg(24, i);
        ByteVec sig = fx.scheme.sign(msg, fx.keys.at("t0").sk);
        reqs.push_back(verifyReq(std::move(msg), std::move(sig)));
    }
    reqs[2].signature[3] ^= 0x80;
    auto futs = svc.submitMany("t0", reqs);
    std::vector<bool> ok;
    for (auto &f : futs)
        ok.push_back(f.get());
    EXPECT_EQ(ok, (std::vector<bool>{true, true, false, true, true}));
}

TEST(VerifyService, SharedCacheAndStatsWithSignService)
{
    Fixture fx(2);
    service::ServiceConfig cfg;
    cfg.workers = 2;
    service::SignService sign_svc(fx.store, cfg);
    VerifyService verify_svc(fx.store, cfg, sign_svc.contextCache(),
                             sign_svc.statsRegistry(),
                             sign_svc.admission());

    ByteVec msg = patternMsg(20);
    ByteVec sig = sign_svc.submit("t0", signReq(msg)).get();
    EXPECT_TRUE(verify_svc.submit("t0", verifyReq(msg, sig)).get());
    sign_svc.drain();
    verify_svc.drain();

    // One warm context serves both directions: the verify was a hit.
    auto cache = sign_svc.contextCache()->stats();
    EXPECT_EQ(cache.misses, 1u);
    EXPECT_GE(cache.hits, 1u);

    // The unified per-tenant view shows both traffic directions.
    auto st = sign_svc.stats();
    const auto &t0 = st.tenants.at("t0");
    EXPECT_EQ(t0.signsCompleted, 1u);
    EXPECT_EQ(t0.verifies, 1u);
    EXPECT_EQ(t0.verifyRejects, 0u);
    auto vst = verify_svc.stats();
    EXPECT_EQ(vst.tenants.at("t0").signsCompleted, 1u);
}

// A verify pass holds up to four lane widths and verifyBatch runs it
// as that many lane groups, so a burst's lane fill stays at or below
// 100% of the lanes it issues.
TEST(VerifyService, BurstLaneFillNeverExceedsFullLanes)
{
    Fixture fx(1);
    const ByteVec msg = patternMsg(32, 0x11);
    const ByteVec sig = fx.scheme.sign(msg, fx.keys.at("t0").sk);

    // Stall the first pass, so the rest of the burst queues behind it
    // and the next pass takes a window of several lane widths.
    FaultPlan plan;
    FaultRule &stall = plan.rule(FaultPoint::QueueStall);
    stall.active = true;
    stall.max = 1;
    stall.ms = 50;
    FaultInjector::instance().arm(plan);

    ServiceConfig cfg;
    cfg.verifyWorkers = 1;
    VerifyService svc(fx.store, cfg);
    std::vector<std::future<bool>> futs;
    for (unsigned i = 0; i < 64; ++i)
        futs.push_back(svc.submit("t0", verifyReq(msg, sig)));
    for (auto &f : futs)
        EXPECT_TRUE(f.get());
    svc.drain();
    FaultInjector::instance().disarm();

    const auto st = svc.stats();
    ASSERT_TRUE(st.stages.count("verify_group_size"));
    EXPECT_GT(st.stages.at("verify_group_size").max,
              sphincs::hashLaneWidth());
    ASSERT_TRUE(st.stages.count("verify_lane_fill_pct"));
    EXPECT_LE(st.stages.at("verify_lane_fill_pct").max, 100u);
}
