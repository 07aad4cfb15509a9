/**
 * @file
 * KeyStore + ContextCache behaviour: shared immutable key material,
 * LRU eviction, hit/miss/eviction accounting, and the guarantee that
 * warm contexts make repeat acquisitions construction-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "../batch/batch_test_util.hh"
#include "service/context_cache.hh"
#include "service/key_store.hh"

using namespace herosign;
using batchtest::miniParams;
using service::ContextCache;
using service::KeyStore;
using sphincs::Context;
using sphincs::SphincsPlus;

namespace
{

sphincs::KeyPair
makeKeyPair(const sphincs::Params &p, uint8_t salt)
{
    SphincsPlus scheme(p);
    return scheme.keygenFromSeed(batchtest::fixedSeed(p, salt));
}

} // namespace

TEST(KeyStore, AddFindRemove)
{
    const auto p = miniParams();
    KeyStore store;
    auto kp = makeKeyPair(p, 1);
    auto rec = store.addKey("alice", kp);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->canSign());
    EXPECT_EQ(rec->pk.pkRoot, kp.pk.pkRoot);

    EXPECT_EQ(store.find("alice"), rec);
    EXPECT_EQ(store.find("bob"), nullptr);
    EXPECT_EQ(store.size(), 1u);

    EXPECT_THROW(store.addKey("alice", kp), std::invalid_argument);

    store.addVerifyKey("bob", kp.pk);
    auto bob = store.find("bob");
    ASSERT_NE(bob, nullptr);
    EXPECT_FALSE(bob->canSign());
    EXPECT_EQ(store.ids(), (std::vector<std::string>{"alice", "bob"}));

    EXPECT_TRUE(store.remove("alice"));
    EXPECT_FALSE(store.remove("alice"));
    EXPECT_EQ(store.find("alice"), nullptr);

    // The removed record stays alive (and un-zeroized) through the
    // outstanding shared_ptr.
    EXPECT_FALSE(rec->sk.skSeed.empty());
    EXPECT_EQ(rec->pk.pkRoot, kp.pk.pkRoot);
}

TEST(KeyStore, RejectsInconsistentKeyMaterial)
{
    // A key whose parts disagree would register, then fail every
    // signature it makes; with verifyAfterSign each failure
    // quarantines a lane tier for the whole process.
    const auto p = miniParams();
    const sphincs::KeyPair good = makeKeyPair(p, 1);
    const auto rejected = [&](auto &&tamper) {
        sphincs::KeyPair kp = good;
        tamper(kp);
        KeyStore store;
        EXPECT_THROW(store.addKey("k", kp), std::invalid_argument);
        EXPECT_EQ(store.find("k"), nullptr);
    };
    rejected([](sphincs::KeyPair &kp) { kp.sk.pkRoot.pop_back(); });
    rejected([](sphincs::KeyPair &kp) { kp.sk.skSeed.pop_back(); });
    rejected([](sphincs::KeyPair &kp) { kp.sk.skPrf.push_back(0); });
    rejected([](sphincs::KeyPair &kp) {
        kp.sk.pkSeed.pop_back();
        kp.pk.pkSeed.pop_back();
    });
    rejected([](sphincs::KeyPair &kp) { kp.pk.pkSeed[0] ^= 1; });
    rejected([](sphincs::KeyPair &kp) { kp.pk.pkRoot[0] ^= 1; });
    rejected([](sphincs::KeyPair &kp) { kp.pk.params.forsTrees += 1; });

    const auto rejected_pk = [&](auto &&tamper) {
        sphincs::PublicKey pk = good.pk;
        tamper(pk);
        KeyStore store;
        EXPECT_THROW(store.addVerifyKey("v", pk), std::invalid_argument);
        EXPECT_EQ(store.find("v"), nullptr);
    };
    rejected_pk([](sphincs::PublicKey &pk) { pk.pkRoot.pop_back(); });
    rejected_pk([](sphincs::PublicKey &pk) { pk.pkSeed.push_back(0); });

    // The untampered key still registers both ways.
    KeyStore store;
    EXPECT_NE(store.addKey("k", good), nullptr);
    EXPECT_NE(store.addVerifyKey("v", good.pk), nullptr);
}

TEST(ContextCache, HitsMissesAndSharing)
{
    const auto p = miniParams();
    KeyStore store;
    store.addKey("a", makeKeyPair(p, 1));
    store.addKey("b", makeKeyPair(p, 2));

    ContextCache cache(4);
    const uint64_t ctx0 = Context::constructionCount();

    auto wa1 = cache.acquire(store.find("a"));
    auto wb = cache.acquire(store.find("b"));
    auto wa2 = cache.acquire(store.find("a"));

    // The warm context is shared, not rebuilt.
    EXPECT_EQ(wa1.get(), wa2.get());
    EXPECT_NE(wa1.get(), wb.get());
    EXPECT_EQ(Context::constructionCount() - ctx0, 2u);

    auto st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.size, 2u);
    EXPECT_EQ(st.capacity, 4u);

    // Warm contexts can sign and the result matches a cold context.
    ByteVec msg = batchtest::patternMsg(32);
    ByteVec warm_sig =
        wa1->scheme.sign(wa1->ctx, msg, wa1->key->sk);
    SphincsPlus scheme(p);
    auto kp = makeKeyPair(p, 1);
    EXPECT_EQ(warm_sig, scheme.sign(msg, kp.sk));
}

TEST(ContextCache, LruEviction)
{
    const auto p = miniParams();
    KeyStore store;
    for (int i = 0; i < 4; ++i)
        store.addKey(std::to_string(i),
                     makeKeyPair(p, static_cast<uint8_t>(i)));

    ContextCache cache(2);
    auto w0 = cache.acquire(store.find("0"));
    cache.acquire(store.find("1"));
    cache.acquire(store.find("0")); // 0 most recent
    cache.acquire(store.find("2")); // evicts 1
    auto st = cache.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.size, 2u);

    // 1 is cold again, 0 is still warm.
    cache.acquire(store.find("1")); // miss, evicts 0
    cache.acquire(store.find("1")); // hit
    st = cache.stats();
    EXPECT_EQ(st.misses, 4u);
    EXPECT_EQ(st.hits, 2u);
    EXPECT_EQ(st.evictions, 2u);

    // The evicted warm context stays usable through our reference.
    ByteVec msg = batchtest::patternMsg(24);
    ByteVec sig = w0->scheme.sign(w0->ctx, msg, w0->key->sk);
    EXPECT_EQ(sig.size(), p.sigBytes());

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ContextCache, AcceptsTheNativeVariantOnly)
{
    // The variant parameter stays for existing callers; the PTX
    // flavour is priced by the GPU simulator and never signs.
    EXPECT_THROW(ContextCache(4, Sha256Variant::Ptx),
                 std::invalid_argument);
    ContextCache cache(4, Sha256Variant::Native);
    EXPECT_EQ(cache.capacity(), 4u);
}

TEST(ContextCache, CapacityClampedToOne)
{
    const auto p = miniParams();
    KeyStore store;
    store.addKey("x", makeKeyPair(p, 7));
    ContextCache cache(0);
    EXPECT_EQ(cache.capacity(), 1u);
    EXPECT_NE(cache.acquire(store.find("x")), nullptr);
    EXPECT_THROW(cache.acquire(nullptr), std::invalid_argument);
}

TEST(ContextCache, TinyCapacityDoesNotChurnSingleTenant)
{
    // A capacity-0 request clamps to one usable slot. Without the
    // clamp an "empty" cache would evict on every insert, turning a
    // steady single-tenant stream into a miss+evict cycle that
    // constructs a Context per request. With it, every acquire after
    // the first is a hit and construction happens exactly once.
    const auto p = miniParams();
    KeyStore store;
    store.addKey("solo", makeKeyPair(p, 9));
    const uint64_t built_before = sphincs::Context::constructionCount();

    ContextCache cache(0);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_NE(cache.acquire(store.find("solo")), nullptr);

    auto st = cache.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 31u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.size, 1u);
    EXPECT_EQ(sphincs::Context::constructionCount() - built_before,
              1u);
}

TEST(ContextCache, ConcurrentAcquireIsRaceFreeAndConsistent)
{
    // Capacity 1 with two hot keys forces constant eviction and
    // rebuilding, so concurrent acquirers exercise the
    // build-outside-the-lock path and the second-insert adoption
    // race — the paths the TSan CI job exists to watch.
    const auto p = miniParams();
    KeyStore store;
    store.addKey("a", makeKeyPair(p, 1));
    store.addKey("b", makeKeyPair(p, 2));
    ContextCache cache(1);

    constexpr unsigned kThreads = 4;
    constexpr unsigned kIters = 64;
    std::vector<std::thread> threads;
    std::atomic<unsigned> mismatches{0};
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kIters; ++i) {
                const std::string id = (t + i) % 2 ? "a" : "b";
                auto warm = cache.acquire(store.find(id));
                if (warm->key->id != id)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(mismatches.load(), 0u);
    auto st = cache.stats();
    EXPECT_EQ(st.hits + st.misses, kThreads * kIters);
    EXPECT_GE(st.misses, 2u);
    EXPECT_LE(st.size, 1u);
}

TEST(ContextCache, KeyRotationInvalidatesStaleEntry)
{
    const auto p = miniParams();
    KeyStore store;
    store.addKey("rot", makeKeyPair(p, 1));
    ContextCache cache(4);

    auto old_warm = cache.acquire(store.find("rot"));

    // Rotate: remove and re-register the same id with a new key.
    ASSERT_TRUE(store.remove("rot"));
    auto new_kp = makeKeyPair(p, 0x55);
    store.addKey("rot", new_kp);

    auto new_warm = cache.acquire(store.find("rot"));
    EXPECT_NE(new_warm.get(), old_warm.get());
    EXPECT_EQ(new_warm->key->pk.pkRoot, new_kp.pk.pkRoot);

    // The rotated context signs with the NEW key.
    ByteVec msg = batchtest::patternMsg(20);
    SphincsPlus scheme(p);
    EXPECT_EQ(new_warm->scheme.sign(new_warm->ctx, msg,
                                    new_warm->key->sk),
              scheme.sign(msg, new_kp.sk));

    auto st = cache.stats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.evictions, 1u); // the stale entry
    EXPECT_EQ(st.size, 1u);
}

TEST(ContextCache, VerifyOnlyKeysGetVerifyContexts)
{
    const auto p = miniParams();
    KeyStore store;
    auto kp = makeKeyPair(p, 3);
    store.addVerifyKey("v", kp.pk);

    ContextCache cache(2);
    auto w = cache.acquire(store.find("v"));
    EXPECT_FALSE(w->ctx.canSign());

    SphincsPlus scheme(p);
    ByteVec msg = batchtest::patternMsg(16);
    ByteVec sig = scheme.sign(msg, kp.sk);
    EXPECT_TRUE(w->scheme.verify(w->ctx, msg, sig, w->key->pk));
}
