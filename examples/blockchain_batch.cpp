/**
 * @file
 * Blockchain-style multi-tenant serving: N validators (tenants) sign
 * a block's worth of transactions through one SignService — requests
 * route through the warm per-key context cache, so no Context is
 * constructed per signature — and the full block then verifies
 * through the batched lane-parallel VerifyService, which shares the
 * same warm contexts and stats registry. This is the high-throughput
 * scenario of the paper's introduction, extended to the serving layer
 * the ROADMAP targets.
 *
 *   $ ./blockchain_batch [num_transactions] [workers] [tenants]
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/engine.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using core::EngineConfig;
using core::SignEngine;
using service::KeyStore;
using service::ServiceConfig;
using service::SignService;
using service::VerifyService;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

/** A toy transaction: payer, payee, amount, nonce. */
struct Transaction
{
    uint64_t payer, payee, amount, nonce;

    ByteVec
    serialize() const
    {
        ByteVec out(32);
        storeBe64(out.data(), payer);
        storeBe64(out.data() + 8, payee);
        storeBe64(out.data() + 16, amount);
        storeBe64(out.data() + 24, nonce);
        return out;
    }
};

std::string
tenantId(unsigned i)
{
    return std::string("validator-").append(std::to_string(i));
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned count =
        argc > 1 ? static_cast<unsigned>(std::stoul(argv[1])) : 64;
    const unsigned workers =
        argc > 2 ? static_cast<unsigned>(std::stoul(argv[2])) : 4;
    const unsigned tenants = std::max(
        1u,
        argc > 3 ? static_cast<unsigned>(std::stoul(argv[3])) : 4);

    const Params &params = Params::sphincs128f();
    SphincsPlus scheme(params);
    Rng rng(2026);

    // Every validator registers its keypair with the shared KeyStore.
    KeyStore store;
    for (unsigned t = 0; t < tenants; ++t)
        store.addKey(tenantId(t),
                     scheme.keygen(rng));

    ServiceConfig cfg;
    cfg.workers = workers == 0 ? 1 : workers;
    cfg.shards = cfg.workers;
    cfg.contextCacheCapacity = tenants;
    SignService sign_svc(store, cfg);
    // The verifier shares the signer's warm contexts, stats registry
    // and admission controller: one traffic fabric for both planes.
    VerifyService verify_svc(store, cfg, sign_svc.contextCache(),
                             sign_svc.statsRegistry(),
                             sign_svc.admission());

    // Build the transaction batch, round-robin across validators.
    std::vector<ByteVec> msgs;
    std::vector<std::string> signer_of;
    msgs.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        Transaction tx{rng.next(), rng.next(), rng.below(1'000'000),
                       i};
        msgs.push_back(tx.serialize());
        signer_of.push_back(tenantId(i % tenants));
    }

    // Mixed sign traffic through one service instance.
    std::vector<std::future<ByteVec>> futs;
    futs.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        futs.push_back(
            sign_svc.submit(signer_of[i], {msgs[i], {}, {}, {}}));
    std::vector<ByteVec> sigs;
    sigs.reserve(count);
    for (auto &f : futs)
        sigs.push_back(f.get());
    sign_svc.drain();
    auto sign_stats = sign_svc.stats();

    // The whole block verifies through the async verify plane: each
    // future resolves when a verify worker has coalesced queued
    // requests into lane-filling per-validator groups.
    std::vector<std::future<bool>> vfuts;
    vfuts.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        vfuts.push_back(
            verify_svc.submit(signer_of[i], {msgs[i], sigs[i], {}}));
    for (unsigned i = 0; i < count; ++i) {
        if (!vfuts[i].get()) {
            std::cerr << "tx " << i << ": verification FAILED\n";
            return 1;
        }
    }
    verify_svc.drain();
    auto verify_stats = verify_svc.stats();

    std::cout << "signed+verified " << count << " transactions from "
              << tenants << " validators on " << sign_svc.workers()
              << " workers\n"
              << "  sign: " << sign_stats.sigsPerSec << " sigs/s ("
              << sign_stats.wallUs / 1000.0 << " ms wall)\n"
              << "  warm contexts built: " << sign_stats.cache.misses
              << " (one per validator), cache hits: "
              << verify_stats.cache.hits << "\n"
              << "  verify rejects: " << verify_stats.verifyRejects
              << " of " << verify_stats.verifies << "\n";
    for (const auto &[id, ts] : sign_svc.stats().tenants) {
        std::cout << "    " << id << ": " << ts.signsCompleted
                  << " signs, " << ts.verifies << " verifies\n";
    }

    // The simulated timeline still answers the planning question the
    // paper poses: what would this batch cost on the target GPU?
    const auto dev = gpu::DeviceProps::rtx4090();
    SignEngine engine(params, dev, EngineConfig::hero());
    auto graph = engine.signBatchTiming(count);
    std::cout << "  simulated " << dev.name << " timeline: "
              << graph.makespanUs / 1000.0 << " ms makespan, "
              << graph.kops << " KOPS\n";

    // Block finalization budget check: a 400 ms block interval on
    // the simulated device.
    const double block_ms = 400.0;
    const double capacity = graph.kops * block_ms;
    std::cout << "  sustainable tx/block at " << block_ms
              << " ms interval: " << static_cast<uint64_t>(capacity)
              << " (simulated GPU)\n";
    return 0;
}
