/**
 * @file
 * Quickstart: generate a SPHINCS+-128f keypair, sign a message with
 * the HERO-Sign engine on a simulated RTX 4090, cross-check against
 * the CPU signer (SphincsPlus::sign), and verify.
 *
 *   $ ./quickstart [message]
 */

#include <chrono>
#include <iostream>
#include <string>

#include "common/hex.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using core::EngineConfig;
using core::SignEngine;
using sphincs::Params;
using sphincs::SphincsPlus;

int
main(int argc, char **argv)
{
    const std::string text =
        argc > 1 ? argv[1] : "hello, post-quantum world";
    ByteVec msg(text.begin(), text.end());

    const Params &params = Params::sphincs128f();
    std::cout << "Parameter set: " << params.name << "\n"
              << "  signature bytes: " << params.sigBytes() << "\n"
              << "  public key bytes: " << params.pkBytes() << "\n";

    // 1. Key generation on the CPU (keys are shared objects).
    SphincsPlus scheme(params);
    Rng rng = Rng::fromOs();
    auto t0 = std::chrono::steady_clock::now();
    auto kp = scheme.keygen(rng);
    auto t1 = std::chrono::steady_clock::now();
    std::cout << "keygen: "
              << std::chrono::duration<double, std::milli>(t1 - t0)
                     .count()
              << " ms\n";

    // 2. Sign through the simulated GPU engine.
    SignEngine engine(params, gpu::DeviceProps::rtx4090(),
                      EngineConfig::hero());
    t0 = std::chrono::steady_clock::now();
    auto outcome = engine.sign(msg, kp.sk);
    t1 = std::chrono::steady_clock::now();
    std::cout << "HERO-Sign (functional simulation): "
              << std::chrono::duration<double, std::milli>(t1 - t0)
                     .count()
              << " ms host time\n";

    // 3. Cross-check against the CPU signer.
    ByteVec ref = scheme.sign(msg, kp.sk);
    std::cout << "matches the CPU signer: "
              << (outcome.signature == ref ? "yes" : "NO") << "\n";

    // 4. Verify.
    bool ok = scheme.verify(msg, outcome.signature, kp.pk);
    std::cout << "verifies: " << (ok ? "yes" : "NO") << "\n";

    // 5. Simulated device throughput for a batch.
    auto batch = engine.signBatchTiming(1024);
    std::cout << "simulated RTX 4090 batch throughput: "
              << batch.kops << " KOPS (1024 messages in "
              << batch.makespanUs / 1000.0 << " ms)\n";

    std::cout << "signature head: "
              << hexEncode(ByteSpan(outcome.signature.data(), 16))
              << "...\n";
    return ok && outcome.signature == ref ? 0 : 1;
}
