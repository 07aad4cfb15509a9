#include "sphincs/context.hh"

#include <atomic>
#include <stdexcept>

#include "common/zeroize.hh"

namespace herosign::sphincs
{

namespace
{
std::atomic<uint64_t> constructions{0};
} // namespace

uint64_t
Context::constructionCount()
{
    return constructions.load(std::memory_order_relaxed);
}

Context::~Context()
{
    secureZero(skSeed_);
}

Context::Context(const Params &params, ByteSpan pk_seed, ByteSpan sk_seed)
    : params_(params), pkSeed_(pk_seed.begin(), pk_seed.end()),
      skSeed_(sk_seed.begin(), sk_seed.end())
{
    constructions.fetch_add(1, std::memory_order_relaxed);
    params_.validate();
    if (pkSeed_.size() != params_.n)
        throw std::invalid_argument("Context: pk_seed must be n bytes");
    if (!skSeed_.empty() && skSeed_.size() != params_.n)
        throw std::invalid_argument("Context: sk_seed must be n bytes");

    // Precompute SHA-256 state of the padded seed block
    // pk_seed || toByte(0, 64 - n): exactly one compression.
    uint8_t block[Sha256::blockSize] = {};
    std::memcpy(block, pkSeed_.data(), params_.n);
    Sha256 hasher;
    hasher.update(ByteSpan(block, sizeof(block)));
    seeded_ = hasher.midState();
}

} // namespace herosign::sphincs
