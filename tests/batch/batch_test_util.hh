/**
 * @file
 * Shared fixtures for the batch, service and signer test suites: the
 * cheap "mini" parameter set (full SPHINCS+ semantics, small trees —
 * many signatures per second even under sanitizers), deterministic
 * seed/message builders matching the engine cross-check idiom, a
 * lane-width pin, and request builders for the services' submit().
 */

#ifndef HEROSIGN_TESTS_BATCH_BATCH_TEST_UTIL_HH
#define HEROSIGN_TESTS_BATCH_BATCH_TEST_UTIL_HH

#include <numeric>
#include <vector>

#include "batch/sign_request.hh"
#include "common/bytes.hh"
#include "hash/sha256xN.hh"
#include "sphincs/params.hh"

namespace herosign::batchtest
{

/** A cheap custom set for tests that need many signatures. */
inline sphincs::Params
miniParams(const std::string &name = "mini-batch")
{
    sphincs::Params p;
    p.name = name;
    p.n = 16;
    p.fullHeight = 6;
    p.layers = 3;
    p.forsHeight = 4;
    p.forsTrees = 8;
    p.wotsW = 16;
    return p;
}

/** The fixed 3n keygen seed used across the byte-match suites. */
inline ByteVec
fixedSeed(const sphincs::Params &p, uint8_t first = 0)
{
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), first);
    return seed;
}

/** Deterministic message bytes, salted so batches differ per index. */
inline ByteVec
patternMsg(size_t len, uint8_t salt = 0)
{
    ByteVec msg(len);
    for (size_t i = 0; i < len; ++i)
        msg[i] = static_cast<uint8_t>(salt + 0x37 + 11 * i);
    return msg;
}

/** A batch of distinct deterministic messages. */
inline std::vector<ByteVec>
patternBatch(unsigned count, size_t len = 40)
{
    std::vector<ByteVec> msgs;
    msgs.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        msgs.push_back(patternMsg(len, static_cast<uint8_t>(i)));
    return msgs;
}

/** Pin the lane engine to one width for a scope (1 = portable). */
class ScopedWidth
{
  public:
    explicit ScopedWidth(unsigned width)
    {
        sha256LanesForceScalar(width == 1);
        sha256LanesDisableAvx512(width == 8);
    }
    ~ScopedWidth()
    {
        sha256LanesForceScalar(false);
        sha256LanesDisableAvx512(false);
    }
};

/** A signing request with no callback and no deadline. */
inline batch::SignRequest
signReq(ByteVec msg, ByteVec opt_rand = {})
{
    return {std::move(msg), std::move(opt_rand), {}, {}};
}

/** A verification request with no deadline. */
inline batch::VerifyRequest
verifyReq(ByteVec msg, ByteVec sig)
{
    return {std::move(msg), std::move(sig), {}};
}

} // namespace herosign::batchtest

#endif // HEROSIGN_TESTS_BATCH_BATCH_TEST_UTIL_HH
