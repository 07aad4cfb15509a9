/**
 * @file
 * The recorded golden vectors of golden_sign_test and
 * spec_oracle_test: per Table I set, the pk_root of a keypair expanded
 * from a fixed seed and the SHA-256 of a deterministic and an
 * opt_rand signature over a fixed message.
 */

#ifndef HEROSIGN_TESTS_SPHINCS_GOLDEN_VECTORS_HH
#define HEROSIGN_TESTS_SPHINCS_GOLDEN_VECTORS_HH

#include <numeric>
#include <string>

#include "common/bytes.hh"
#include "common/hex.hh"
#include "hash/sha256.hh"
#include "sphincs/params.hh"

namespace herosign::golden
{

/** The fixed 3n-byte keygen seed: 0x00, 0x01, 0x02, ... */
inline ByteVec
fixedSeed(const sphincs::Params &p)
{
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), static_cast<uint8_t>(0));
    return seed;
}

/** The fixed message: "HERO-Sign golden vector" */
inline ByteVec
fixedMsg()
{
    const std::string s = "HERO-Sign golden vector";
    return ByteVec(s.begin(), s.end());
}

/** The opt_rand of the randomized vector: n bytes of 0xa5. */
inline ByteVec
fixedOptRand(const sphincs::Params &p)
{
    return ByteVec(p.n, 0xa5);
}

inline std::string
sigDigestHex(ByteSpan sig)
{
    auto d = Sha256::digest(sig);
    return hexEncode(ByteSpan(d.data(), d.size()));
}

struct GoldenVector
{
    const char *name;
    const char *pkRootHex;       ///< hex of the n-byte hypertree root
    const char *sigSha256Hex;    ///< SHA-256 of the deterministic signature
    const char *optSigSha256Hex; ///< ... of the opt_rand = 0xa5..a5 one
};

inline const GoldenVector goldens[] = {
    {"128f",
     "3b56e816847f000386aeec2e2bb9e1b5",
     "2c1897faeda4485400c4187eca7484d4a4598db6fc2d335f4f23edac9d306e41",
     "2d172e8ec2aad773b3965d2fb1b3e4d20370ed01dea1b96767a7ae8cf5f440d3"},
    {"192f",
     "5e9993b30299a80e2dde8460cfa1afad73908194f2666a7b",
     "969ffa0f8c9e0b0bf3dd920e9f734799dc4cdb3c2baae66ea2225f42cf3db415",
     "58efebda0f25dd290c7ec784d2890ffab7721e53c20a0a146f0a2209dfaf8c66"},
    {"256f",
     "6312b178d4b40c007f3a8937715e7763ce0e3ec5fe31b04fe5f5ce7e949873cb",
     "04ca4d4d95484e5a9e8d5b3f5d5aaf8ff954983c768687a2ec051d4b1cd881b3",
     "9ae4f561a7da3085d7df887a75df49557a4a41562f86fb842cc8df7ab262bb3b"},
};

/** gtest parameter name: "sphincs128f" etc. */
inline std::string
goldenName(const GoldenVector &g)
{
    return std::string("sphincs") + g.name;
}

} // namespace herosign::golden

#endif // HEROSIGN_TESTS_SPHINCS_GOLDEN_VECTORS_HH
