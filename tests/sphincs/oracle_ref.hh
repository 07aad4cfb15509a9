/**
 * @file
 * Adapters from the signer's key types to the spec oracle
 * (tests/oracle), so a byte-identity test states its reference in one
 * call. The oracle itself never sees sphincs/sphincs.hh.
 */

#ifndef HEROSIGN_TESTS_SPHINCS_ORACLE_REF_HH
#define HEROSIGN_TESTS_SPHINCS_ORACLE_REF_HH

#include "oracle/spx_oracle.hh"
#include "sphincs/sphincs.hh"

namespace herosign::oracle
{

/** The oracle's signature of @p msg under @p sk. */
inline ByteVec
oracleSign(const sphincs::SecretKey &sk, ByteSpan msg,
           ByteSpan opt_rand = {})
{
    return SpxOracle(sk.params, sk.pkSeed, sk.skSeed)
        .sign(msg, sk.skPrf, sk.pkRoot, opt_rand);
}

/** The oracle's verdict on (@p msg, @p sig) under @p pk. */
inline bool
oracleVerify(const sphincs::PublicKey &pk, ByteSpan msg, ByteSpan sig)
{
    return SpxOracle(pk.params, pk.pkSeed).verify(msg, sig, pk.pkRoot);
}

/** The oracle's PK.root for the secret seeds of @p sk. */
inline ByteVec
oraclePkRoot(const sphincs::SecretKey &sk)
{
    return SpxOracle(sk.params, sk.pkSeed, sk.skSeed).pkRoot();
}

} // namespace herosign::oracle

#endif // HEROSIGN_TESTS_SPHINCS_ORACLE_REF_HH
