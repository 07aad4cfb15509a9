/**
 * @file
 * SPHINCS+ top level: key generation, signing and verification. There
 * is one path per direction: sign() is a SignTask::signGroup() of one
 * (sphincs/sign_task.hh), verify() is verifyBatch() over one
 * signature. The reference both are tested against is the spec oracle
 * in tests/oracle, which shares no code with them.
 */

#ifndef HEROSIGN_SPHINCS_SPHINCS_HH
#define HEROSIGN_SPHINCS_SPHINCS_HH

#include <optional>

#include "common/bytes.hh"
#include "common/random.hh"
#include "sphincs/context.hh"
#include "sphincs/params.hh"

namespace herosign::sphincs
{

/** A SPHINCS+ secret key (sk_seed, sk_prf, pk_seed, pk_root). */
struct SecretKey
{
    Params params;
    ByteVec skSeed;
    ByteVec skPrf;
    ByteVec pkSeed;
    ByteVec pkRoot;

    /** Serialize as sk_seed || sk_prf || pk_seed || pk_root. */
    ByteVec encode() const;

    /** Parse from the serialized form. */
    static SecretKey decode(const Params &params, ByteSpan bytes);

    /**
     * Securely zeroize the secret seeds (sk_seed, sk_prf) in place.
     * The single definition of which fields are secret — every owner
     * releasing a key copy must call this, not hand-roll the list.
     */
    void zeroize();
};

/** A SPHINCS+ public key (pk_seed, pk_root). */
struct PublicKey
{
    Params params;
    ByteVec pkSeed;
    ByteVec pkRoot;

    /** Serialize as pk_seed || pk_root. */
    ByteVec encode() const;

    /** Parse from the serialized form. */
    static PublicKey decode(const Params &params, ByteSpan bytes);
};

/** A generated keypair. */
struct KeyPair
{
    SecretKey sk;
    PublicKey pk;
};

/**
 * The (idx_tree, idx_leaf, fors message) selection extracted from the
 * H_msg digest (spec Alg. 20 lines 7-12).
 */
struct DigestSplit
{
    ByteVec forsMsg;    ///< ceil(k*a/8) bytes feeding FORS
    uint64_t idxTree;   ///< which bottom-layer subtree chain
    uint32_t idxLeaf;   ///< leaf within the bottom subtree
};

/** Split an H_msg digest into its three fields. */
DigestSplit splitDigest(const Params &params, ByteSpan digest);

/**
 * The SPHINCS+ signature scheme over one parameter set.
 *
 * All methods are deterministic given their inputs; randomized signing
 * is obtained by passing fresh opt_rand.
 */
class SphincsPlus
{
  public:
    explicit SphincsPlus(const Params &params);

    const Params &params() const { return params_; }

    /** Generate a keypair from an RNG (draws 3n seed bytes). */
    KeyPair keygen(Rng &rng) const;

    /**
     * Generate a keypair from a fixed 3n-byte seed
     * (sk_seed || sk_prf || pk_seed) — deterministic, for tests.
     */
    KeyPair keygenFromSeed(ByteSpan seed) const;

    /**
     * Sign @p msg.
     * @param opt_rand n bytes of signing randomness; empty selects the
     *        deterministic variant (opt_rand = pk_seed).
     * @return the sigBytes()-long signature
     */
    ByteVec sign(ByteSpan msg, const SecretKey &sk,
                 ByteSpan opt_rand = {}) const;

    /**
     * Sign @p msg reusing a warm context: SignTask::signGroup() with
     * count 1. @p ctx must carry this scheme's parameter shape and be
     * built for @p sk (same pk_seed and sk_seed) — checked, throws
     * std::invalid_argument on mismatch. No per-sign Context
     * construction.
     */
    ByteVec sign(const Context &ctx, ByteSpan msg, const SecretKey &sk,
                 ByteSpan opt_rand = {}) const;

    /** Verify @p sig over @p msg under @p pk. */
    bool verify(ByteSpan msg, ByteSpan sig, const PublicKey &pk) const;

    /**
     * Verify reusing a warm context: verifyBatch() with count 1.
     * @p ctx must carry this scheme's parameter shape and the public
     * key's pk_seed (a signing context for the same keypair works) —
     * checked, throws std::invalid_argument on mismatch.
     */
    bool verify(const Context &ctx, ByteSpan msg, ByteSpan sig,
                const PublicKey &pk) const;

    /**
     * Batched verification, the only verifier: ok[i] is true when
     * sigs[i] is a valid signature of msgs[i] under @p pk, for
     * i < count. A signature of the wrong length is rejected up
     * front. The hot loops (WOTS+ chain recompute, FORS leaf and
     * auth-path walks, Merkle root reconstruction) advance across
     * signatures in hash lanes of the dispatched width (16 on
     * AVX-512, 8 elsewhere); partial lane groups run narrower kernels
     * with the same digests, so verdicts do not depend on the width
     * or on which signatures share a group.
     */
    void verifyBatch(const ByteSpan msgs[], const ByteSpan sigs[],
                     const PublicKey &pk, bool ok[], size_t count) const;

    /** Batched verification reusing a warm context, checked as verify(ctx). */
    void verifyBatch(const Context &ctx, const ByteSpan msgs[],
                     const ByteSpan sigs[], const PublicKey &pk,
                     bool ok[], size_t count) const;

    /**
     * Compute the hypertree root for a secret key (keygen internal):
     * the top layer's tree 0, built by xmssTreehash().
     */
    ByteVec computePkRoot(ByteSpan sk_seed, ByteSpan pk_seed) const;

  private:
    Params params_;
};

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_SPHINCS_HH
