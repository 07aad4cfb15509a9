/**
 * @file
 * SPHINCS+ spec oracle: a transcription of the SPHINCS+ r3.1
 * pseudo-code (sha256-simple) that the production signer in
 * src/sphincs is tested against.
 *
 * It is written for clarity, not speed, and shares no code with the
 * signer beyond the primitives it must trust: the one-stream Sha256,
 * HmacSha256 and mgf1Sha256, the Params struct (only its raw n, h, d,
 * a, k, w fields; every derived size is computed here), the Address
 * setters and common/. Chains are walked one by one, FORS trees are
 * built one at a time and every Merkle tree through a recursive
 * treehash. A bookkeeping bug in the signer (an address field, a
 * chain length, an auth-path index) therefore shows up as a byte
 * mismatch against this file instead of being reproduced by it. The
 * oracle_independence CTest entry keeps the include list to those
 * primitives.
 *
 * Where this repository's instantiation departs from the spec text,
 * the oracle follows the repository (the golden vectors in
 * tests/sphincs decide):
 *  - SHA-256 serves every function at every security level; r3.1 and
 *    FIPS 205 use SHA-512 for H_msg, PRF_msg, H and T_l at 192f/256f.
 *  - FORS indices are read from md MSB first (FIPS 205's base_2b
 *    order); the r3.1 reference code reads them LSB first.
 *  - The WOTS+ checksum shift carries the reference code's outer
 *    "% 8"; it matches the spec text whenever len_2 * lg(w) is not a
 *    multiple of 8, which holds for every n >= 9 at w = 16.
 *  - "The first b bits" of idx_tree / idx_leaf are the big-endian
 *    value of their bytes reduced mod 2^b, as in the reference code.
 */

#ifndef HEROSIGN_TESTS_ORACLE_SPX_ORACLE_HH
#define HEROSIGN_TESTS_ORACLE_SPX_ORACLE_HH

#include "common/bytes.hh"
#include "hash/sha256.hh"
#include "sphincs/address.hh"
#include "sphincs/params.hh"

namespace herosign::oracle
{

/** The spec's algorithms over one parameter set and one seed pair. */
class SpxOracle
{
  public:
    /**
     * @param pk_seed PK.seed (n bytes)
     * @param sk_seed SK.seed (n bytes; empty for verification only)
     */
    SpxOracle(const sphincs::Params &params, ByteSpan pk_seed,
              ByteSpan sk_seed = {});

    /** len = len_1 + len_2 WOTS+ chains. */
    unsigned len() const { return len1_ + len2_; }

    /** n + k(a+1)n + d(len + h/d)n signature bytes. */
    size_t sigBytes() const;

    /** spx_keygen's PK.root: ht_PKgen, the top layer's tree 0 root. */
    ByteVec pkRoot() const;

    /**
     * spx_sign (Alg. 20). An empty @p opt_rand signs
     * deterministically (opt = PK.seed).
     */
    ByteVec sign(ByteSpan msg, ByteSpan sk_prf, ByteSpan pk_root,
                 ByteSpan opt_rand = {}) const;

    /** spx_verify (Alg. 21); a wrong-length signature is rejected. */
    bool verify(ByteSpan msg, ByteSpan sig, ByteSpan pk_root) const;

    // The component algorithms, for tests of one layer. ADRS is taken
    // by value and set up by the callee exactly as the spec's caller
    // would leave it.

    /**
     * chain (Alg. 2): F applied @p s times to @p x from position @p i.
     * @p adrs is WOTS_HASH-typed with layer, tree, keypair and chain
     * set; its hash field is left at the last position hashed.
     */
    ByteVec chain(ByteVec x, uint32_t i, uint32_t s,
                  sphincs::Address &adrs) const;

    /** wots_PKgen (Alg. 4); @p adrs has layer, tree and keypair. */
    ByteVec wotsPkGen(sphincs::Address adrs) const;

    /** wots_sign (Alg. 5) of the n-byte message @p m. */
    ByteVec wotsSign(ByteSpan m, sphincs::Address adrs) const;

    /** wots_pkFromSig (Alg. 6). */
    ByteVec wotsPkFromSig(ByteSpan sig, ByteSpan m,
                          sphincs::Address adrs) const;

    /**
     * treehash (Alg. 7): the node of height @p z whose leftmost leaf
     * is @p s, in the subtree @p adrs names (layer and tree set).
     */
    ByteVec treehash(uint32_t s, unsigned z, sphincs::Address adrs) const;

    /** xmss_sign (Alg. 9): WOTS+ signature || authentication path. */
    ByteVec xmssSign(ByteSpan m, uint32_t idx,
                     sphincs::Address adrs) const;

    /** xmss_pkFromSig (Alg. 10): the subtree root. */
    ByteVec xmssPkFromSig(uint32_t idx, ByteSpan sig_xmss, ByteSpan m,
                          sphincs::Address adrs) const;

    /**
     * fors_sign (Alg. 16) of the ceil(k*a/8)-byte @p md; @p adrs is
     * FORS_TREE-typed with layer, tree and keypair set.
     */
    ByteVec forsSign(ByteSpan md, sphincs::Address adrs) const;

    /** fors_pkFromSig (Alg. 17): the FORS public key. */
    ByteVec forsPkFromSig(ByteSpan sig_fors, ByteSpan md,
                          sphincs::Address adrs) const;

  private:
    struct DigestFields
    {
        ByteSpan md;
        uint64_t idxTree;
        uint32_t idxLeaf;
    };

    ByteVec thash(const sphincs::Address &adrs, ByteSpan m) const;
    ByteVec prf(const sphincs::Address &adrs) const;
    void chainLengths(uint32_t *msg, ByteSpan m) const;
    ByteVec forsSkGen(sphincs::Address adrs, uint32_t idx) const;
    ByteVec forsTreehash(uint32_t s, unsigned z,
                         sphincs::Address adrs) const;
    uint32_t forsIndex(ByteSpan md, unsigned i) const;
    ByteVec hashMessage(ByteSpan r, ByteSpan pk_root, ByteSpan msg) const;
    DigestFields splitDigest(const ByteVec &digest) const;

    unsigned n_, h_, d_, hp_, a_, k_, w_;
    unsigned lgW_, len1_, len2_;
    ByteVec pkSeed_;
    ByteVec skSeed_;
    Sha256State padded_; ///< SHA-256 state after BlockPad(PK.seed)
};

} // namespace herosign::oracle

#endif // HEROSIGN_TESTS_ORACLE_SPX_ORACLE_HH
