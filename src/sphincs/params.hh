/**
 * @file
 * SPHINCS+ parameter sets (paper Table I) and every derived size the
 * rest of the library needs. Parameters are a runtime value so one
 * code path serves 128f/192f/256f and arbitrary custom sets.
 */

#ifndef HEROSIGN_SPHINCS_PARAMS_HH
#define HEROSIGN_SPHINCS_PARAMS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace herosign::sphincs
{

/** Hard bounds used for fixed-size scratch buffers. */
constexpr unsigned maxN = 32;
constexpr unsigned maxWotsLen = 67;
constexpr unsigned maxForsHeight = 16;
constexpr unsigned maxTreeHeight = 16;

/**
 * A SPHINCS+ parameter set. Field names follow the spec / paper
 * Table I: n (hash bytes), h (hypertree height), d (layers),
 * a = log2(t) (FORS tree height), k (FORS tree count), w (Winternitz
 * parameter, always 16 here → lgW = 4).
 */
struct Params
{
    std::string name;
    unsigned n;
    unsigned fullHeight;  ///< h
    unsigned layers;      ///< d
    unsigned forsHeight;  ///< a = log2(t)
    unsigned forsTrees;   ///< k
    unsigned wotsW;       ///< w

    /** Height of each hypertree subtree: h / d. */
    unsigned treeHeight() const { return fullHeight / layers; }

    /** Leaves per hypertree subtree: 2^(h/d). */
    uint32_t treeLeaves() const { return 1u << treeHeight(); }

    /** Leaves per FORS tree: t = 2^a. */
    uint32_t forsLeaves() const { return 1u << forsHeight; }

    /** Total FORS leaves across all k trees (paper §III-B1). */
    uint64_t forsTotalLeaves() const
    {
        return static_cast<uint64_t>(forsTrees) * forsLeaves();
    }

    /** log2(w); 4 for w = 16. */
    unsigned lgW() const;

    /** WOTS+ message chains: len1 = ceil(8n / lg w). */
    unsigned wotsLen1() const;

    /** WOTS+ checksum chains: len2. */
    unsigned wotsLen2() const;

    /** Total WOTS+ chains: len = len1 + len2. */
    unsigned wotsLen() const { return wotsLen1() + wotsLen2(); }

    /** Bytes of the FORS part of the message digest: ceil(k*a / 8). */
    size_t forsMsgBytes() const { return (forsTrees * forsHeight + 7) / 8; }

    /** Bits selecting the hypertree leaf within its subtree: h/d. */
    unsigned leafBits() const { return treeHeight(); }

    /** Bits selecting the subtree chain: h - h/d. */
    unsigned treeBits() const { return fullHeight - treeHeight(); }

    /** Message digest length m (spec: md + idx_tree + idx_leaf). */
    size_t msgDigestBytes() const;

    /** WOTS+ signature bytes: len * n. */
    size_t wotsSigBytes() const { return wotsLen() * n; }

    /** FORS signature bytes: k * (n + a*n). */
    size_t forsSigBytes() const
    {
        return static_cast<size_t>(forsTrees) * (forsHeight + 1) * n;
    }

    /** One hypertree layer's signature bytes: WOTS sig + auth path. */
    size_t xmssSigBytes() const
    {
        return wotsSigBytes() + static_cast<size_t>(treeHeight()) * n;
    }

    /** Full signature bytes: R + FORS + d XMSS layers. */
    size_t sigBytes() const
    {
        return n + forsSigBytes() + layers * xmssSigBytes();
    }

    /** Public key bytes: pk_seed + pk_root. */
    size_t pkBytes() const { return 2 * static_cast<size_t>(n); }

    /** Secret key bytes: sk_seed + sk_prf + pk_seed + pk_root. */
    size_t skBytes() const { return 4 * static_cast<size_t>(n); }

    /**
     * SHA-2 compressions inside one wots_gen_leaf call: len chains x
     * (1 PRF + (w-1) chain steps) = len * w. Matches the paper's 560 /
     * 816 / 1072 counts for 128f/192f/256f (§III intro).
     */
    uint64_t hashesPerWotsLeaf() const
    {
        return static_cast<uint64_t>(wotsLen()) * wotsW;
    }

    /** Validate internal consistency; throws std::invalid_argument. */
    void validate() const;

    /** Same n, h, d, a, k and w as @p o; the name is ignored. */
    bool sameShape(const Params &o) const
    {
        return n == o.n && fullHeight == o.fullHeight &&
               layers == o.layers && forsHeight == o.forsHeight &&
               forsTrees == o.forsTrees && wotsW == o.wotsW;
    }

    /** The three -f parameter sets of the paper (Table I). */
    static const Params &sphincs128f();
    static const Params &sphincs192f();
    static const Params &sphincs256f();

    /** All paper parameter sets in ascending security order. */
    static const std::vector<Params> &all();

    /** Look up a set by name ("128f", "SPHINCS+-128f", ...). */
    static const Params &byName(const std::string &name);
};

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_PARAMS_HH
