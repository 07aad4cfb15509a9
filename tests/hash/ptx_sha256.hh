/**
 * @file
 * One-shot SHA-256 over the PTX-branch emulation: FIPS 180-4 padding
 * (0x80, zeros, the 64-bit big-endian bit length) fed block by block
 * to sha256CompressPtx. The library hashes with the native
 * compression only, so the KAT and equivalence suites reach the
 * emulation through this helper.
 */

#ifndef HEROSIGN_TESTS_HASH_PTX_SHA256_HH
#define HEROSIGN_TESTS_HASH_PTX_SHA256_HH

#include <array>
#include <string>

#include "common/hex.hh"
#include "hash/sha256.hh"

namespace herosign
{

inline std::string
ptxSha256Hex(ByteSpan data)
{
    ByteVec msg(data.begin(), data.end());
    msg.push_back(0x80);
    while (msg.size() % Sha256::blockSize != Sha256::blockSize - 8)
        msg.push_back(0);
    msg.resize(msg.size() + 8);
    storeBe64(msg.data() + msg.size() - 8,
              static_cast<uint64_t>(data.size()) * 8);

    std::array<uint32_t, 8> h = Sha256().midState().h; // FIPS IV
    for (size_t off = 0; off < msg.size(); off += Sha256::blockSize)
        sha256CompressPtx(h, msg.data() + off);
    uint8_t out[Sha256::digestSize];
    for (int i = 0; i < 8; ++i)
        storeBe32(out + 4 * i, h[i]);
    return hexEncode(ByteSpan(out, sizeof(out)));
}

} // namespace herosign

#endif // HEROSIGN_TESTS_HASH_PTX_SHA256_HH
