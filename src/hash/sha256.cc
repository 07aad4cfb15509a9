#include "hash/sha256.hh"

#include <stdexcept>

#include "hash/sha256_tables.hh"

namespace herosign
{

namespace
{

thread_local uint64_t compression_count = 0;

using sha256tables::initState;
using sha256tables::K;

inline uint32_t
rotr(uint32_t x, unsigned n)
{
    return (x >> n) | (x << (32 - n));
}

} // namespace

void
sha256CompressNative(std::array<uint32_t, 8> &state, const uint8_t *block)
{
    uint32_t w[64];
    // Big-endian loads implemented with shifts, as plain C would be.
    for (int i = 0; i < 16; ++i)
        w[i] = loadBe32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
        uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                      (w[i - 15] >> 3);
        uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                      (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
        uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        uint32_t ch = (e & f) ^ (~e & g);
        uint32_t t1 = h + s1 + ch + K[i] + w[i];
        uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

Sha256::Sha256() : h_(initState), bufLen_(0), total_(0) {}

Sha256::Sha256(const Sha256State &state)
    : h_(state.h), bufLen_(0), total_(state.bytesCompressed)
{
    if (state.bytesCompressed % blockSize != 0)
        throw std::logic_error("Sha256: mid-state not block aligned");
}

void
Sha256::update(ByteSpan data)
{
    if (data.empty())
        return;
    size_t off = 0;
    total_ += data.size();
    if (bufLen_ > 0) {
        size_t take = std::min(blockSize - bufLen_, data.size());
        std::memcpy(buf_ + bufLen_, data.data(), take);
        bufLen_ += take;
        off += take;
        if (bufLen_ == blockSize) {
            compress(buf_);
            bufLen_ = 0;
        }
    }
    while (off + blockSize <= data.size()) {
        compress(data.data() + off);
        off += blockSize;
    }
    if (off < data.size()) {
        std::memcpy(buf_, data.data() + off, data.size() - off);
        bufLen_ = data.size() - off;
    }
}

Sha256State
Sha256::midState() const
{
    if (bufLen_ != 0)
        throw std::logic_error("Sha256: mid-state with buffered bytes");
    return Sha256State{h_, total_};
}

void
Sha256::final(uint8_t *out)
{
    // Padding written in place: 0x80, zeros to 56 mod 64, then the
    // 64-bit bit length (one extra block when fewer than 9 bytes are
    // left in the buffered one).
    size_t r = bufLen_;
    buf_[r++] = 0x80;
    if (r > blockSize - 8) {
        std::memset(buf_ + r, 0, blockSize - r);
        compress(buf_);
        r = 0;
    }
    std::memset(buf_ + r, 0, blockSize - 8 - r);
    storeBe64(buf_ + blockSize - 8, total_ * 8);
    compress(buf_);
    bufLen_ = 0;
    for (int i = 0; i < 8; ++i)
        storeBe32(out + 4 * i, h_[i]);
}

std::array<uint8_t, Sha256::digestSize>
Sha256::digest(ByteSpan data)
{
    Sha256 ctx;
    ctx.update(data);
    std::array<uint8_t, digestSize> out;
    ctx.final(out.data());
    return out;
}

void
Sha256::compress(const uint8_t *block)
{
    ++compression_count;
    sha256CompressNative(h_, block);
}

uint64_t
Sha256::compressionCount()
{
    return compression_count;
}

void
Sha256::resetCompressionCount()
{
    compression_count = 0;
}

void
Sha256::addCompressions(uint64_t count)
{
    compression_count += count;
}

} // namespace herosign
