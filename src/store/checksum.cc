#include "store/checksum.h"

#include <array>
#include <bit>
#include <cstring>

namespace pivotscale {

namespace {

// Reflected ECMA-182 polynomial (CRC-64/XZ).
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;

// Slicing-by-8 tables: tables[0] is the bytewise table, and tables[k][b]
// is the crc of byte b followed by k zero bytes, so eight table lookups
// fold eight input bytes at once. 16 KiB in all.
using Tables = std::array<std::array<std::uint64_t, 256>, 8>;

Tables BuildTables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^
                     tables[0][tables[k - 1][i] & 0xFF];
  return tables;
}

const Tables& TheTables() {
  static const Tables tables = BuildTables();
  return tables;
}

}  // namespace

std::uint64_t Crc64Init() { return ~0ull; }

std::uint64_t Crc64Update(std::uint64_t state, const void* bytes,
                          std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  const Tables& t = TheTables();
  if constexpr (std::endian::native == std::endian::little) {
    // The reflected crc consumes bytes low-order first, as a little-endian
    // load lays them out.
    for (; size >= 8; p += 8, size -= 8) {
      std::uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      state ^= word;
      state = t[7][state & 0xFF] ^ t[6][(state >> 8) & 0xFF] ^
              t[5][(state >> 16) & 0xFF] ^ t[4][(state >> 24) & 0xFF] ^
              t[3][(state >> 32) & 0xFF] ^ t[2][(state >> 40) & 0xFF] ^
              t[1][(state >> 48) & 0xFF] ^ t[0][state >> 56];
    }
  }
  for (; size > 0; ++p, --size)
    state = (state >> 8) ^ t[0][(state ^ *p) & 0xFF];
  return state;
}

std::uint64_t Crc64Final(std::uint64_t state) { return ~state; }

std::uint64_t Crc64(const void* bytes, std::size_t size) {
  return Crc64Final(Crc64Update(Crc64Init(), bytes, size));
}

}  // namespace pivotscale
