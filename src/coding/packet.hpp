#pragma once
// Coded packets as defined by practical network coding (Chou, Wu, Jain [5]):
// each packet carries, in-band, the coefficient vector that expresses its
// payload as a linear combination of the generation's original packets. This
// makes packets self-describing — decodable and recodable even as topology
// changes and nodes fail, which is exactly the property the overlay relies on.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ncast::coding {

/// The placement rule of a coefficient strip: entry `j` of a strip placed at
/// `offset` multiplies source packet (offset + j) mod g. Requires offset < g
/// and j < g, so one conditional subtraction is the whole modulus.
constexpr std::size_t cyclic_index(std::size_t offset, std::size_t j,
                                   std::size_t g) {
  const std::size_t i = offset + j;
  return i < g ? i : i - g;
}

/// One coded packet of a generation. Under the dense structure
/// `coeffs.size()` equals the generation size g and `band_offset`/`class_id`
/// stay 0; under banded/overlapped structures (coding/structure.hpp) the
/// coefficients are a compact strip of band_offset's band or class_id's
/// class, and `coeffs[j]` multiplies source packet
/// `cyclic_index(band_offset, j, g)`. `payload.size()` is the number of field
/// symbols per packet in every case.
template <typename Field>
struct CodedPacket {
  using value_type = typename Field::value_type;

  std::uint32_t generation = 0;
  std::uint16_t band_offset = 0;  ///< first source index the coeffs cover
  std::uint16_t class_id = 0;     ///< overlapped structures: emitting class
  std::vector<value_type> coeffs;
  std::vector<value_type> payload;

  /// True if the coefficient vector is all-zero (carries no information).
  bool is_degenerate() const {
    for (const auto c : coeffs) {
      if (c != value_type{0}) return false;
    }
    return true;
  }

  /// Wire size in bytes: header + coefficients + payload.
  std::size_t wire_size() const {
    return sizeof(generation) +
           (coeffs.size() + payload.size()) * sizeof(value_type);
  }
};

}  // namespace ncast::coding
