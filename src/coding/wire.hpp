#pragma once
// Wire format for coded packets. Practical network coding [5] requires the
// coefficient vector to travel inside the packet; this header defines the
// byte layout a real deployment would put on the wire:
//
// Version 1 (dense packets, coefficient count == g):
//
//   offset  size  field
//   0       2     magic 0x4E43 ("NC"), little-endian
//   2       1     version (1)
//   3       1     field id (1 = GF(2^8), 2 = GF(2^16))
//   4       4     generation id, little-endian
//   8       2     generation size g, little-endian
//   10      2     payload symbol count, little-endian
//   12      g*w   coefficients (w = symbol width in bytes)
//   12+g*w  s*w   payload
//
// Version 2 (structured packets, coding/structure.hpp): same first 12 bytes
// with version = 2, then a structure block, then a *compact* coefficient
// strip of `n` entries covering source packets (band_offset + j) mod g:
//
//   12      1     structure kind (0 dense, 1 banded, 2 overlapped)
//   13      1     flags (bit 0: band wraps past g; others must be zero)
//   14      2     band offset, little-endian
//   16      2     class id, little-endian
//   18      2     coefficient count n, little-endian
//   20      n*w   coefficients
//   20+n*w  s*w   payload
//
// Deserialization is defensive: any malformed buffer yields nullopt, never
// undefined behavior — packets arrive from the network, not from friends.
// Validation is two-stage: deserialize(bytes) enforces everything checkable
// from the header alone (kind range, offset/width bounds, flag consistency,
// exact length), and deserialize_stream(bytes, structure) additionally
// rejects frames that don't belong on the receiver's stream (wrong g or
// kind, wrong band width, class id out of range, offset not a class
// boundary).

#include <cstdint>
#include <optional>
#include <vector>

#include "coding/packet.hpp"
#include "coding/structure.hpp"
#include "gf/gf256.hpp"
#include "gf/gf2_16.hpp"

namespace ncast::coding {

inline constexpr std::uint16_t kWireMagic = 0x4E43;
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint8_t kWireVersionStructured = 2;
inline constexpr std::uint8_t kWireFlagWrap = 0x01;

/// Field id carried on the wire.
template <typename Field>
struct WireFieldId;
template <>
struct WireFieldId<gf::Gf256> {
  static constexpr std::uint8_t value = 1;
};
template <>
struct WireFieldId<gf::Gf2_16> {
  static constexpr std::uint8_t value = 2;
};

/// Serialized size of a version-1 (dense) packet with the given shape.
template <typename Field>
constexpr std::size_t wire_size(std::size_t g, std::size_t symbols) {
  return 12 + (g + symbols) * sizeof(typename Field::value_type);
}

/// Serialized size of a version-2 (structured) packet carrying `coeffs`
/// compact coefficients.
template <typename Field>
constexpr std::size_t wire_size_structured(std::size_t coeffs,
                                           std::size_t symbols) {
  return 20 + (coeffs + symbols) * sizeof(typename Field::value_type);
}

/// Encodes a dense packet into its version-1 wire representation
/// (coeffs.size() is the generation size).
template <typename Field>
std::vector<std::uint8_t> serialize(const CodedPacket<Field>& p);

/// Encodes a structured packet into its version-2 wire representation.
/// `structure` supplies the generation size and kind; the packet's strip is
/// written as-is (serialize what you were given — validation is the
/// receiver's job).
template <typename Field>
std::vector<std::uint8_t> serialize_structured(
    const CodedPacket<Field>& p, const GenerationStructure& structure);

/// Decodes a wire buffer of either version; nullopt on any structural
/// problem (bad magic, version, field id, out-of-range placement, flag
/// inconsistency, or size mismatch).
template <typename Field>
std::optional<CodedPacket<Field>> deserialize(
    const std::vector<std::uint8_t>& bytes);

/// Serializes a packet for a stream governed by `structure`, choosing the
/// wire version by the packet's *shape*: dense-shaped packets (full-width
/// row at offset 0 — every dense-structure emission, and every densified
/// relay emission on a banded stream) take the version-1 layout
/// byte-for-byte, so dense streams stay wire-identical to pre-structure
/// code; everything else (band strips, class packets) rides version 2.
template <typename Field>
std::vector<std::uint8_t> serialize_stream(const CodedPacket<Field>& p,
                                           const GenerationStructure& structure);

/// The receive half of serialize_stream: decodes either version and
/// validates against the *stream admission* rule rather than the strict
/// encoder shape. Version-2 packets must match `structure` exactly (wrong
/// kind, band width, or class placement dies here); version-1 dense rows are
/// admitted on dense streams and — because recoding densifies banded codes —
/// on banded streams, but never on overlapped streams, whose recoding is
/// class-preserving. See GenerationStructure::admits_packet().
template <typename Field>
std::optional<CodedPacket<Field>> deserialize_stream(
    const std::vector<std::uint8_t>& bytes,
    const GenerationStructure& structure);

}  // namespace ncast::coding
