#include "coding/wire.hpp"

#include <cstring>

namespace ncast::coding {
namespace {

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t get16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

template <typename V>
void put_symbols(std::vector<std::uint8_t>& out, const std::vector<V>& symbols) {
  for (V v : symbols) {
    for (std::size_t i = 0; i < sizeof(V); ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
}

template <typename V>
std::vector<V> get_symbols(const std::uint8_t* p, std::size_t count) {
  std::vector<V> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    V v{0};
    for (std::size_t b = 0; b < sizeof(V); ++b) {
      v = static_cast<V>(v | (static_cast<V>(p[i * sizeof(V) + b]) << (8 * b)));
    }
    out[i] = v;
  }
  return out;
}

}  // namespace

template <typename Field>
std::vector<std::uint8_t> serialize(const CodedPacket<Field>& p) {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size<Field>(p.coeffs.size(), p.payload.size()));
  put16(out, kWireMagic);
  out.push_back(kWireVersion);
  out.push_back(WireFieldId<Field>::value);
  put32(out, p.generation);
  put16(out, static_cast<std::uint16_t>(p.coeffs.size()));
  put16(out, static_cast<std::uint16_t>(p.payload.size()));
  put_symbols(out, p.coeffs);
  put_symbols(out, p.payload);
  return out;
}

template <typename Field>
std::vector<std::uint8_t> serialize_structured(
    const CodedPacket<Field>& p, const GenerationStructure& structure) {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size_structured<Field>(p.coeffs.size(), p.payload.size()));
  put16(out, kWireMagic);
  out.push_back(kWireVersionStructured);
  out.push_back(WireFieldId<Field>::value);
  put32(out, p.generation);
  put16(out, static_cast<std::uint16_t>(structure.g));
  put16(out, static_cast<std::uint16_t>(p.payload.size()));
  out.push_back(static_cast<std::uint8_t>(structure.kind));
  const bool wraps = p.band_offset + p.coeffs.size() > structure.g;
  out.push_back(wraps ? kWireFlagWrap : std::uint8_t{0});
  put16(out, p.band_offset);
  put16(out, p.class_id);
  put16(out, static_cast<std::uint16_t>(p.coeffs.size()));
  put_symbols(out, p.coeffs);
  put_symbols(out, p.payload);
  return out;
}

namespace {

// Version-1 body: dense packet, coefficient count == g. `bytes` has already
// passed the magic/field-id checks.
template <typename Field>
std::optional<CodedPacket<Field>> deserialize_v1(
    const std::vector<std::uint8_t>& bytes) {
  const std::uint32_t generation = get32(bytes.data() + 4);
  const std::size_t g = get16(bytes.data() + 8);
  const std::size_t symbols = get16(bytes.data() + 10);
  if (g == 0 || symbols == 0) return std::nullopt;
  using V = typename Field::value_type;
  if (bytes.size() != 12 + (g + symbols) * sizeof(V)) return std::nullopt;

  CodedPacket<Field> p;
  p.generation = generation;
  p.coeffs = get_symbols<V>(bytes.data() + 12, g);
  p.payload = get_symbols<V>(bytes.data() + 12 + g * sizeof(V), symbols);
  return p;
}

// Version-2 body: structured packet with a compact coefficient strip.
// Enforces everything checkable without knowing the receiver's structure.
template <typename Field>
std::optional<CodedPacket<Field>> deserialize_v2(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 20) return std::nullopt;
  const std::uint32_t generation = get32(bytes.data() + 4);
  const std::size_t g = get16(bytes.data() + 8);
  const std::size_t symbols = get16(bytes.data() + 10);
  const std::uint8_t kind_byte = bytes[12];
  const std::uint8_t flags = bytes[13];
  const std::size_t offset = get16(bytes.data() + 14);
  const std::size_t class_id = get16(bytes.data() + 16);
  const std::size_t n = get16(bytes.data() + 18);
  if (g == 0 || symbols == 0 || n == 0) return std::nullopt;
  if (kind_byte > static_cast<std::uint8_t>(StructureKind::kOverlapped)) {
    return std::nullopt;
  }
  if ((flags & ~kWireFlagWrap) != 0) return std::nullopt;
  if (n > g || offset >= g) return std::nullopt;
  const bool wraps = offset + n > g;
  if (wraps != ((flags & kWireFlagWrap) != 0)) return std::nullopt;
  const auto kind = static_cast<StructureKind>(kind_byte);
  switch (kind) {
    case StructureKind::kDense:
      if (offset != 0 || n != g || class_id != 0) return std::nullopt;
      break;
    case StructureKind::kBanded:
      if (class_id != 0) return std::nullopt;
      break;
    case StructureKind::kOverlapped:
      if (wraps) return std::nullopt;  // classes never wrap
      break;
  }
  using V = typename Field::value_type;
  if (bytes.size() != 20 + (n + symbols) * sizeof(V)) return std::nullopt;

  CodedPacket<Field> p;
  p.generation = generation;
  p.band_offset = static_cast<std::uint16_t>(offset);
  p.class_id = static_cast<std::uint16_t>(class_id);
  p.coeffs = get_symbols<V>(bytes.data() + 20, n);
  p.payload = get_symbols<V>(bytes.data() + 20 + n * sizeof(V), symbols);
  return p;
}

}  // namespace

template <typename Field>
std::optional<CodedPacket<Field>> deserialize(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 12) return std::nullopt;
  if (get16(bytes.data()) != kWireMagic) return std::nullopt;
  if (bytes[3] != WireFieldId<Field>::value) return std::nullopt;
  switch (bytes[2]) {
    case kWireVersion:
      return deserialize_v1<Field>(bytes);
    case kWireVersionStructured:
      return deserialize_v2<Field>(bytes);
    default:
      return std::nullopt;
  }
}

template <typename Field>
std::vector<std::uint8_t> serialize_stream(
    const CodedPacket<Field>& p, const GenerationStructure& structure) {
  const bool dense_shaped = p.band_offset == 0 && p.class_id == 0 &&
                            p.coeffs.size() == structure.g;
  if (dense_shaped) return serialize(p);
  return serialize_structured(p, structure);
}

template <typename Field>
std::optional<CodedPacket<Field>> deserialize_stream(
    const std::vector<std::uint8_t>& bytes,
    const GenerationStructure& structure) {
  auto p = deserialize<Field>(bytes);
  if (!p) return std::nullopt;
  const std::size_t g = get16(bytes.data() + 8);
  if (g != structure.g) return std::nullopt;
  if (bytes[2] == kWireVersionStructured) {
    // Structured frames carry their kind; a strip claiming a different
    // structure than the stream's is a stray, even if the placement happens
    // to be geometrically admissible.
    if (static_cast<StructureKind>(bytes[12]) != structure.kind) {
      return std::nullopt;
    }
    if (!structure.matches_packet(p->band_offset, p->coeffs.size(),
                                  p->class_id)) {
      return std::nullopt;
    }
  } else if (!structure.admits_packet(p->band_offset, p->coeffs.size(),
                                      p->class_id)) {
    return std::nullopt;
  }
  return p;
}

// Explicit instantiations for the supported fields.
template std::vector<std::uint8_t> serialize<gf::Gf256>(
    const CodedPacket<gf::Gf256>&);
template std::vector<std::uint8_t> serialize<gf::Gf2_16>(
    const CodedPacket<gf::Gf2_16>&);
template std::vector<std::uint8_t> serialize_structured<gf::Gf256>(
    const CodedPacket<gf::Gf256>&, const GenerationStructure&);
template std::vector<std::uint8_t> serialize_structured<gf::Gf2_16>(
    const CodedPacket<gf::Gf2_16>&, const GenerationStructure&);
template std::optional<CodedPacket<gf::Gf256>> deserialize<gf::Gf256>(
    const std::vector<std::uint8_t>&);
template std::optional<CodedPacket<gf::Gf2_16>> deserialize<gf::Gf2_16>(
    const std::vector<std::uint8_t>&);
template std::vector<std::uint8_t> serialize_stream<gf::Gf256>(
    const CodedPacket<gf::Gf256>&, const GenerationStructure&);
template std::vector<std::uint8_t> serialize_stream<gf::Gf2_16>(
    const CodedPacket<gf::Gf2_16>&, const GenerationStructure&);
template std::optional<CodedPacket<gf::Gf256>> deserialize_stream<gf::Gf256>(
    const std::vector<std::uint8_t>&, const GenerationStructure&);
template std::optional<CodedPacket<gf::Gf2_16>> deserialize_stream<gf::Gf2_16>(
    const std::vector<std::uint8_t>&, const GenerationStructure&);

}  // namespace ncast::coding
