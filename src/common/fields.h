#ifndef DBTF_COMMON_FIELDS_H_
#define DBTF_COMMON_FIELDS_H_

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/serde.h"
#include "common/status.h"

namespace dbtf {

// Field lists: the one declaration of a struct's bytes. A struct that
// crosses a byte boundary (a wire message, a checkpoint blob) lists its
// fields once, in byte order, in a `Fields(T&)` found by argument-dependent
// lookup. An element is a member reference, written by its type's default
// encoding (EncodeValue), or a field codec: a struct with `kMembers` (the
// members it names), `Encode(ByteWriter*) const` and `Decode(ByteReader*)`,
// plus `Bytes()` where the list is sized and `Finish()` for a check run
// after the whole list is decoded. One walker encodes a list, one decodes
// it and one sizes it, and each asserts at compile time that the list
// names every member of the struct. A list takes a mutable reference so it
// serves both directions; the encoder and the sizer only read through it.

/// kIoError for decoded bytes no encoder writes.
Status FieldError(const char* what);

/// Member references stay references, codecs are held by value.
template <typename... F>
std::tuple<F...> FieldList(F&&... fields) {
  return std::tuple<F...>(std::forward<F>(fields)...);
}

template <typename C>
concept FieldCodec = requires(const C& c, C& m, ByteWriter* w, ByteReader* r) {
  { C::kMembers } -> std::convertible_to<std::size_t>;
  c.Encode(w);
  { m.Decode(r) } -> std::same_as<Status>;
};

template <typename T>
concept HasFields = requires(T& t) { Fields(t); };

// --- Compile-time coverage ---------------------------------------------------

namespace fields_internal {

/// T{AnyMember{}...} compiles for at most one initializer per member.
struct AnyMember {
  template <typename U>
  operator U() const;  // never defined; unevaluated contexts only
};

template <typename T, typename... Probes>
constexpr std::size_t MemberCount() {
  if constexpr (requires { T{Probes{}..., AnyMember{}}; }) {
    return MemberCount<T, Probes..., AnyMember>();
  } else {
    return sizeof...(Probes);
  }
}

template <typename E>
constexpr std::size_t Named() {
  if constexpr (std::is_lvalue_reference_v<E>) {
    return 1;
  } else {
    return E::kMembers;
  }
}

template <typename... E>
constexpr std::size_t ListMembers(std::tuple<E...>*) {
  return (Named<E>() + ... + 0);
}

}  // namespace fields_internal

/// Proof that `Lists` (its list, or one per segment) name every member of T.
template <typename T, typename... Lists>
struct NamesEveryMember {
  static_assert((fields_internal::ListMembers(static_cast<Lists*>(nullptr)) +
                 ...) == fields_internal::MemberCount<T>(),
                "a field list does not name every member of its struct");
  static constexpr bool value = true;
};

template <HasFields T>
auto CheckedFields(T& value) {
  static_assert(NamesEveryMember<T, decltype(Fields(value))>::value);
  return Fields(value);
}

// --- Default encodings -------------------------------------------------------

template <typename T>
struct IsArray : std::false_type {};
template <typename T, std::size_t N>
struct IsArray<std::array<T, N>> : std::true_type {};

/// A u64 count and its elements: std::string and vectors of scalars.
template <typename T>
concept Sequence =
    std::is_same_v<T, std::string> ||
    (std::is_same_v<T, std::vector<typename T::value_type>> &&
     std::is_arithmetic_v<typename T::value_type>);

template <HasFields T>
void EncodeFields(const T& msg, ByteWriter* w);
template <HasFields T>
Status DecodeFields(ByteReader* r, T* msg);

/// A member by its type: bool as one 0/1 byte, scalars little-endian, a
/// Sequence, std::array element-wise, a struct by its own list, and any
/// other type by the CodecFor(T&) its header declares.
template <typename T>
void EncodeValue(const T& value, ByteWriter* w) {
  if constexpr (std::is_same_v<T, bool>) {
    w->WriteU8(value ? 1 : 0);
  } else if constexpr (std::is_floating_point_v<T>) {
    w->WriteDouble(value);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
    if constexpr (sizeof(T) == 1) {
      w->WriteU8(static_cast<std::uint8_t>(value));
    } else if constexpr (sizeof(T) == 4) {
      w->WriteU32(static_cast<std::uint32_t>(value));
    } else {
      w->WriteU64(static_cast<std::uint64_t>(value));
    }
  } else if constexpr (Sequence<T>) {
    w->WriteU64(value.size());
    if constexpr (sizeof(typename T::value_type) == 1) {
      w->WriteBytes(value.data(), value.size());
    } else {
      for (const auto& item : value) EncodeValue(item, w);
    }
  } else if constexpr (IsArray<T>::value) {
    for (const auto& item : value) EncodeValue(item, w);
  } else if constexpr (HasFields<T>) {
    EncodeFields(value, w);
  } else {
    CodecFor(const_cast<T&>(value)).Encode(w);
  }
}

template <typename T>
Status DecodeValue(ByteReader* r, T* value) {
  if constexpr (std::is_same_v<T, bool>) {
    DBTF_ASSIGN_OR_RETURN(const std::uint8_t raw, r->ReadU8());
    if (raw > 1) return FieldError("boolean flag out of range");
    *value = raw != 0;
  } else if constexpr (std::is_floating_point_v<T>) {
    DBTF_ASSIGN_OR_RETURN(*value, r->ReadDouble());
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) {
      DBTF_ASSIGN_OR_RETURN(const std::uint8_t raw, r->ReadU8());
      *value = static_cast<T>(raw);
    } else if constexpr (sizeof(T) == 4) {
      DBTF_ASSIGN_OR_RETURN(const std::uint32_t raw, r->ReadU32());
      *value = static_cast<T>(raw);
    } else {
      DBTF_ASSIGN_OR_RETURN(const std::uint64_t raw, r->ReadU64());
      *value = static_cast<T>(raw);
    }
  } else if constexpr (Sequence<T>) {
    // Bounded before allocating, as a division: count * size wraps u64
    // (found by fuzz_wire_frame; the input is pinned under fuzz/crashes/).
    using Item = typename T::value_type;
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t count, r->ReadU64());
    if (count > r->remaining() / sizeof(Item)) {
      return FieldError("sequence longer than the buffer");
    }
    value->assign(static_cast<std::size_t>(count), Item{});
    if constexpr (sizeof(Item) == 1) {
      if (count > 0) return r->ReadBytes(value->data(), value->size());
    } else {
      for (Item& item : *value) DBTF_RETURN_IF_ERROR(DecodeValue(r, &item));
    }
  } else if constexpr (IsArray<T>::value) {
    for (auto& item : *value) DBTF_RETURN_IF_ERROR(DecodeValue(r, &item));
  } else if constexpr (HasFields<T>) {
    return DecodeFields(r, value);
  } else {
    return CodecFor(*value).Decode(r);
  }
  return Status::OK();
}

template <typename T>
Result<T> DecodeValue(ByteReader* r) {
  T value{};
  DBTF_RETURN_IF_ERROR(DecodeValue(r, &value));
  return value;
}

/// EncodeValue's size, for the member types of the lists that are sized.
template <typename T>
std::int64_t ValueBytes(const T& value) {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (Sequence<T>) {
    return 8 + static_cast<std::int64_t>(sizeof(typename T::value_type) *
                                         value.size());
  } else {
    return CodecFor(const_cast<T&>(value)).Bytes();
  }
}

// --- Codecs ------------------------------------------------------------------

/// A member stored as a `Wire` scalar within [lo, hi].
template <typename Wire, typename T>
struct Bounded {
  static constexpr std::size_t kMembers = 1;
  T& value;
  std::int64_t lo;
  std::int64_t hi;
  void Encode(ByteWriter* w) const {
    EncodeValue(static_cast<Wire>(value), w);
  }
  Status Decode(ByteReader* r) {
    Wire raw{};
    DBTF_RETURN_IF_ERROR(DecodeValue(r, &raw));
    if (raw < lo || raw > hi) return FieldError("value out of range");
    value = static_cast<T>(raw);
    return Status::OK();
  }
  std::int64_t Bytes() const { return sizeof(Wire); }
};

/// An int or enum as one byte, and an i64, within [lo, hi].
template <typename T>
Bounded<std::uint8_t, T> ByteIn(T& value, int lo, int hi) {
  return {value, lo, hi};
}
inline Bounded<std::int64_t, std::int64_t> InRange(std::int64_t& value,
                                                   std::int64_t lo,
                                                   std::int64_t hi) {
  return {value, lo, hi};
}

/// An i64 as a zigzag varint (small magnitudes take one byte).
struct ZigZag {
  static constexpr std::size_t kMembers = 1;
  std::int64_t& value;
  void Encode(ByteWriter* w) const { w->WriteVarint(ZigZagEncode(value)); }
  Status Decode(ByteReader* r) {
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t raw, r->ReadVarint());
    value = ZigZagDecode(raw);
    return Status::OK();
  }
  std::int64_t Bytes() const { return VarintBytes(ZigZagEncode(value)); }
};

/// `bits` packed bits, padding zero: the one packed-bit encoding.
void WritePackedWords(const std::vector<BitWord>& words, std::size_t bits,
                      ByteWriter* w);
Status ReadPackedWords(ByteReader* r, std::size_t bits,
                       std::vector<BitWord>* words);

/// Packed bits behind their logical length, an i64 in [0, max_bits].
struct PackedBits {
  static constexpr std::size_t kMembers = 2;
  std::vector<BitWord>& words;
  std::int64_t& bits;
  std::int64_t max_bits;
  void Encode(ByteWriter* w) const {
    w->WriteI64(bits);
    WritePackedWords(words, static_cast<std::size_t>(bits), w);
  }
  Status Decode(ByteReader* r) {
    DBTF_RETURN_IF_ERROR(InRange(bits, 0, max_bits).Decode(r));
    return ReadPackedWords(r, static_cast<std::size_t>(bits), &words);
  }
  std::int64_t Bytes() const {
    return 8 + 8 * static_cast<std::int64_t>(words.size());
  }
};

/// A check over decoded fields, run once the whole list is read. Names no
/// member and writes nothing.
template <typename Pred>
struct Check {
  static constexpr std::size_t kMembers = 0;
  Pred pred;
  const char* what;
  void Encode(ByteWriter*) const {}
  Status Decode(ByteReader*) { return Status::OK(); }
  Status Finish() const { return pred() ? Status::OK() : FieldError(what); }
  std::int64_t Bytes() const { return 0; }
};
template <typename Pred>
Check(Pred, const char*) -> Check<Pred>;

/// A vector of structs with their own lists: u64 count, then each one. The
/// count is bounded by `max_count` and, before anything is allocated, by
/// the remaining bytes over `min_item_bytes`.
template <HasFields T>
struct ListOf {
  static constexpr std::size_t kMembers = 1;
  std::vector<T>& items;
  std::uint64_t max_count;
  std::uint64_t min_item_bytes;
  void Encode(ByteWriter* w) const {
    w->WriteU64(items.size());
    for (const T& item : items) EncodeFields(item, w);
  }
  Status Decode(ByteReader* r) {
    DBTF_ASSIGN_OR_RETURN(const std::uint64_t count, r->ReadU64());
    if (count > max_count ||
        (min_item_bytes > 0 && count > r->remaining() / min_item_bytes)) {
      return FieldError("item count out of range");
    }
    items.assign(static_cast<std::size_t>(count), T{});
    for (T& item : items) DBTF_RETURN_IF_ERROR(DecodeFields(r, &item));
    return Status::OK();
  }
};

// --- The walker --------------------------------------------------------------

template <typename E>
void EncodeElement(E& element, ByteWriter* w) {
  if constexpr (FieldCodec<E>) {
    element.Encode(w);
  } else {
    EncodeValue(element, w);
  }
}

template <typename... E>
void EncodeList(std::tuple<E...>& list, ByteWriter* w) {
  std::apply([w](auto&... e) { (EncodeElement(e, w), ...); }, list);
}

/// Decodes every element in order, then runs every Finish; stops at the
/// first failure.
template <typename... E>
Status DecodeList(std::tuple<E...>& list, ByteReader* r) {
  Status status;
  auto failed = [&status](Status&& s) {
    if (s.ok()) return false;
    status = std::move(s);
    return true;
  };
  auto decode = [&](auto& e) {
    if constexpr (FieldCodec<std::remove_reference_t<decltype(e)>>) {
      return failed(e.Decode(r));
    } else {
      return failed(DecodeValue(r, &e));
    }
  };
  auto finish = [&](auto& e) {
    if constexpr (requires { { e.Finish() } -> std::same_as<Status>; }) {
      return failed(e.Finish());
    } else {
      return false;
    }
  };
  std::apply([&](auto&... e) { (void)(decode(e) || ...); }, list);
  if (status.ok()) {
    std::apply([&](auto&... e) { (void)(finish(e) || ...); }, list);
  }
  return status;
}

template <HasFields T>
void EncodeFields(const T& msg, ByteWriter* w) {
  auto list = CheckedFields(const_cast<T&>(msg));
  EncodeList(list, w);
}

template <HasFields T>
Status DecodeFields(ByteReader* r, T* msg) {
  auto list = CheckedFields(*msg);
  return DecodeList(list, r);
}

template <HasFields T>
Result<T> DecodeFields(ByteReader* r) {
  T msg{};
  DBTF_RETURN_IF_ERROR(DecodeFields(r, &msg));
  return msg;
}

/// Exact encoded size of `msg`.
template <HasFields T>
std::int64_t FieldBytes(const T& msg) {
  auto list = CheckedFields(const_cast<T&>(msg));
  auto bytes = [](auto& e) {
    if constexpr (FieldCodec<std::remove_reference_t<decltype(e)>>) {
      return e.Bytes();
    } else {
      return ValueBytes(e);
    }
  };
  return std::apply(
      [&](auto&... e) { return (std::int64_t{0} + ... + bytes(e)); }, list);
}

/// Member-wise op(a, b) over a list of arithmetic members.
template <HasFields T, typename Op>
T ZipFields(const T& a, const T& b, Op op) {
  T out{};
  auto o = CheckedFields(out);
  auto x = Fields(const_cast<T&>(a));
  auto y = Fields(const_cast<T&>(b));
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((std::get<I>(o) = op(std::get<I>(x), std::get<I>(y))), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(o)>>{});
  return out;
}

/// One segment of a member struct split over several lists (RunProgress
/// over two checkpoint blobs). The first names the member in the enclosing
/// struct's count (Segment), the later ones do not (LaterSegment).
template <std::size_t kNames, typename List>
struct SegmentCodec {
  static constexpr std::size_t kMembers = kNames;
  mutable List list;  // member references; the walk reads through them
  void Encode(ByteWriter* w) const { EncodeList(list, w); }
  Status Decode(ByteReader* r) { return DecodeList(list, r); }
};

template <typename List>
SegmentCodec<1, List> Segment(List list) {
  return {std::move(list)};
}
template <typename List>
SegmentCodec<0, List> LaterSegment(List list) {
  return {std::move(list)};
}

}  // namespace dbtf

#endif  // DBTF_COMMON_FIELDS_H_
