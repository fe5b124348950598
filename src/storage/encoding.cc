#include "storage/encoding.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/bitutil.h"
#include "storage/huffman.h"

namespace stratica {

const char* EncodingName(EncodingId id) {
  switch (id) {
    case EncodingId::kAuto: return "AUTO";
    case EncodingId::kPlain: return "PLAIN";
    case EncodingId::kRle: return "RLE";
    case EncodingId::kDeltaValue: return "DELTAVAL";
    case EncodingId::kBlockDict: return "BLOCK_DICT";
    case EncodingId::kCompressedDeltaRange: return "DELTARANGE_COMP";
    case EncodingId::kCompressedCommonDelta: return "COMMONDELTA_COMP";
  }
  return "UNKNOWN";
}

Result<EncodingId> EncodingFromName(const std::string& name) {
  std::string up;
  for (char c : name) up.push_back(static_cast<char>(std::toupper(c)));
  if (up == "AUTO") return EncodingId::kAuto;
  if (up == "PLAIN" || up == "NONE") return EncodingId::kPlain;
  if (up == "RLE") return EncodingId::kRle;
  if (up == "DELTAVAL") return EncodingId::kDeltaValue;
  if (up == "BLOCK_DICT" || up == "BLOCKDICT") return EncodingId::kBlockDict;
  if (up == "DELTARANGE_COMP" || up == "DELTARANGE")
    return EncodingId::kCompressedDeltaRange;
  if (up == "COMMONDELTA_COMP" || up == "COMMONDELTA")
    return EncodingId::kCompressedCommonDelta;
  return Status::AnalysisError("unknown encoding: ", name);
}

bool EncodingSupports(EncodingId enc, StorageClass sc) {
  switch (enc) {
    case EncodingId::kAuto:
    case EncodingId::kPlain:
    case EncodingId::kRle:
    case EncodingId::kBlockDict:
      return true;
    case EncodingId::kDeltaValue:
    case EncodingId::kCompressedCommonDelta:
      return sc == StorageClass::kInt64;
    case EncodingId::kCompressedDeltaRange:
      return sc != StorageClass::kString;
  }
  return false;
}

namespace {

// Order-preserving bijection between doubles and uint64 (sign-flip
// transform); lets delta encodings treat sorted doubles as sorted ints.
uint64_t DoubleToOrderedKey(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits & 0x8000000000000000ULL) ? ~bits : bits | 0x8000000000000000ULL;
}
double OrderedKeyToDouble(uint64_t key) {
  uint64_t bits = (key & 0x8000000000000000ULL) ? key & 0x7fffffffffffffffULL : ~key;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void AppendNullSection(std::string* out, const ColumnVector& col, size_t start,
                       size_t count) {
  bool any = false;
  for (size_t i = 0; i < count && !any; ++i) any = col.IsNull(start + i);
  out->push_back(any ? 1 : 0);
  if (!any) return;
  size_t bytes = (count + 7) / 8;
  size_t base = out->size();
  out->append(bytes, '\0');
  for (size_t i = 0; i < count; ++i) {
    if (col.IsNull(start + i)) (*out)[base + i / 8] |= static_cast<char>(1 << (i % 8));
  }
}

Status ReadNullSection(const std::string& data, size_t* offset, size_t count,
                       std::vector<uint8_t>* nulls) {
  if (*offset >= data.size()) return Status::Corruption("block: missing null flag");
  uint8_t any = static_cast<uint8_t>(data[(*offset)++]);
  nulls->clear();
  if (!any) return Status::OK();
  size_t bytes = (count + 7) / 8;
  if (*offset + bytes > data.size()) return Status::Corruption("block: truncated nulls");
  nulls->resize(count);
  for (size_t i = 0; i < count; ++i)
    (*nulls)[i] = (data[*offset + i / 8] >> (i % 8)) & 1;
  *offset += bytes;
  return Status::OK();
}

// --- per-storage-class scalar serializers ---------------------------------
void PutScalar(std::string* out, const ColumnVector& col, size_t i) {
  switch (StorageClassOf(col.type)) {
    case StorageClass::kInt64: PutVarint64(out, ZigZagEncode(col.ints[i])); break;
    case StorageClass::kFloat64: PutFixed(out, col.doubles[i]); break;
    case StorageClass::kString:
      PutVarint64(out, col.strings[i].size());
      out->append(col.strings[i]);
      break;
  }
}

Status GetScalar(const std::string& data, size_t* offset, ColumnVector* out) {
  switch (StorageClassOf(out->type)) {
    case StorageClass::kInt64: {
      uint64_t zz;
      if (!GetVarint64(data, offset, &zz)) return Status::Corruption("bad int scalar");
      out->ints.push_back(ZigZagDecode(zz));
      return Status::OK();
    }
    case StorageClass::kFloat64: {
      double d;
      if (!GetFixed(data, offset, &d)) return Status::Corruption("bad float scalar");
      out->doubles.push_back(d);
      return Status::OK();
    }
    case StorageClass::kString: {
      uint64_t len;
      if (!GetVarint64(data, offset, &len) || *offset + len > data.size())
        return Status::Corruption("bad string scalar");
      out->strings.emplace_back(data, *offset, len);
      *offset += len;
      return Status::OK();
    }
  }
  return Status::Internal("bad storage class");
}

// --- encoders ---------------------------------------------------------------

Status EncodePlain(const ColumnVector& col, size_t start, size_t count,
                   std::string* out) {
  switch (StorageClassOf(col.type)) {
    case StorageClass::kInt64:
      out->append(reinterpret_cast<const char*>(col.ints.data() + start),
                  count * sizeof(int64_t));
      break;
    case StorageClass::kFloat64:
      out->append(reinterpret_cast<const char*>(col.doubles.data() + start),
                  count * sizeof(double));
      break;
    case StorageClass::kString:
      for (size_t i = 0; i < count; ++i) {
        PutVarint64(out, col.strings[start + i].size());
        out->append(col.strings[start + i]);
      }
      break;
  }
  return Status::OK();
}

Status EncodeRle(const ColumnVector& col, size_t start, size_t count, std::string* out) {
  // Count runs of equal adjacent values (nulls already normalized to 0/"").
  std::string body;
  uint64_t num_runs = 0;
  size_t i = 0;
  while (i < count) {
    size_t j = i + 1;
    while (j < count &&
           ColumnVector::CompareEntries(col, start + i, col, start + j) == 0 &&
           col.IsNull(start + i) == col.IsNull(start + j)) {
      ++j;
    }
    PutScalar(&body, col, start + i);
    PutVarint64(&body, j - i);
    ++num_runs;
    i = j;
  }
  PutVarint64(out, num_runs);
  out->append(body);
  return Status::OK();
}

Status EncodeDeltaValue(const ColumnVector& col, size_t start, size_t count,
                        std::string* out) {
  int64_t min = col.ints[start];
  uint64_t max_delta = 0;
  for (size_t i = 0; i < count; ++i) min = std::min(min, col.ints[start + i]);
  // Deltas computed in uint64 (mod 2^64) to avoid signed overflow on
  // full-range data.
  for (size_t i = 0; i < count; ++i) {
    uint64_t d = static_cast<uint64_t>(col.ints[start + i]) - static_cast<uint64_t>(min);
    max_delta = std::max(max_delta, d);
  }
  int width = BitsRequired(max_delta);
  PutVarint64(out, ZigZagEncode(min));
  out->push_back(static_cast<char>(width));
  if (width > 0) {
    BitPacker packer(width);
    for (size_t i = 0; i < count; ++i)
      packer.Append(static_cast<uint64_t>(col.ints[start + i]) -
                    static_cast<uint64_t>(min));
    out->append(packer.Finish());
  }
  return Status::OK();
}

// Dictionary build shared by BlockDict encode and the Auto chooser's
// cardinality guard. Returns false if distinct count exceeds `limit`.
template <typename T>
bool BuildDict(const std::vector<T>& values, size_t start, size_t count, size_t limit,
               std::vector<T>* dict, std::vector<uint32_t>* indexes) {
  std::unordered_map<T, uint32_t> map;
  map.reserve(std::min(count, limit * 2));
  indexes->resize(count);
  for (size_t i = 0; i < count; ++i) {
    auto [it, inserted] = map.emplace(values[start + i], static_cast<uint32_t>(dict->size()));
    if (inserted) {
      dict->push_back(values[start + i]);
      if (dict->size() > limit) return false;
    }
    (*indexes)[i] = it->second;
  }
  return true;
}

constexpr size_t kDictLimit = 16384;

// Sort a freshly built dictionary and remap the per-row indexes so stored
// code order == value order. Paying the d·log d once at encode time lets
// every EncodedBlockView reader skip its own sort + full code remap
// (DESIGN.md §13); the on-disk format is unchanged (readers that expand
// never cared about dictionary order).
template <typename T>
bool DictLess(const T& a, const T& b) {
  return a < b;
}
// Doubles need a total order (std::sort on raw NaNs is undefined): NaNs
// sort after every number and tie with each other.
inline bool DictLess(double a, double b) {
  if (std::isnan(b)) return !std::isnan(a);
  if (std::isnan(a)) return false;
  return a < b;
}

template <typename T>
void SortDictAndRemap(std::vector<T>* dict, std::vector<uint32_t>* indexes) {
  size_t d = dict->size();
  std::vector<uint32_t> perm(d);
  for (size_t i = 0; i < d; ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return DictLess((*dict)[a], (*dict)[b]);
  });
  std::vector<T> sorted;
  sorted.reserve(d);
  std::vector<uint32_t> rank(d);
  for (size_t i = 0; i < d; ++i) {
    rank[perm[i]] = static_cast<uint32_t>(i);
    sorted.push_back(std::move((*dict)[perm[i]]));
  }
  *dict = std::move(sorted);
  for (auto& idx : *indexes) idx = rank[idx];
}

Status EncodeBlockDict(const ColumnVector& col, size_t start, size_t count,
                       std::string* out, bool* feasible) {
  std::vector<uint32_t> indexes;
  std::string dict_body;
  uint64_t dict_size = 0;
  *feasible = true;
  switch (StorageClassOf(col.type)) {
    case StorageClass::kInt64: {
      std::vector<int64_t> dict;
      if (!BuildDict(col.ints, start, count, kDictLimit, &dict, &indexes)) {
        *feasible = false;
        return Status::OK();
      }
      SortDictAndRemap(&dict, &indexes);
      dict_size = dict.size();
      for (int64_t v : dict) PutVarint64(&dict_body, ZigZagEncode(v));
      break;
    }
    case StorageClass::kFloat64: {
      std::vector<double> dict;
      if (!BuildDict(col.doubles, start, count, kDictLimit, &dict, &indexes)) {
        *feasible = false;
        return Status::OK();
      }
      SortDictAndRemap(&dict, &indexes);
      dict_size = dict.size();
      for (double v : dict) PutFixed(&dict_body, v);
      break;
    }
    case StorageClass::kString: {
      std::vector<std::string> dict;
      if (!BuildDict(col.strings, start, count, kDictLimit, &dict, &indexes)) {
        *feasible = false;
        return Status::OK();
      }
      SortDictAndRemap(&dict, &indexes);
      dict_size = dict.size();
      for (const auto& v : dict) {
        PutVarint64(&dict_body, v.size());
        dict_body.append(v);
      }
      break;
    }
  }
  PutVarint64(out, dict_size);
  out->append(dict_body);
  int width = BitsRequired(dict_size > 0 ? dict_size - 1 : 0);
  out->push_back(static_cast<char>(width));
  if (width > 0) {
    BitPacker packer(width);
    for (uint32_t idx : indexes) packer.Append(idx);
    out->append(packer.Finish());
  }
  return Status::OK();
}

Status EncodeDeltaRange(const ColumnVector& col, size_t start, size_t count,
                        std::string* out) {
  if (StorageClassOf(col.type) == StorageClass::kInt64) {
    PutVarint64(out, ZigZagEncode(col.ints[start]));
    for (size_t i = 1; i < count; ++i) {
      // Mod-2^64 delta avoids signed overflow on full-range data.
      uint64_t d = static_cast<uint64_t>(col.ints[start + i]) -
                   static_cast<uint64_t>(col.ints[start + i - 1]);
      PutVarint64(out, ZigZagEncode(static_cast<int64_t>(d)));
    }
  } else {
    uint64_t prev = DoubleToOrderedKey(col.doubles[start]);
    PutFixed(out, prev);
    for (size_t i = 1; i < count; ++i) {
      uint64_t key = DoubleToOrderedKey(col.doubles[start + i]);
      PutVarint64(out, ZigZagEncode(static_cast<int64_t>(key - prev)));
      prev = key;
    }
  }
  return Status::OK();
}

Status EncodeCommonDelta(const ColumnVector& col, size_t start, size_t count,
                         std::string* out, bool* feasible) {
  *feasible = true;
  PutVarint64(out, ZigZagEncode(col.ints[start]));
  if (count <= 1) {
    PutVarint64(out, 0);  // empty delta dictionary
    return Status::OK();
  }
  // Dictionary of distinct deltas.
  std::unordered_map<int64_t, uint32_t> map;
  std::vector<int64_t> dict;
  std::vector<uint32_t> symbols(count - 1);
  for (size_t i = 1; i < count; ++i) {
    int64_t d = static_cast<int64_t>(static_cast<uint64_t>(col.ints[start + i]) -
                                     static_cast<uint64_t>(col.ints[start + i - 1]));
    auto [it, inserted] = map.emplace(d, static_cast<uint32_t>(dict.size()));
    if (inserted) {
      dict.push_back(d);
      if (dict.size() > kDictLimit) {
        *feasible = false;
        return Status::OK();
      }
    }
    symbols[i - 1] = it->second;
  }
  PutVarint64(out, dict.size());
  for (int64_t d : dict) PutVarint64(out, ZigZagEncode(d));
  return HuffmanEncode(symbols, static_cast<uint32_t>(dict.size()), out);
}

// --- decoders (late materialization, DESIGN.md §7) -------------------------
//
// One decoder per encoding. `sel` is the optional row selection: the
// kSel = false instantiation decodes every row (sel is null and the
// selection tests compile away); kSel = true materializes only entries with
// sel[i] != 0. Sequentially-dependent encodings (delta chains) still walk
// the stream, but stop doing arithmetic after the last selected position and
// never append dead values; positionally-addressable encodings (plain
// scalars, bit-packed slots) touch only the selected slots. Either way the
// decoder consumes the whole payload and checks it against the row count.

template <bool kSel>
bool Keep(const uint8_t* sel, size_t i) {
  return !kSel || sel[i] != 0;
}

/// One past the last row the decoder must produce (0 when none is selected).
template <bool kSel>
size_t SelectionEnd(const uint8_t* sel, size_t count) {
  if (!kSel) return count;
  while (count > 0 && !sel[count - 1]) --count;
  return count;
}

/// Advance past one LEB128 varint without decoding it.
bool SkipVarint(const std::string& data, size_t* offset) {
  while (*offset < data.size()) {
    bool more = (static_cast<uint8_t>(data[*offset]) & 0x80) != 0;
    ++*offset;
    if (!more) return true;
  }
  return false;
}

template <bool kSel, typename T>
Status DecodeFixed(const std::string& data, size_t* offset, size_t count,
                   const uint8_t* sel, std::vector<T>* out) {
  size_t bytes = count * sizeof(T);
  if (*offset + bytes > data.size()) return Status::Corruption("plain: truncated");
  const char* base = data.data() + *offset;
  *offset += bytes;
  if (!kSel) {
    if (count == 0) return Status::OK();  // memcpy into an empty vector is UB
    size_t old = out->size();
    out->resize(old + count);
    std::memcpy(out->data() + old, base, bytes);
    return Status::OK();
  }
  for (size_t i = 0; i < count; ++i) {
    if (!Keep<kSel>(sel, i)) continue;
    T v;
    std::memcpy(&v, base + i * sizeof(T), sizeof(T));
    out->push_back(v);
  }
  return Status::OK();
}

template <bool kSel>
Status DecodePlain(const std::string& data, size_t* offset, size_t count,
                   const uint8_t* sel, ColumnVector* out) {
  switch (StorageClassOf(out->type)) {
    case StorageClass::kInt64:
      return DecodeFixed<kSel>(data, offset, count, sel, &out->ints);
    case StorageClass::kFloat64:
      return DecodeFixed<kSel>(data, offset, count, sel, &out->doubles);
    case StorageClass::kString:
      // Unselected strings are skipped by length — their bytes are never
      // copied out of the block buffer.
      for (size_t i = 0; i < count; ++i) {
        uint64_t len;
        if (!GetVarint64(data, offset, &len) || *offset + len > data.size())
          return Status::Corruption("plain: bad string");
        if (Keep<kSel>(sel, i)) out->strings.emplace_back(data, *offset, len);
        *offset += len;
      }
      return Status::OK();
  }
  return Status::Internal("bad storage class");
}

/// `keep_runs` appends each surviving run once and records its length in
/// `out->runs` instead of expanding it (never combined with a selection).
template <bool kSel>
Status DecodeRle(const std::string& data, size_t* offset, size_t count,
                 const uint8_t* sel, bool keep_runs, ColumnVector* out) {
  uint64_t num_runs;
  if (!GetVarint64(data, offset, &num_runs)) return Status::Corruption("rle: bad header");
  StorageClass sc = StorageClassOf(out->type);
  size_t pos = 0;
  for (uint64_t r = 0; r < num_runs; ++r) {
    // Read the run value lazily: strings are only constructed when at least
    // one row of the run survives.
    int64_t iv = 0;
    double dv = 0;
    size_t str_at = 0;
    uint64_t str_len = 0;
    switch (sc) {
      case StorageClass::kInt64: {
        uint64_t zz;
        if (!GetVarint64(data, offset, &zz)) return Status::Corruption("rle: bad value");
        iv = ZigZagDecode(zz);
        break;
      }
      case StorageClass::kFloat64:
        if (!GetFixed(data, offset, &dv)) return Status::Corruption("rle: bad value");
        break;
      case StorageClass::kString:
        if (!GetVarint64(data, offset, &str_len) || *offset + str_len > data.size())
          return Status::Corruption("rle: bad value");
        str_at = *offset;
        *offset += str_len;
        break;
    }
    uint64_t run_len;
    if (!GetVarint64(data, offset, &run_len)) return Status::Corruption("rle: bad run");
    if (run_len > count - pos) return Status::Corruption("rle: run overflows block");
    size_t take = run_len;
    if (kSel) {
      take = 0;
      for (size_t i = 0; i < run_len; ++i) take += sel[pos + i] != 0;
    }
    pos += run_len;
    if (take == 0) continue;  // dead runs are skipped wholesale
    if (keep_runs) {
      out->runs.resize(out->PhysicalSize(), 1);
      out->runs.push_back(static_cast<uint32_t>(run_len));
      take = 1;
    }
    switch (sc) {
      case StorageClass::kInt64: out->ints.insert(out->ints.end(), take, iv); break;
      case StorageClass::kFloat64:
        out->doubles.insert(out->doubles.end(), take, dv);
        break;
      case StorageClass::kString:
        out->strings.insert(out->strings.end(), take, std::string(data, str_at, str_len));
        break;
    }
  }
  if (pos != count) return Status::Corruption("rle: row count mismatch");
  return Status::OK();
}

/// Shared bit-packed payload walk of DeltaValue and BlockDict: hands every
/// selected `width`-bit slot to `emit`, rejecting values above `max_value`,
/// and advances `*offset` past the whole payload.
template <bool kSel, typename Emit>
Status DecodePacked(const std::string& data, size_t* offset, size_t count, int width,
                    uint64_t max_value, const uint8_t* sel, Emit emit) {
  if (width > 64) return Status::Corruption("packed: bad width");
  size_t payload = PackedBytes(count, width);
  if (*offset + payload > data.size()) return Status::Corruption("packed: truncated");
  const char* base = data.data() + *offset;
  for (size_t i = 0; i < count; ++i) {
    if (!Keep<kSel>(sel, i)) continue;
    uint64_t v = ReadPackedBits(base, payload, i * static_cast<size_t>(width), width);
    if (v > max_value) return Status::Corruption("packed: value out of range");
    emit(v);
  }
  *offset += payload;
  return Status::OK();
}

template <bool kSel>
Status DecodeDeltaValue(const std::string& data, size_t* offset, size_t count,
                        const uint8_t* sel, ColumnVector* out) {
  uint64_t zz;
  if (!GetVarint64(data, offset, &zz)) return Status::Corruption("deltaval: bad min");
  uint64_t min = static_cast<uint64_t>(ZigZagDecode(zz));
  if (*offset >= data.size()) return Status::Corruption("deltaval: bad width");
  int width = static_cast<uint8_t>(data[(*offset)++]);
  return DecodePacked<kSel>(data, offset, count, width, UINT64_MAX, sel, [&](uint64_t v) {
    out->ints.push_back(static_cast<int64_t>(min + v));
  });
}

/// `keep_codes` appends per-row dictionary codes to `out->ints` and hands
/// the block's dictionary (in stored order) to `out->dict` instead of
/// expanding values; `out` must be empty.
template <bool kSel>
Status DecodeBlockDict(const std::string& data, size_t* offset, size_t count,
                       const uint8_t* sel, bool keep_codes, ColumnVector* out) {
  uint64_t dict_size;
  if (!GetVarint64(data, offset, &dict_size)) return Status::Corruption("dict: bad size");
  ColumnVector dict(out->type);
  for (uint64_t i = 0; i < dict_size; ++i)
    STRATICA_RETURN_NOT_OK(GetScalar(data, offset, &dict));
  if (*offset >= data.size()) return Status::Corruption("dict: bad width");
  int width = static_cast<uint8_t>(data[(*offset)++]);
  if (count > 0 && dict_size == 0) return Status::Corruption("dict: empty");
  uint64_t max_code = dict_size - 1;
  if (keep_codes) {
    out->ints.reserve(count);
    STRATICA_RETURN_NOT_OK(DecodePacked<kSel>(
        data, offset, count, width, max_code, sel,
        [&](uint64_t c) { out->ints.push_back(static_cast<int64_t>(c)); }));
    out->dict = std::make_shared<const ColumnVector>(std::move(dict));
    return Status::OK();
  }
  switch (StorageClassOf(out->type)) {
    case StorageClass::kInt64:
      return DecodePacked<kSel>(data, offset, count, width, max_code, sel,
                                [&](uint64_t c) { out->ints.push_back(dict.ints[c]); });
    case StorageClass::kFloat64:
      return DecodePacked<kSel>(data, offset, count, width, max_code, sel,
                                [&](uint64_t c) { out->doubles.push_back(dict.doubles[c]); });
    case StorageClass::kString:
      return DecodePacked<kSel>(data, offset, count, width, max_code, sel,
                                [&](uint64_t c) { out->strings.push_back(dict.strings[c]); });
  }
  return Status::Internal("bad storage class");
}

template <bool kSel>
Status DecodeDeltaRange(const std::string& data, size_t* offset, size_t count,
                        const uint8_t* sel, ColumnVector* out) {
  // The chain walks a local cursor: appends to `out` cannot alias it.
  size_t pos = *offset;
  size_t end = SelectionEnd<kSel>(sel, count);
  size_t i = 1;
  if (StorageClassOf(out->type) == StorageClass::kInt64) {
    uint64_t zz;
    if (!GetVarint64(data, &pos, &zz)) return Status::Corruption("deltarange: bad first");
    int64_t prev = ZigZagDecode(zz);
    if (count > 0 && Keep<kSel>(sel, 0)) out->ints.push_back(prev);
    for (; i < end; ++i) {
      if (!GetVarint64(data, &pos, &zz))
        return Status::Corruption("deltarange: bad delta");
      prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                  static_cast<uint64_t>(ZigZagDecode(zz)));
      if (Keep<kSel>(sel, i)) out->ints.push_back(prev);
    }
  } else {
    uint64_t prev;
    if (!GetFixed(data, &pos, &prev)) return Status::Corruption("deltarange: bad first");
    if (count > 0 && Keep<kSel>(sel, 0)) out->doubles.push_back(OrderedKeyToDouble(prev));
    for (; i < end; ++i) {
      uint64_t zz;
      if (!GetVarint64(data, &pos, &zz))
        return Status::Corruption("deltarange: bad delta");
      prev += static_cast<uint64_t>(ZigZagDecode(zz));
      if (Keep<kSel>(sel, i)) out->doubles.push_back(OrderedKeyToDouble(prev));
    }
  }
  // Past the last selected position the deltas are dead weight: skip their
  // varint bytes without zigzag/accumulate work.
  for (; i < count; ++i) {
    if (!SkipVarint(data, &pos)) return Status::Corruption("deltarange: bad delta");
  }
  *offset = pos;
  return Status::OK();
}

template <bool kSel>
Status DecodeCommonDelta(const std::string& data, size_t* offset, size_t count,
                         const uint8_t* sel, ColumnVector* out) {
  uint64_t zz;
  if (!GetVarint64(data, offset, &zz)) return Status::Corruption("commondelta: bad first");
  int64_t value = ZigZagDecode(zz);
  if (count > 0 && Keep<kSel>(sel, 0)) out->ints.push_back(value);
  uint64_t dict_size;
  if (!GetVarint64(data, offset, &dict_size) || dict_size > data.size() - *offset)
    return Status::Corruption("commondelta: bad dict");
  if (count <= 1) return Status::OK();
  std::vector<int64_t> dict(dict_size);
  for (auto& d : dict) {
    if (!GetVarint64(data, offset, &zz))
      return Status::Corruption("commondelta: bad dict entry");
    d = ZigZagDecode(zz);
  }
  // The entropy stream must be decoded in full (prefix codes have no random
  // access), but accumulation stops after the last selected row.
  std::vector<uint32_t> symbols;
  STRATICA_RETURN_NOT_OK(HuffmanDecode(data, offset, &symbols));
  if (symbols.size() != count - 1) return Status::Corruption("commondelta: count mismatch");
  size_t end = SelectionEnd<kSel>(sel, count);
  for (size_t r = 1; r < end; ++r) {
    uint32_t s = symbols[r - 1];
    if (s >= dict.size()) return Status::Corruption("commondelta: bad symbol");
    value = static_cast<int64_t>(static_cast<uint64_t>(value) +
                                 static_cast<uint64_t>(dict[s]));
    if (Keep<kSel>(sel, r)) out->ints.push_back(value);
  }
  return Status::OK();
}

/// Decode one block payload of encoding `enc`; `keep_encoded` keeps RLE runs
/// and BlockDict codes (see DecodeRle / DecodeBlockDict).
template <bool kSel>
Status DecodePayload(EncodingId enc, const std::string& data, size_t* offset,
                     size_t count, const uint8_t* sel, bool keep_runs,
                     bool keep_codes, ColumnVector* out) {
  switch (enc) {
    case EncodingId::kPlain: return DecodePlain<kSel>(data, offset, count, sel, out);
    case EncodingId::kRle:
      return DecodeRle<kSel>(data, offset, count, sel, keep_runs, out);
    case EncodingId::kDeltaValue:
      return DecodeDeltaValue<kSel>(data, offset, count, sel, out);
    case EncodingId::kBlockDict:
      return DecodeBlockDict<kSel>(data, offset, count, sel, keep_codes, out);
    case EncodingId::kCompressedDeltaRange:
      return DecodeDeltaRange<kSel>(data, offset, count, sel, out);
    case EncodingId::kCompressedCommonDelta:
      return DecodeCommonDelta<kSel>(data, offset, count, sel, out);
    case EncodingId::kAuto: break;
  }
  return Status::Corruption("block: bad encoding");
}

Status EncodeWith(EncodingId enc, const ColumnVector& col, size_t start, size_t count,
                  std::string* out, bool* feasible) {
  *feasible = true;
  switch (enc) {
    case EncodingId::kPlain: return EncodePlain(col, start, count, out);
    case EncodingId::kRle: return EncodeRle(col, start, count, out);
    case EncodingId::kDeltaValue: return EncodeDeltaValue(col, start, count, out);
    case EncodingId::kBlockDict: return EncodeBlockDict(col, start, count, out, feasible);
    case EncodingId::kCompressedDeltaRange:
      return EncodeDeltaRange(col, start, count, out);
    case EncodingId::kCompressedCommonDelta:
      return EncodeCommonDelta(col, start, count, out, feasible);
    case EncodingId::kAuto: return Status::Internal("kAuto must be resolved by caller");
  }
  return Status::Internal("unknown encoding");
}

}  // namespace

Status EncodeBlock(EncodingId enc, const ColumnVector& col, size_t start, size_t count,
                   std::string* out) {
  if (col.IsRle()) return Status::Internal("EncodeBlock requires a flat column");
  std::string header;
  PutVarint64(&header, count);
  AppendNullSection(&header, col, start, count);

  if (count == 0) {
    out->push_back(static_cast<char>(EncodingId::kPlain));
    out->append(header);
    return Status::OK();
  }

  if (enc != EncodingId::kAuto) {
    bool feasible = true;
    std::string payload;
    STRATICA_RETURN_NOT_OK(EncodeWith(enc, col, start, count, &payload, &feasible));
    if (!feasible) {
      // Cardinality guard tripped: fall back to plain rather than exploding.
      payload.clear();
      enc = EncodingId::kPlain;
      STRATICA_RETURN_NOT_OK(EncodeWith(enc, col, start, count, &payload, &feasible));
    }
    out->push_back(static_cast<char>(enc));
    out->append(header);
    out->append(payload);
    return Status::OK();
  }

  // Auto: try every supported encoding, keep the smallest (the paper's DBD
  // performs the same empirical selection during storage optimization).
  static const EncodingId kCandidates[] = {
      EncodingId::kRle,
      EncodingId::kDeltaValue,
      EncodingId::kBlockDict,
      EncodingId::kCompressedDeltaRange,
      EncodingId::kCompressedCommonDelta,
      EncodingId::kPlain,
  };
  std::string best;
  EncodingId best_enc = EncodingId::kPlain;
  for (EncodingId cand : kCandidates) {
    if (!EncodingSupports(cand, StorageClassOf(col.type))) continue;
    std::string payload;
    bool feasible = true;
    STRATICA_RETURN_NOT_OK(EncodeWith(cand, col, start, count, &payload, &feasible));
    if (!feasible) continue;
    if (best.empty() || payload.size() < best.size()) {
      best = std::move(payload);
      best_enc = cand;
    }
  }
  out->push_back(static_cast<char>(best_enc));
  out->append(header);
  out->append(best);
  return Status::OK();
}

namespace {
// Shared block framing of every decode path: `sel` (null: every row)
// picks the selective instantiation of the payload decoders, and
// `keep_encoded` keeps RLE runs (NULL-free blocks only, the common case for
// sort-key columns) and BlockDict codes instead of expanding values.
Status DecodeBlockImpl(const std::string& data, size_t* offset, TypeId type,
                       ColumnVector* out, bool keep_encoded,
                       const std::vector<uint8_t>* sel) {
  if (*offset >= data.size()) return Status::Corruption("block: empty");
  auto enc = static_cast<EncodingId>(data[(*offset)++]);
  uint64_t count;
  if (!GetVarint64(data, offset, &count)) return Status::Corruption("block: bad count");
  if (sel != nullptr && sel->size() != count)
    return Status::InvalidArgument("selection size != block row count");
  std::vector<uint8_t> nulls;
  STRATICA_RETURN_NOT_OK(ReadNullSection(data, offset, count, &nulls));
  out->type = type;

  size_t phys_before = out->PhysicalSize();
  bool keep_runs = keep_encoded && nulls.empty();
  STRATICA_RETURN_NOT_OK(
      sel == nullptr
          ? DecodePayload<false>(enc, data, offset, count, nullptr, keep_runs,
                                 keep_encoded, out)
          : DecodePayload<true>(enc, data, offset, count, sel->data(), false, false, out));

  if (!nulls.empty()) {
    if (out->nulls.empty()) out->nulls.assign(phys_before, 0);
    if (sel == nullptr) {
      out->nulls.insert(out->nulls.end(), nulls.begin(), nulls.end());
    } else {
      for (size_t i = 0; i < count; ++i) {
        if ((*sel)[i]) out->nulls.push_back(nulls[i]);
      }
    }
  } else if (!out->nulls.empty()) {
    out->nulls.resize(out->PhysicalSize(), 0);
  }
  // Keep `runs` parallel to the physical entries when a mixed-encoding file
  // interleaves RLE blocks (which keep runs) with flat ones.
  if (!out->runs.empty() && out->runs.size() < out->PhysicalSize()) {
    out->runs.resize(out->PhysicalSize(), 1);
  }
  return Status::OK();
}

// Code order must equal value order. Blocks written since the encoder
// started sorting dictionaries (and remapping codes) at encode time pass
// the O(d) check below and skip the work entirely; older blocks (or other
// writers) pay one sort + remap per view.
void SortDictionary(ColumnVector* col) {
  const ColumnVector& raw = *col->dict;
  size_t d = raw.PhysicalSize();
  col->dict_sorted = true;
  bool presorted = true;
  for (size_t i = 1; presorted && i < d; ++i) {
    presorted = ColumnVector::CompareEntries(raw, i - 1, raw, i) < 0;
  }
  if (presorted) return;
  std::vector<uint32_t> perm(d);
  for (size_t i = 0; i < d; ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return ColumnVector::CompareEntries(raw, a, raw, b) < 0;
  });
  std::vector<int64_t> rank(d);
  ColumnVector sorted(col->type);
  sorted.Reserve(d);
  for (size_t i = 0; i < d; ++i) {
    rank[perm[i]] = static_cast<int64_t>(i);
    sorted.AppendFrom(raw, perm[i]);
  }
  for (auto& c : col->ints) c = rank[static_cast<size_t>(c)];
  col->dict = std::make_shared<const ColumnVector>(std::move(sorted));
}
}  // namespace

Status DecodeBlock(const std::string& data, size_t* offset, TypeId type,
                   ColumnVector* out) {
  return DecodeBlockImpl(data, offset, type, out, /*keep_encoded=*/false, nullptr);
}

Status DecodeBlockSelected(const std::string& data, size_t* offset, TypeId type,
                           const std::vector<uint8_t>& sel, ColumnVector* out) {
  return DecodeBlockImpl(data, offset, type, out, /*keep_encoded=*/false, &sel);
}

Status DecodeBlockView(const std::string& data, size_t* offset, TypeId type,
                       EncodedBlockView* out) {
  out->column = ColumnVector(type);
  auto enc = PeekBlockEncoding(data, *offset);
  if (!enc.ok()) return enc.status();
  out->encoding = enc.value();
  STRATICA_RETURN_NOT_OK(
      DecodeBlockImpl(data, offset, type, &out->column, /*keep_encoded=*/true, nullptr));
  if (out->column.IsDictCoded()) SortDictionary(&out->column);
  return Status::OK();
}

Result<EncodingId> PeekBlockEncoding(const std::string& data, size_t offset) {
  if (offset >= data.size()) return Status::Corruption("block: empty");
  return static_cast<EncodingId>(data[offset]);
}

void EncodeValue(std::string* out, const Value& v) {
  out->push_back(v.is_null() ? 1 : 0);
  if (v.is_null()) return;
  switch (StorageClassOf(v.type())) {
    case StorageClass::kInt64: PutVarint64(out, ZigZagEncode(v.i64())); break;
    case StorageClass::kFloat64: PutFixed(out, v.f64()); break;
    case StorageClass::kString:
      PutVarint64(out, v.str().size());
      out->append(v.str());
      break;
  }
}

Status DecodeValue(const std::string& data, size_t* offset, TypeId type, Value* out) {
  if (*offset >= data.size()) return Status::Corruption("value: truncated");
  bool null = data[(*offset)++] != 0;
  if (null) {
    *out = Value::Null(type);
    return Status::OK();
  }
  switch (StorageClassOf(type)) {
    case StorageClass::kInt64: {
      uint64_t zz;
      if (!GetVarint64(data, offset, &zz)) return Status::Corruption("value: bad int");
      *out = Value::OfInt(type, ZigZagDecode(zz));
      return Status::OK();
    }
    case StorageClass::kFloat64: {
      double d;
      if (!GetFixed(data, offset, &d)) return Status::Corruption("value: bad float");
      *out = Value::Float64(d);
      return Status::OK();
    }
    case StorageClass::kString: {
      uint64_t len;
      if (!GetVarint64(data, offset, &len) || *offset + len > data.size())
        return Status::Corruption("value: bad string");
      *out = Value::String(std::string(data, *offset, len));
      *offset += len;
      return Status::OK();
    }
  }
  return Status::Internal("bad storage class");
}

}  // namespace stratica
