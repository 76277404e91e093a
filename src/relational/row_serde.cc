#include "relational/row_serde.h"

#include <cstring>

#include "storage/page.h"

namespace msql::relational {

namespace {
// Serde value tags.
constexpr char kTagNull = 0;
constexpr char kTagInteger = 1;
constexpr char kTagReal = 2;
constexpr char kTagText = 3;
constexpr char kTagBoolean = 4;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  storage::StoreU32(buf, v);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  storage::StoreU64(buf, v);
  out->append(buf, 8);
}

/// Monotone map from double to uint64 (IEEE-754 trick): flip all bits
/// of negatives, flip only the sign bit of non-negatives, then compare
/// as unsigned.
uint64_t OrderedDoubleBits(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 and 0.0 compare equal, so encode alike
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & (uint64_t{1} << 63)) return ~bits;
  return bits | (uint64_t{1} << 63);
}

void AppendBigEndian64(std::string* out, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
}  // namespace

std::string SerializeRow(const Row& row) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) {
    if (v.is_null()) {
      out.push_back(kTagNull);
    } else if (v.is_integer()) {
      out.push_back(kTagInteger);
      AppendU64(&out, static_cast<uint64_t>(v.AsInteger()));
    } else if (v.is_real()) {
      out.push_back(kTagReal);
      uint64_t bits;
      double d = v.AsReal();
      std::memcpy(&bits, &d, sizeof(bits));
      AppendU64(&out, bits);
    } else if (v.is_text()) {
      out.push_back(kTagText);
      AppendU32(&out, static_cast<uint32_t>(v.AsText().size()));
      out.append(v.AsText());
    } else {
      out.push_back(kTagBoolean);
      out.push_back(v.AsBoolean() ? 1 : 0);
    }
  }
  return out;
}

Result<Row> DeserializeRow(std::string_view bytes) {
  auto bad = [&]() {
    return Status::Corrupted("malformed serialized row (" +
                             std::to_string(bytes.size()) + " bytes)");
  };
  size_t pos = 0;
  if (bytes.size() < 4) return bad();
  uint32_t n = storage::LoadU32(bytes.data());
  pos = 4;
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (pos >= bytes.size()) return bad();
    char tag = bytes[pos++];
    switch (tag) {
      case kTagNull:
        row.push_back(Value::Null_());
        break;
      case kTagInteger: {
        if (pos + 8 > bytes.size()) return bad();
        uint64_t v = storage::LoadU64(bytes.data() + pos);
        pos += 8;
        row.push_back(Value::Integer(static_cast<int64_t>(v)));
        break;
      }
      case kTagReal: {
        if (pos + 8 > bytes.size()) return bad();
        uint64_t bits = storage::LoadU64(bytes.data() + pos);
        pos += 8;
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        row.push_back(Value::Real(d));
        break;
      }
      case kTagText: {
        if (pos + 4 > bytes.size()) return bad();
        uint32_t len = storage::LoadU32(bytes.data() + pos);
        pos += 4;
        if (pos + len > bytes.size()) return bad();
        row.push_back(Value::Text(std::string(bytes.substr(pos, len))));
        pos += len;
        break;
      }
      case kTagBoolean: {
        if (pos >= bytes.size()) return bad();
        row.push_back(Value::Boolean(bytes[pos++] != 0));
        break;
      }
      default:
        return bad();
    }
  }
  if (pos != bytes.size()) return bad();
  return row;
}

std::string EncodeIndexKey(const Value& v) {
  std::string out;
  if (v.is_null()) {
    out.push_back(0x00);
  } else if (v.is_integer()) {
    out.push_back(0x01);
    // Bias the sign bit so two's-complement order becomes byte order.
    AppendBigEndian64(&out, static_cast<uint64_t>(v.AsInteger()) ^
                                (uint64_t{1} << 63));
  } else if (v.is_real()) {
    out.push_back(0x02);
    AppendBigEndian64(&out, OrderedDoubleBits(v.AsReal()));
  } else if (v.is_text()) {
    out.push_back(0x03);
    for (char c : v.AsText()) {
      out.push_back(c);
      if (c == '\0') out.push_back('\xff');  // escape embedded NULs
    }
    out.push_back('\0');
    out.push_back('\0');
  } else {
    out.push_back(0x04);
    out.push_back(v.AsBoolean() ? 1 : 0);
  }
  return out;
}

std::string EncodeIndexEntry(const Value& v, RowId id) {
  std::string out = EncodeIndexKey(v);
  AppendBigEndian64(&out, id);
  return out;
}

RowId DecodeIndexEntryRowId(std::string_view entry) {
  RowId id = 0;
  size_t start = entry.size() - 8;
  for (size_t i = 0; i < 8; ++i) {
    id = (id << 8) | static_cast<unsigned char>(entry[start + i]);
  }
  return id;
}

}  // namespace msql::relational
