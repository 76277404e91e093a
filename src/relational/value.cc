#include "relational/value.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace msql::relational {

std::string_view TypeName(Type type) {
  switch (type) {
    case Type::kNull:
      return "NULL";
    case Type::kInteger:
      return "INTEGER";
    case Type::kReal:
      return "REAL";
    case Type::kText:
      return "TEXT";
    case Type::kBoolean:
      return "BOOLEAN";
  }
  return "UNKNOWN";
}

Result<Type> TypeFromName(std::string_view name) {
  std::string upper = ToUpper(name);
  if (upper == "INTEGER" || upper == "INT" || upper == "BIGINT" ||
      upper == "SMALLINT") {
    return Type::kInteger;
  }
  if (upper == "REAL" || upper == "FLOAT" || upper == "DOUBLE" ||
      upper == "NUMERIC" || upper == "DECIMAL") {
    return Type::kReal;
  }
  if (upper == "TEXT" || upper == "CHAR" || upper == "VARCHAR" ||
      upper == "STRING") {
    return Type::kText;
  }
  if (upper == "BOOLEAN" || upper == "BOOL") {
    return Type::kBoolean;
  }
  return Status::InvalidArgument("unknown type name: " + std::string(name));
}

Type Value::type() const {
  if (is_null()) return Type::kNull;
  if (is_integer()) return Type::kInteger;
  if (is_real()) return Type::kReal;
  if (is_text()) return Type::kText;
  return Type::kBoolean;
}

double Value::NumericAsReal() const {
  return is_integer() ? static_cast<double>(AsInteger()) : AsReal();
}

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) {
    if (is_integer() && other.is_integer()) {
      return AsInteger() == other.AsInteger();
    }
    return NumericAsReal() == other.NumericAsReal();
  }
  return rep_ == other.rep_;
}

int Value::Compare(const Value& other) const {
  // NULL sorts before everything.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (is_numeric() && other.is_numeric()) {
    double a = NumericAsReal();
    double b = other.NumericAsReal();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (is_text() && other.is_text()) {
    return AsText().compare(other.AsText());
  }
  if (is_boolean() && other.is_boolean()) {
    return static_cast<int>(AsBoolean()) - static_cast<int>(other.AsBoolean());
  }
  // Heterogeneous: order by type id for a stable total order.
  return static_cast<int>(type()) - static_cast<int>(other.type());
}

std::string Value::ToSqlLiteral() const {
  if (is_null()) return "NULL";
  if (is_integer()) return std::to_string(AsInteger());
  if (is_real()) {
    std::ostringstream os;
    os << AsReal();
    std::string s = os.str();
    // Keep the literal recognizably REAL when it round-trips via SQL text.
    if (s.find('.') == std::string::npos &&
        s.find('e') == std::string::npos &&
        s.find("inf") == std::string::npos &&
        s.find("nan") == std::string::npos) {
      s += ".0";
    }
    return s;
  }
  if (is_boolean()) return AsBoolean() ? "TRUE" : "FALSE";
  // Text: single quotes, embedded quotes doubled.
  std::string out = "'";
  for (char c : AsText()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

std::string Value::ToDisplayString() const {
  if (is_text()) return AsText();
  return ToSqlLiteral();
}

Result<Value> Value::CoerceTo(Type target) const {
  if (is_null()) return *this;  // NULL fits every column
  if (type() == target) return *this;
  if (target == Type::kReal && is_integer()) {
    return Value::Real(static_cast<double>(AsInteger()));
  }
  if (target == Type::kInteger && is_real()) {
    double v = AsReal();
    double rounded = std::nearbyint(v);
    if (rounded != v) {
      return Status::InvalidArgument("cannot store non-integral REAL " +
                                     ToSqlLiteral() + " into INTEGER column");
    }
    // INTEGER holds [-2^63, 2^63); casting a REAL outside it is undefined.
    if (v < -0x1p63 || v >= 0x1p63) {
      return Status::InvalidArgument("cannot store out-of-range REAL " +
                                     ToSqlLiteral() + " into INTEGER column");
    }
    return Value::Integer(static_cast<int64_t>(v));
  }
  return Status::InvalidArgument(
      std::string("cannot coerce ") + std::string(TypeName(type())) +
      " value " + ToSqlLiteral() + " to " + std::string(TypeName(target)));
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToDisplayString();
}

}  // namespace msql::relational
