// Runtime values for the CompLL interpreter.
//
// Numeric scalars and arrays are carried as doubles regardless of declared
// DSL type (the declared type governs packing width and integer semantics);
// compressed payloads are byte buffers with a read cursor for stream-style
// extract<>() calls.
#ifndef HIPRESS_SRC_COMPLL_VALUE_H_
#define HIPRESS_SRC_COMPLL_VALUE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/compll/types.h"

namespace hipress::compll {

enum class ValueKind {
  kScalar,
  kArray,
  kBytes,
};

struct Value {
  ValueKind kind = ValueKind::kScalar;
  ScalarType elem_type = ScalarType::kFloat;

  double scalar = 0.0;
  std::shared_ptr<std::vector<double>> array;
  std::shared_ptr<std::vector<uint8_t>> bytes;
  // Read cursor (in bytes) for extract<>() over a kBytes value. Shared so
  // sequential extracts through the same buffer binding advance together.
  std::shared_ptr<size_t> cursor;

  static Value Scalar(ScalarType type, double v) {
    Value value;
    value.kind = ValueKind::kScalar;
    value.elem_type = type;
    value.scalar = v;
    return value;
  }

  static Value Float(double v) { return Scalar(ScalarType::kFloat, v); }
  static Value Int(long long v) {
    return Scalar(ScalarType::kInt32, static_cast<double>(v));
  }

  static Value Array(ScalarType elem, std::vector<double> data) {
    Value value;
    value.kind = ValueKind::kArray;
    value.elem_type = elem;
    value.array = std::make_shared<std::vector<double>>(std::move(data));
    return value;
  }

  static Value Bytes(std::vector<uint8_t> data) {
    Value value;
    value.kind = ValueKind::kBytes;
    value.elem_type = ScalarType::kUint8;
    value.bytes = std::make_shared<std::vector<uint8_t>>(std::move(data));
    value.cursor = std::make_shared<size_t>(0);
    return value;
  }

  bool is_scalar() const { return kind == ValueKind::kScalar; }
  bool is_array() const { return kind == ValueKind::kArray; }
  bool is_bytes() const { return kind == ValueKind::kBytes; }

  size_t size() const {
    if (is_array()) {
      return array ? array->size() : 0;
    }
    if (is_bytes()) {
      return bytes ? bytes->size() : 0;
    }
    return 0;
  }

  // Truncates toward zero, matching C integer conversion; used whenever a
  // value lands in an integer-typed slot.
  long long AsInt() const { return static_cast<long long>(scalar); }
  bool AsBool() const { return scalar != 0.0; }
};

// Clamps `v` to the representable range of `type` (wrap-around for uints,
// matching C conversion semantics for the packed types).
double CoerceToType(ScalarType type, double v);

}  // namespace hipress::compll

#endif  // HIPRESS_SRC_COMPLL_VALUE_H_
