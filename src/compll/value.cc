#include "src/compll/value.h"

#include <cmath>
#include <cstdint>

namespace hipress::compll {

double CoerceToType(ScalarType type, double v) {
  switch (type) {
    case ScalarType::kFloat:
      return static_cast<double>(static_cast<float>(v));
    case ScalarType::kInt32:
      return static_cast<double>(static_cast<int32_t>(v));
    case ScalarType::kUint1:
    case ScalarType::kUint2:
    case ScalarType::kUint4:
    case ScalarType::kUint8: {
      const unsigned bits = ScalarBits(type);
      const uint64_t mask = (1ull << bits) - 1;
      // Truncate toward zero then wrap, like C unsigned conversion.
      const auto integral = static_cast<int64_t>(v);
      return static_cast<double>(static_cast<uint64_t>(integral) & mask);
    }
    case ScalarType::kVoid:
    case ScalarType::kParamStruct:
      return v;
  }
  return v;
}

}  // namespace hipress::compll
