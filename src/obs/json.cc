#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ordma::obs {

void json_escaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
}

void emit_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[64];
  if (v == std::trunc(v) && std::fabs(v) < 0x1p53) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    os << buf;
    return;
  }
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, r.ptr - buf);
}

}  // namespace ordma::obs
