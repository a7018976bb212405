// The one JSON writer of the obs documents (metrics, trace, health,
// timeseries, explain): string escaping and number formatting.
#pragma once

#include <ostream>
#include <string_view>

namespace ordma::obs {

// `s` with '"', '\\' and control characters escaped (no quotes added).
void json_escaped(std::ostream& os, std::string_view s);

// Integral values (every cumulative counter) print exactly, digit for
// digit; anything else prints as the shortest decimal that parses back to
// the same double. Non-finite values print as null.
void emit_number(std::ostream& os, double v);

}  // namespace ordma::obs
