// Small string helpers shared across the library.

#ifndef MRSL_UTIL_STRING_UTIL_H_
#define MRSL_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace mrsl {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double v, int precision);

/// True iff `s` parses fully as a finite double; stores it in *out.
bool ParseDouble(std::string_view s, double* out);

/// True iff `s` parses fully as an int64; stores it in *out.
bool ParseInt(std::string_view s, int64_t* out);

/// Escapes `s` for a JSON string literal (without the quotes): quote,
/// backslash, \n \r \t, and other control characters as \u00XX.
std::string JsonEscape(std::string_view s);

}  // namespace mrsl

#endif  // MRSL_UTIL_STRING_UTIL_H_
